#include "report/corpus.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>

#include "emul/scenario.hpp"
#include "report/shard.hpp"
#include "util/env_knob.hpp"
#include "util/thread_pool.hpp"

#ifdef __unix__
#include <sys/resource.h>
#endif

namespace rtcc::report {
namespace {

/// Counting gate bounding live traces. acquire() blocks until a slot
/// is free; the byte counters ride along under the same mutex so the
/// recorded peak is exact, not sampled.
class TraceGate {
 public:
  explicit TraceGate(std::size_t slots) : free_(slots) {}

  void acquire() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return free_ > 0; });
    --free_;
    ++live_;
    peak_live_ = std::max(peak_live_, live_);
  }

  void add_bytes(std::uint64_t n) {
    std::lock_guard lock(mutex_);
    live_bytes_ += n;
    peak_bytes_ = std::max(peak_bytes_, live_bytes_);
  }

  void release(std::uint64_t bytes) {
    {
      std::lock_guard lock(mutex_);
      live_bytes_ -= bytes;
      --live_;
      ++free_;
    }
    cv_.notify_one();
  }

  [[nodiscard]] std::uint64_t peak_bytes() const { return peak_bytes_; }
  [[nodiscard]] std::size_t peak_live() const { return peak_live_; }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t free_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t live_bytes_ = 0;
  std::uint64_t peak_bytes_ = 0;
};

}  // namespace

std::uint64_t peak_rss_bytes() {
#ifdef __linux__
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    std::uint64_t kib = 0;
    bool found = false;
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %llu kB",
                      reinterpret_cast<unsigned long long*>(&kib)) == 1) {
        found = true;
        break;
      }
    }
    std::fclose(f);
    if (found) return kib * 1024;
  }
#endif
#ifdef __unix__
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
    // ru_maxrss is KiB on Linux, bytes on macOS.
#ifdef __APPLE__
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
  }
#endif
  return 0;
}

CorpusResult run_corpus(const CorpusOptions& opts) {
  const auto& cfg = opts.experiment;

  // App-major, then network, then repeat — slot i of every result
  // vector belongs to job i, so the merge order (and thus the
  // aggregates) is independent of scheduling.
  struct Job {
    rtcc::emul::AppId app;
    rtcc::emul::NetworkSetup network;
    int repeat;
    rtcc::emul::CallConfig call_cfg;
  };
  std::vector<Job> jobs;
  for (auto app : cfg.apps) {
    for (auto network : cfg.networks) {
      for (int repeat = 0; repeat < cfg.repeats; ++repeat) {
        rtcc::emul::CallConfig call_cfg;
        call_cfg.app = app;
        call_cfg.network = network;
        call_cfg.media_scale = cfg.media_scale;
        call_cfg.call_s = cfg.call_s;
        call_cfg.background = cfg.background;
        call_cfg.seed = cfg.seed;
        call_cfg.call_index = repeat;
        jobs.push_back(Job{app, network, repeat, call_cfg});
      }
    }
  }

  const bool serial = cfg.exec == ExecMode::kSerial || jobs.size() <= 1;
  auto& pool = rtcc::util::ThreadPool::shared();
  std::size_t slots = opts.max_live_traces;
  if (slots == 0) slots = serial ? 1 : std::size_t{2} * pool.worker_count();
  TraceGate gate(slots);

  const std::size_t nshards = effective_shards(cfg.analysis);

  std::vector<CallAnalysis> analyses(jobs.size());
  std::vector<CorpusCallStats> stats(jobs.size());

  const auto started = std::chrono::steady_clock::now();

  if (!serial && nshards > 1) {
    // Flow-sharded corpus (DESIGN.md §7): one persistent ShardedPipeline
    // spans the whole run. Generation overlaps analysis through a
    // bounded std::async window; this thread is the single producer —
    // it groups + filters each call (the only stages that need the
    // whole trace) and routes every RTC UDP stream to its shard. A
    // call's trace and stream table live in a lease that the last
    // shard to finish one of its streams releases, so the live-trace
    // gate bounds memory exactly as on the pooled path.
    struct CallLease {
      std::shared_ptr<const rtcc::emul::EmulatedCall> call;
      rtcc::net::StreamTable table;
      rtcc::filter::FilterReport report;
      TraceGate* gate = nullptr;
      std::uint64_t bytes = 0;
      ~CallLease() { gate->release(bytes); }
    };
    struct ShardedJobOut {
      CallAnalysis base;
      std::vector<CallAnalysis> partials;  // sized once; shards write in
      std::vector<std::size_t> routed;     // shard index per partial
    };
    struct Generated {
      std::shared_ptr<const rtcc::emul::EmulatedCall> call;
      std::uint64_t bytes = 0;
    };

    ShardedPipeline::Options popts;
    popts.shards = nshards;
    popts.scan = cfg.analysis.scan;
    popts.compliance = cfg.analysis.compliance;
    ShardedPipeline pipe(popts);

    std::vector<ShardedJobOut> outs(jobs.size());
    std::deque<std::future<Generated>> window;
    std::size_t next = 0;  // next job to pump out of the window

    const auto pump_one = [&] {
      const std::size_t i = next++;
      Generated gen = window.front().get();
      window.pop_front();
      const Job& job = jobs[i];
      stats[i] = CorpusCallStats{job.app, job.network, job.repeat, gen.bytes,
                                 gen.call->trace.size()};
      auto pre = detail::analyze_trace_prelude(
          gen.call->trace, rtcc::emul::filter_config_for(*gen.call));
      ShardedJobOut& out = outs[i];
      out.base = std::move(pre.base);
      auto lease = std::make_shared<CallLease>();
      lease->call = std::move(gen.call);
      lease->table = std::move(pre.table);
      lease->report = std::move(pre.report);
      lease->gate = &gate;
      lease->bytes = gen.bytes;
      const auto& rtc_streams = lease->report.rtc_udp_streams;
      out.partials.resize(rtc_streams.size());
      out.routed.resize(rtc_streams.size());
      for (std::size_t si = 0; si < rtc_streams.size(); ++si)
        out.routed[si] = pipe.submit_stream(
            lease->call->trace, lease->table,
            lease->table.streams[rtc_streams[si]], &out.partials[si], lease);
      // Dropping our lease ref here: the gate slot now frees when the
      // last shard finishes one of this call's streams (immediately,
      // for a call with no RTC UDP streams).
    };

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Pump before acquiring: the window's pending generations hold
      // gate slots, so draining first keeps acquire() free to wait on
      // shard progress alone — no producer/window deadlock.
      while (window.size() >= slots) pump_one();
      gate.acquire();
      window.push_back(std::async(
          std::launch::async, [&gate, call_cfg = jobs[i].call_cfg] {
            Generated gen;
            gen.call = std::make_shared<const rtcc::emul::EmulatedCall>(
                rtcc::emul::emulate_call(call_cfg));
            gen.bytes = gen.call->trace.total_bytes();
            gate.add_bytes(gen.bytes);
            return gen;
          }));
    }
    while (next < jobs.size()) pump_one();
    pipe.finish();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ShardedJobOut& out = outs[i];
      analyses[i] = std::move(out.base);
      // Fixed shard-order merge, same as the sharded analyze_trace.
      for (std::size_t s = 0; s < pipe.shards(); ++s)
        for (std::size_t si = 0; si < out.partials.size(); ++si)
          if (out.routed[si] == s) merge(analyses[i], out.partials[si]);
    }
  } else {
    const auto run_one = [&](std::size_t i) {
      const Job& job = jobs[i];
      gate.acquire();
      std::uint64_t bytes = 0;
      {
        // Trace lifetime is this block: generated, counted, analyzed,
        // destroyed — never parked in a corpus-wide container.
        const auto call = rtcc::emul::emulate_call(job.call_cfg);
        bytes = call.trace.total_bytes();
        gate.add_bytes(bytes);
        // On the pooled path per-call analysis runs unsharded: the
        // pool already keeps every core busy with whole calls, and
        // nesting a pipeline per pool worker would oversubscribe. The
        // serial path (one job, or kSerial) keeps per-trace sharding.
        auto analysis_opts = cfg.analysis;
        if (!serial) analysis_opts.shards = 1;
        analyses[i] = analyze_call(call, analysis_opts);
        stats[i] = CorpusCallStats{job.app, job.network, job.repeat, bytes,
                                   call.trace.size()};
      }
      gate.release(bytes);
    };

    if (serial) {
      for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    } else {
      pool.parallel_for(jobs.size(), run_one);
    }
  }

  // ---- Scenario-catalogue phase: the compliance-matrix rows beyond
  // the app matrix. Runs under the same live-trace gate; each analysis
  // is unsharded on the pooled path for the same oversubscription
  // reason as run_one, and results merge scenario-major below, so
  // aggregates are independent of scheduling.
  const auto& specs = rtcc::emul::scenario_catalogue();
  const std::size_t sreps =
      static_cast<std::size_t>(std::max(0, opts.scenario_repeats));
  std::vector<CallAnalysis> s_analyses(specs.size() * sreps);
  std::vector<CorpusScenarioStats> s_stats(specs.size() * sreps);
  if (sreps > 0) {
    const auto run_scenario = [&](std::size_t j) {
      const std::size_t si = j / sreps;
      const int repeat = static_cast<int>(j % sreps);
      gate.acquire();
      std::uint64_t bytes = 0;
      {
        rtcc::emul::ScenarioOptions sopts;
        sopts.media_scale = cfg.media_scale;
        sopts.call_s = cfg.call_s;
        sopts.seed = cfg.seed + 9000 + static_cast<std::uint64_t>(repeat);
        auto scen = specs[si].build(sopts);
        bytes = scen.trace.total_bytes();
        gate.add_bytes(bytes);
        auto analysis_opts = cfg.analysis;
        if (!serial) analysis_opts.shards = 1;
        s_analyses[j] = analyze_trace(scen.trace, scen.cfg, analysis_opts);
        s_stats[j] = CorpusScenarioStats{specs[si].name, repeat, bytes,
                                         scen.trace.size()};
      }
      gate.release(bytes);
    };
    if (serial) {
      for (std::size_t j = 0; j < s_analyses.size(); ++j) run_scenario(j);
    } else {
      pool.parallel_for(s_analyses.size(), run_scenario);
    }
  }

  CorpusResult out;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             started)
                   .count();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    merge(out.per_app[jobs[i].app], analyses[i]);
    out.total_trace_bytes += stats[i].trace_bytes;
  }
  out.calls = std::move(stats);
  for (std::size_t j = 0; j < s_analyses.size(); ++j) {
    merge(out.per_scenario[s_stats[j].name], s_analyses[j]);
    out.total_trace_bytes += s_stats[j].trace_bytes;
  }
  out.scenario_calls = std::move(s_stats);
  out.peak_live_trace_bytes = gate.peak_bytes();
  out.peak_live_traces = gate.peak_live();
  out.peak_rss_bytes = peak_rss_bytes();
  return out;
}

CorpusOptions corpus_options_from_env() {
  CorpusOptions opts;
  opts.experiment = experiment_config_from_env();
  if (std::getenv("RTCC_REPEATS") == nullptr) opts.experiment.repeats = 5;
  opts.max_live_traces = static_cast<std::size_t>(rtcc::util::env_knob_ll(
      "RTCC_MAX_LIVE", static_cast<long long>(opts.max_live_traces), 1,
      1000000000));
  opts.scenario_repeats = static_cast<int>(
      rtcc::util::env_knob_ll("RTCC_SCENARIOS", 0, 0, 1000000));
  return opts;
}

}  // namespace rtcc::report
