#include "report/corpus.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "emul/scenario.hpp"
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

  // One job per trace: the app matrix app-major, then network, then
  // repeat; then the scenario catalogue scenario-major, then repeat.
  // Slot i of every result vector belongs to job i, so the merge order
  // (and thus the aggregates) is independent of scheduling.
  struct Job {
    rtcc::emul::AppId app{};
    rtcc::emul::NetworkSetup network{};
    int repeat = 0;
    const rtcc::emul::ScenarioSpec* scenario = nullptr;  // null: app call
  };
  std::vector<Job> jobs;
  for (auto app : cfg.apps)
    for (auto network : cfg.networks)
      for (int repeat = 0; repeat < cfg.repeats; ++repeat)
        jobs.push_back(Job{app, network, repeat, nullptr});
  const std::size_t n_calls = jobs.size();
  for (const auto& spec : rtcc::emul::scenario_catalogue())
    for (int repeat = 0; repeat < opts.scenario_repeats; ++repeat)
      jobs.push_back(Job{{}, {}, repeat, &spec});

  // Width 1 runs the jobs one at a time on this thread and never
  // touches the pool. Wider, every job is a pool task that keeps the
  // configured width for its own streams: nested parallel_for on the
  // one pool cannot oversubscribe or deadlock.
  const std::size_t width = effective_shards(cfg.analysis);
  const std::size_t workers = rtcc::util::ThreadPool::shared_size();
  std::size_t slots = opts.max_live_traces;
  if (slots == 0) slots = width == 1 ? 1 : 2 * workers;
  TraceGate gate(slots);

  std::vector<CallAnalysis> analyses(jobs.size());
  std::vector<std::uint64_t> trace_bytes(jobs.size());
  std::vector<std::uint64_t> frames(jobs.size());

  const auto started = std::chrono::steady_clock::now();
  const auto analyze = [&](std::size_t i, const rtcc::net::Trace& trace,
                           const rtcc::filter::FilterConfig& fcfg) {
    trace_bytes[i] = trace.total_bytes();
    frames[i] = trace.size();
    gate.add_bytes(trace_bytes[i]);
    analyses[i] = analyze_trace(trace, fcfg, cfg.analysis);
  };
  const auto run_job = [&](std::size_t i) {
    const Job& job = jobs[i];
    gate.acquire();
    // Trace lifetime is this block: generated, counted, analyzed,
    // destroyed — never parked in a corpus-wide container.
    if (job.scenario == nullptr) {
      rtcc::emul::CallConfig call_cfg;
      call_cfg.app = job.app;
      call_cfg.network = job.network;
      call_cfg.media_scale = cfg.media_scale;
      call_cfg.call_s = cfg.call_s;
      call_cfg.background = cfg.background;
      call_cfg.seed = cfg.seed;
      call_cfg.call_index = job.repeat;
      const auto call = rtcc::emul::emulate_call(call_cfg);
      analyze(i, call.trace, rtcc::emul::filter_config_for(call));
    } else {
      rtcc::emul::ScenarioOptions sopts;
      sopts.media_scale = cfg.media_scale;
      sopts.call_s = cfg.call_s;
      sopts.seed = cfg.seed + 9000 + static_cast<std::uint64_t>(job.repeat);
      const auto scen = job.scenario->build(sopts);
      analyze(i, scen.trace, scen.cfg);
    }
    gate.release(trace_bytes[i]);
  };
  if (width > 1) {
    rtcc::util::ThreadPool::shared().parallel_for(jobs.size(), run_job);
  } else {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_job(i);
  }

  CorpusResult out;
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             started)
                   .count();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    out.total_trace_bytes += trace_bytes[i];
    if (i < n_calls) {
      merge(out.per_app[job.app], analyses[i]);
      out.calls.push_back(CorpusCallStats{job.app, job.network, job.repeat,
                                          trace_bytes[i], frames[i]});
    } else {
      merge(out.per_scenario[job.scenario->name], analyses[i]);
      out.scenario_calls.push_back(CorpusScenarioStats{
          job.scenario->name, job.repeat, trace_bytes[i], frames[i]});
    }
  }
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
