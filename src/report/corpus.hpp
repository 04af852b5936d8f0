// Streaming call-corpus pipeline: the one driver behind every
// experiment matrix (run_experiment in metrics.hpp delegates here).
//
// Each call's multi-megabyte trace dies as soon as its analysis is
// done, and run_corpus bounds how many are alive at once: calls are
// generated → grouped → filtered → DPI-analyzed on the shared
// work-stealing pool with at most `max_live_traces` traces in memory
// simultaneously (a condition-variable gate admits new generations as
// finished calls release their slot), and the result carries the
// memory/throughput counters the paper-scale 90-call corpus is judged
// on: peak concurrently-live trace bytes, process peak RSS, and
// end-to-end MB/s. Aggregates are merged app-major, so the per-app
// analyses are bit-identical at every width.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "report/metrics.hpp"

namespace rtcc::report {

struct CorpusOptions {
  /// The call matrix and analysis options. At width 1
  /// (analysis.shards = 1, or auto under RTCC_THREADS=1) the whole
  /// pipeline runs on the calling thread.
  ExperimentConfig experiment;
  /// Upper bound on traces alive at once. 0 = 2x the pool's worker
  /// count (workers stay busy while the next generation is admitted),
  /// or 1 at width 1 — the default keeps peak memory O(workers), not
  /// O(calls).
  std::size_t max_live_traces = 0;
  /// Scenario-catalogue sweep appended after the app matrix: every
  /// emul::scenario_catalogue() entry is generated and analyzed this
  /// many times (seed-varied per repeat) under the same live-trace
  /// gate. 0 = none. Results merge per scenario name into
  /// CorpusResult::per_scenario — the compliance-matrix rows the
  /// app-major map doesn't cover, and the corpus bench's second scale
  /// axis (RTCC_SCENARIOS / BM_ScenarioScaling).
  int scenario_repeats = 0;
};

/// Per-call footprint row, in deterministic app-major matrix order.
struct CorpusCallStats {
  rtcc::emul::AppId app{};
  rtcc::emul::NetworkSetup network{};
  int repeat = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t frames = 0;
};

/// Per-scenario footprint row, scenario-major then repeat order.
struct CorpusScenarioStats {
  std::string name;
  int repeat = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t frames = 0;
};

struct CorpusResult {
  std::map<rtcc::emul::AppId, CallAnalysis> per_app;
  std::vector<CorpusCallStats> calls;
  /// Merged analysis per scenario-catalogue row (empty unless
  /// CorpusOptions::scenario_repeats > 0).
  std::map<std::string, CallAnalysis> per_scenario;
  std::vector<CorpusScenarioStats> scenario_calls;

  std::uint64_t total_trace_bytes = 0;
  /// Max over time of the summed sizes of concurrently-live traces —
  /// the quantity the streaming gate bounds. For a healthy run this is
  /// far below total_trace_bytes and independent of call count.
  std::uint64_t peak_live_trace_bytes = 0;
  std::size_t peak_live_traces = 0;
  /// Process high-water RSS after the run (VmHWM; 0 if unavailable).
  /// Includes everything the process ever touched, so it is an upper
  /// bound, not a per-run delta.
  std::uint64_t peak_rss_bytes = 0;
  double wall_s = 0.0;

  [[nodiscard]] double mb_per_s() const {
    return wall_s > 0.0
               ? static_cast<double>(total_trace_bytes) / 1e6 / wall_s
               : 0.0;
  }
};

[[nodiscard]] CorpusResult run_corpus(const CorpusOptions& opts = {});

/// experiment_config_from_env() wrapped for corpus runs: same RTCC_*
/// knobs, but repeats defaults to 5 (6 apps x 3 networks x 5 = the
/// paper's 90 calls) unless RTCC_REPEATS overrides it, RTCC_MAX_LIVE
/// bounds max_live_traces, and RTCC_SCENARIOS sets scenario_repeats.
[[nodiscard]] CorpusOptions corpus_options_from_env();

/// Current process peak RSS in bytes (Linux VmHWM, getrusage
/// fallback); 0 when neither source is available.
[[nodiscard]] std::uint64_t peak_rss_bytes();

}  // namespace rtcc::report
