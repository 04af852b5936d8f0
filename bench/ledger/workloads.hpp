// The four named workloads (README.md says why each exists) and the
// entry points main.cpp dispatches to. A workload run is untraced (the
// end-to-end metrics) or traced (the per-layer metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace ledger {

inline const std::vector<std::string> kWorkloads = {
    "offline-relay", "offline-matrix", "service-churn", "service-calls"};

/// The end-to-end metric names every untraced run prints, in order.
inline const std::vector<std::string> kEndToEndMetrics = {
    "setup_s", "throughput_mb_s", "latency_ms_p50", "latency_ms_p90",
    "peak_rss_mb"};

/// BENCHMARK.json's run_seconds.
inline constexpr double kDefaultSeconds = 20.0;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kDefaultSeconds;  // measured time; service phases split it
  bool trace = false;
  std::string spans_path;   // traced runs: spans are written here
  std::string workdir;      // captures, sockets and FIFOs of this run
  std::string expected_dir;
};

[[nodiscard]] inline bool is_offline(const std::string& workload) {
  return workload.rfind("offline-", 0) == 0;
}

Result run_offline(const RunConfig& cfg);
Result run_service(const RunConfig& cfg);

// ---- Probes, each run in a fresh child process of this binary ----------

/// read_pcap + analyze_trace + to_json of `pcap` (its filter config in
/// `pcap`.cfg), the first analysis of the process: seconds, and the
/// peak-RSS growth in MB. Seconds < 0 on failure.
std::pair<double, double> probe_capture(const std::string& pcap);

/// Daemon construction + start() + the first /healthz 200, with its
/// socket and JSONL file in `workdir`: seconds, < 0 on failure.
double probe_daemon(const std::string& workdir);

/// Runs this binary with `args` in a fresh child process and returns the
/// numbers it prints; empty if it failed (main.cpp).
std::vector<double> run_probe(const std::vector<std::string>& args);

/// setup_s: the median of 25 probes run with `probe_args`; a failed
/// probe counts against `res`.
double median_setup_s(const std::vector<std::string>& probe_args, Result& res);

/// Record this seed's digests.
bool write_expected_offline(const RunConfig& cfg, Expected& expected);
bool write_expected_service(const RunConfig& cfg, Expected& expected);

}  // namespace ledger
