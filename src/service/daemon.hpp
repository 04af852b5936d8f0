// rtccd: resident compliance-analysis service (DESIGN.md §7a).
//
// Wraps one long-lived StreamingAnalyzer behind two ingest paths — a
// pcap drop folder (WatchDir) and an optional unix-domain stream
// socket, each accepted connection carrying one pcap byte stream — and
// three output surfaces: an incremental JSONL verdict stream
// (VerdictWriter, driven by the engine's epoch sink), a Prometheus
// /metrics endpoint, and /healthz. One engine spans every capture, so
// flows, cross-flow filter evidence, and the ingest ledger accumulate
// across drop-files exactly as they would in a single concatenated
// capture; the batch pipeline over the same frames is the equivalence
// oracle (tests/test_service.cpp).
//
// Lifecycle: start() binds sockets and the exporter; run() polls
// ingest sources until request_stop() (SIGTERM/SIGINT via
// install_signal_handlers, or programmatic), then drains — closes the
// final epoch through finish(), flushes the JSONL stream, publishes
// the final ledger to /metrics — and returns 0. `oneshot` processes
// whatever is (or lands) in the folder once and then drains, which is
// what the CI smoke test runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "report/metrics.hpp"
#include "service/http_exporter.hpp"
#include "service/metrics_registry.hpp"
#include "service/verdict_writer.hpp"
#include "service/watch_dir.hpp"
#include "stream/engine.hpp"

namespace rtcc::service {

/// FilterConfig for resident monitoring: no experiment schedule, so
/// the call window spans all representable capture time (stage 1
/// encloses every stream) and the stage-2 evidence sets stay empty
/// unless the caller configures blocklists/devices/ports. With it the
/// daemon reports on *all* traffic; pass an experiment config (e.g.
/// emul::group_filter_config) to reproduce batch-filter semantics.
[[nodiscard]] rtcc::filter::FilterConfig keep_all_filter_config();

struct DaemonOptions {
  std::string watch_dir;     // pcap drop folder; empty = socket-only
  std::string socket_path;   // unix ingest socket; empty = folder-only
  std::string jsonl_path = "-";  // verdict stream; "-" = stdout
  bool enable_metrics = true;
  std::uint16_t metrics_port = 0;  // 0 = OS-assigned (see Daemon::port())
  double epoch_s = 1.0;            // capture-clock epoch length; see
                                   // service_epoch_from_env()
  int poll_ms = 50;                // idle sleep between ingest polls
  bool oneshot = false;            // drain after the folder empties
  rtcc::filter::FilterConfig fcfg = keep_all_filter_config();
  rtcc::report::AnalysisOptions analysis;
  stream::StreamOptions stream;
};

/// RTCC_SERVICE_EPOCH (seconds, [0, 1e9]; 0 = per-capture epochs only,
/// default 1.0). Invalid values warn once and fall back, like every
/// other RTCC_* knob.
[[nodiscard]] double service_epoch_from_env();

class Daemon {
 public:
  explicit Daemon(DaemonOptions opts);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Opens the verdict stream, binds the ingest socket and metrics
  /// endpoint. False with `*error` set on any failure.
  bool start(std::string* error = nullptr);

  /// Ingest/emit loop; blocks until request_stop() (or oneshot drain),
  /// then finalizes. Returns the process exit code (0 = clean drain).
  int run();

  /// Async-signal-safe stop request; run() drains and returns.
  void request_stop() { stop_.store(true, std::memory_order_release); }

  /// Installs SIGTERM/SIGINT handlers that request_stop() this daemon
  /// (at most one daemon per process), and ignores SIGPIPE so a JSONL
  /// reader that goes away costs write errors, not the process.
  static void install_signal_handlers(Daemon* daemon);

  [[nodiscard]] std::uint16_t metrics_port() const {
    return exporter_ ? exporter_->port() : 0;
  }
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }

  /// Kept verdicts whose compliance contribution is held for a possible
  /// amendment; settled verdicts hold none (always 0 under keep-all).
  [[nodiscard]] std::size_t held_contributions() const {
    return contributions_.size();
  }

  /// The merged end-of-run analysis; set once run() returns.
  [[nodiscard]] const std::optional<rtcc::report::CallAnalysis>&
  final_report() const {
    return final_;
  }

 private:
  /// Ingests one drop file and renames it .done/.err; false when the
  /// rename failed, so the file is still in the folder.
  bool process_file(const std::string& path);
  bool poll_socket();  // accepts + ingests one connection; true if any
  void on_epoch(const stream::EpochReport& ep);
  void publish_engine_metrics();

  DaemonOptions opts_;
  MetricsRegistry metrics_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  stream::StreamingAnalyzer engine_;
  WatchDir watch_;
  std::unique_ptr<VerdictWriter> writer_;
  std::unique_ptr<HttpExporter> exporter_;
  int ingest_fd_ = -1;  // listening unix socket
  std::optional<rtcc::report::CallAnalysis> final_;
  /// Per-ordinal compliance contribution of kept, unsettled verdicts,
  /// so an amendment (kept -> removed) retracts exactly what it once
  /// added.
  struct Contribution {
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_proto;
  };
  std::map<std::uint64_t, Contribution> contributions_;
};

}  // namespace rtcc::service
