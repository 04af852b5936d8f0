// Per-layer measurement from outside the library, shared by the
// offline and service traced runs so every workload reports every
// per-layer metric:
//
//   * the production path (read_pcap -> analyze_trace -> to_json),
//   * a serial decomposition of that path into its public steps, timed
//     step by step under one parent span and checked against the
//     production signature,
//   * an instrumented streaming pass that reads a pcap byte stream from
//     a file or socket, times every read() and push_frame(), and wraps
//     the epoch sink around VerdictWriter::write_epoch,
//   * a registry-render probe on a real rtccd Daemon.
//
// Also the verdict log both service paths produce (the daemon's JSONL
// stream and the in-process sink), with its conservation checks and
// verdict latencies.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "filter/pipeline.hpp"
#include "ledger.hpp"
#include "report/metrics.hpp"
#include "stream/stream_mode.hpp"
#include "util/bytes.hpp"

namespace ledger {

/// Per-layer sums over one traced run. `SpanSum::count` is the layer's
/// unit of work, named beside each field.
struct LayerTotals {
  // net
  SpanSum read_pcap;      // frames
  SpanSum group_streams;  // frames
  SpanSum build_batch;    // datagrams (net::packet_payload)
  std::uint64_t fragments_reassembled = 0;
  // filter
  SpanSum run_pipeline;  // streams in the table
  std::uint64_t streams = 0;
  std::uint64_t kept_streams = 0;
  // dpi
  SpanSum analyze_batch;  // datagrams
  std::uint64_t prefilter_staged = 0;
  std::uint64_t candidates = 0;
  std::uint64_t messages = 0;
  std::uint64_t demux_vectors = 0;
  std::uint64_t demux_packets = 0;
  // compliance
  SpanSum compliance;  // messages observed
  // report
  SpanSum merge;    // captures
  SpanSum to_json;  // captures
  std::int64_t decomposition_ns = 0;  // parent spans
  std::int64_t children_ns = 0;       // their children, summed
  std::int64_t serial_analyze_ns = 0;      // decomposition minus I/O + JSON
  std::int64_t production_analyze_ns = 0;  // analyze_trace itself
  std::uint64_t production_frames = 0;
  std::int64_t streaming_ns = 0;  // stream::analyze_pcap_streaming
  std::uint64_t streaming_frames = 0;
  // stream
  SpanSum push_frame;  // frames, pushes that closed no epoch
  std::vector<double> epoch_close_ms;
  std::int64_t epoch_close_ns = 0;
  std::uint64_t epoch_flows_seen = 0;  // flows_seen at each close, summed
  double live_peak_mb = 0.0;
  std::uint64_t flows_seen = 0;
  std::uint64_t evictions = 0;
  // service
  SpanSum write_epoch;  // verdicts written
  std::int64_t read_wait_ns = 0;
  std::int64_t ingest_ns = 0;
  double render_us = std::numeric_limits<double>::quiet_NaN();
  // the end-to-end latency as the traced run saw it (tracing overhead)
  std::vector<double> traced_latency_ms;
};

/// Appends every per-layer metric, by name and unit, to `res`.
void emit_layer_metrics(const LayerTotals& t, Result& res);

/// The per-layer metric names, in print order (the smoke check).
[[nodiscard]] const std::vector<std::string>& layer_metric_names();

// ---- Production path and its decomposition ------------------------------

struct ProductionRun {
  bool ok = false;
  std::string error;
  std::string signature;  // testkit::meta::compliance_signature
  std::uint64_t frames = 0;
  std::int64_t analyze_ns = 0;
  double total_ms = 0.0;  // read_pcap through to_json
};

/// read_pcap -> analyze_trace -> to_json on `path`, as a user runs it.
[[nodiscard]] ProductionRun run_production(
    const std::string& path, const rtcc::filter::FilterConfig& fcfg);

/// The same path, serially, one public call at a time, each summed into
/// its layer's span under a parent span for capture `index`. Counts
/// that must not repeat across rounds are booked only when
/// `count_once`. Returns the decomposition's signature ("" on a read
/// error).
std::string run_decomposition(const std::string& path,
                              const rtcc::filter::FilterConfig& fcfg,
                              std::uint64_t index, bool count_once,
                              LayerTotals& t, Tracer& tracer);

/// Times stream::analyze_pcap_streaming on `path`; returns its
/// signature ("" on error).
std::string run_streaming_reference(const std::string& path,
                                    const rtcc::filter::FilterConfig& fcfg,
                                    LayerTotals& t);

// ---- Verdict log ----------------------------------------------------------

struct EpochRec {
  std::uint64_t epoch = 0;
  double clock_end = 0.0;
  std::uint64_t frames = 0;
  bool final_pass = false;
};

struct VerdictRec {
  std::uint64_t epoch = 0;
  std::uint64_t ordinal = 0;
  double last_ts = 0.0;
  bool amends = false;
  bool final_pass = false;
  bool kept = false;
  std::uint64_t messages = 0;
  std::uint64_t compliant = 0;
  Clock::time_point seen{};  // when the bench received it
};

struct VerdictLog {
  std::vector<EpochRec> epochs;
  std::vector<VerdictRec> verdicts;
};

/// Conservation checks on a verdict log against the final report: every
/// ordinal exactly once without `amends`, epoch frames summing to
/// `frames`, and kept verdict totals (last line per ordinal wins)
/// equal to the report's. Failures count against `res`.
void check_verdicts(const VerdictLog& log,
                    const rtcc::report::CallAnalysis& final_report,
                    std::uint64_t frames, const std::string& what,
                    Result& res);

/// Verdict latency in ms: from the due time (t0 + clock_end) of the
/// first epoch that could carry the verdict — its own epoch, or the
/// first whose clock_end >= last_ts + idle_s if that is earlier — to
/// when the bench received it. Verdicts of the final (drain) epoch are
/// left out.
[[nodiscard]] std::vector<double> verdict_latencies_ms(const VerdictLog& log,
                                                       Clock::time_point t0,
                                                       double idle_s);

// ---- Instrumented streaming pass ------------------------------------------

struct StreamPass {
  rtcc::filter::FilterConfig fcfg;
  rtcc::stream::StreamOptions sopts;
  double epoch_s = 1.0;
  std::string jsonl_path;  // where the wrapped VerdictWriter writes
};

struct StreamPassResult {
  bool ok = false;
  std::string error;
  std::uint64_t frames = 0;
  rtcc::report::CallAnalysis final_report;
  std::string signature;  // with per-stream partials
  VerdictLog log;
};

/// Reads a little-endian microsecond pcap byte stream from `fd` to EOF
/// and pushes every record into a fresh StreamingAnalyzer. read() time
/// is input wait; a push_frame call that fires the epoch sink is an
/// epoch close, minus the time spent in the sink. Per-epoch spans go to
/// `tracer`; `count_once` as in run_decomposition.
StreamPassResult run_stream_pass(int fd, const StreamPass& pass,
                                 bool count_once, LayerTotals& t,
                                 Tracer& tracer);

/// Feeds `pcap` to a fresh rtccd Daemon over its unix socket, drains
/// it, then times MetricsRegistry::render on the daemon's registry.
/// Median microseconds; NaN if the daemon would not start.
[[nodiscard]] double measure_render_us(const rtcc::util::Bytes& pcap,
                                       const std::string& workdir);

}  // namespace ledger
