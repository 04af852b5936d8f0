// End-to-end analysis orchestration and the paper's two compliance
// metrics (§5.1): volume-based (per message) and message-type-based
// (a type is compliant only if every observed instance is).
#pragma once

#include <map>
#include <string>

#include "compliance/checker.hpp"
#include "dpi/scanning_dpi.hpp"
#include "emul/app_model.hpp"
#include "filter/pipeline.hpp"
#include "net/packet_batch.hpp"
#include "net/stream_table.hpp"

namespace rtcc::report {

struct AnalysisOptions {
  rtcc::dpi::ScanOptions scan;
  rtcc::compliance::ComplianceConfig compliance;
  /// Parallel width of this analysis. 0 = auto (effective_shards); 1
  /// runs everything on the calling thread; N > 1 runs the streams (and
  /// the corpus's calls) as tasks on the shared pool, splits each
  /// stream's DPI into up to N chunks, and gives the streaming engine N
  /// shard workers. Output is bit-identical for every value
  /// (DESIGN.md §6b).
  std::size_t shards = 0;
};

/// Hard ceiling on the analysis width (the streaming engine's memory
/// per shard is one ring plus pending batches; 64 is far above any
/// plausible core count here).
inline constexpr std::size_t kMaxShards = 64;

/// Width one analysis runs with: `opts.shards` when set, else the
/// shared pool's size (util::ThreadPool::shared_size, RTCC_THREADS),
/// clamped to kMaxShards. Always >= 1; 1 means fully serial.
[[nodiscard]] std::size_t effective_shards(const AnalysisOptions& opts);

/// Stats for one (protocol, message-type-label) cell of Tables 3-6.
struct TypeStats {
  std::uint64_t total = 0;
  std::uint64_t compliant = 0;
  /// First-failing-criterion histogram ("3:attribute-type-validity"→n).
  std::map<std::string, std::uint64_t> criterion_failures;

  [[nodiscard]] bool type_compliant() const { return compliant == total; }
};

struct ProtocolStats {
  std::uint64_t messages = 0;
  std::uint64_t compliant = 0;
  std::map<std::string, TypeStats> types;

  [[nodiscard]] std::size_t compliant_types() const;
  [[nodiscard]] std::size_t total_types() const { return types.size(); }
};

/// Per-shard work accounting for the streaming engine's flow-sharded
/// hand-off (report/shard.hpp). Diagnostic, like FlowStats: the split
/// depends on the width, so equivalence signatures and the stream-parity
/// oracle exclude it (the report JSON surfaces it under "shards").
struct ShardStat {
  std::uint64_t streams = 0;        // streams routed to this shard
  std::uint64_t handoff_vectors = 0;  // ring items received
  std::uint64_t datagrams = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t messages = 0;  // DPI messages extracted on this shard

  void merge(const ShardStat& from) {
    streams += from.streams;
    handoff_vectors += from.handoff_vectors;
    datagrams += from.datagrams;
    payload_bytes += from.payload_bytes;
    messages += from.messages;
  }
};

/// Flow-table accounting from the streaming engine (stream/engine.hpp).
/// Diagnostic, like ShardStat: populated only on the RTCC_STREAM path,
/// so equivalence signatures and the stream-parity oracle exclude it
/// (the report JSON surfaces it under "flows"). Peaks take max() on
/// merge — summing concurrent-flow peaks across calls would fabricate
/// a moment that never existed.
struct FlowStats {
  std::uint64_t flows_seen = 0;      // flow records created
  std::uint64_t flows_live = 0;      // peak concurrently-live flows
  std::uint64_t evictions = 0;       // idle + LRU retirements before EOF
  std::uint64_t finalized = 0;       // per-flow analyses run
  std::uint64_t flows_rekeyed = 0;   // packets re-opening an evicted key
  std::uint64_t live_peak_bytes = 0; // peak buffered payload + reader bytes

  [[nodiscard]] bool any() const {
    return (flows_seen | flows_live | evictions | finalized | flows_rekeyed |
            live_peak_bytes) != 0;
  }

  void merge(const FlowStats& from) {
    flows_seen += from.flows_seen;
    flows_live = flows_live > from.flows_live ? flows_live : from.flows_live;
    evictions += from.evictions;
    finalized += from.finalized;
    flows_rekeyed += from.flows_rekeyed;
    live_peak_bytes = live_peak_bytes > from.live_peak_bytes
                          ? live_peak_bytes
                          : from.live_peak_bytes;
  }
};

/// Everything one call (or a merged experiment) contributes to the
/// paper's tables and figures.
struct CallAnalysis {
  // --- Table 1 ---
  std::uint64_t raw_bytes = 0;
  std::uint64_t raw_udp_streams = 0, raw_udp_datagrams = 0;
  std::uint64_t raw_tcp_streams = 0, raw_tcp_segments = 0;
  rtcc::filter::StageStats stage1_udp, stage2_udp, stage1_tcp, stage2_tcp;
  rtcc::filter::StageStats rtc_udp, rtc_tcp;

  // --- Figure 3 (RTC UDP datagram classes) ---
  std::uint64_t dgram_standard = 0;
  std::uint64_t dgram_prop_header = 0;
  std::uint64_t dgram_fully_prop = 0;

  // --- Tables 2-6 / Figures 4-5 ---
  std::map<rtcc::proto::Protocol, ProtocolStats> protocols;

  // --- DPI ablation data ---
  std::uint64_t dpi_candidates = 0;
  std::uint64_t dpi_messages = 0;

  // --- Vector-pipeline diagnostics (DESIGN.md §6) ---
  // Per-node vectors/packets/suspended tallies from the batched
  // decode → demux → prefilter → scan → compliance graph. Diagnostic
  // only: they depend on the extraction path, so equivalence signatures
  // exclude these (the report JSON surfaces them under "nodes").
  rtcc::dpi::PipelineCounters nodes;

  // --- Flow-sharding diagnostics (DESIGN.md §6c) ---
  // One row per shard worker, filled only by the streaming engine's
  // sharded hand-off. Each per-stream partial carries a full-width
  // vector with only its own shard's row populated, so merge()
  // aggregates per-shard totals at every level. Empty on the batch path.
  std::vector<ShardStat> shards;

  // --- Streaming-engine diagnostics (DESIGN.md §6c) ---
  // Flow-table counters from the one-pass engine; all-zero on the
  // batch path. Knob-dependent (RTCC_STREAM + eviction budgets), so
  // signatures exclude it like `nodes` and `shards`.
  FlowStats flows;

  // --- Ingestion diagnostics (all-zero for synthetic traces) ---
  rtcc::net::IngestStats ingest;

  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_compliant() const;
  /// Units for Table 2: messages plus fully-proprietary datagrams.
  [[nodiscard]] std::uint64_t distribution_total() const;
};

/// Full pipeline on one emulated call: stream grouping → two-stage
/// filter → scanning DPI per RTC UDP stream → five-criterion checker.
[[nodiscard]] CallAnalysis analyze_call(const rtcc::emul::EmulatedCall& call,
                                        const AnalysisOptions& opts = {});

/// Same pipeline but on an arbitrary trace + externally supplied filter
/// config (for analyzing pcaps from disk).
///
/// When `per_stream` is non-null it receives one partial CallAnalysis
/// per surviving RTC UDP stream, in stream-table order — the per-stream
/// datagram classes and per-message compliance verdicts before any
/// merging. The metamorphic oracles (testkit::meta) compare these
/// stream-by-stream across semantics-preserving trace rewrites, which
/// is strictly stronger than comparing the merged aggregate.
[[nodiscard]] CallAnalysis analyze_trace(
    const rtcc::net::Trace& trace, const rtcc::filter::FilterConfig& fcfg,
    const AnalysisOptions& opts = {},
    std::vector<CallAnalysis>* per_stream = nullptr);

void merge(CallAnalysis& into, const CallAnalysis& from);

/// The paper's experiment matrix: apps × network configs × repeats.
struct ExperimentConfig {
  std::vector<rtcc::emul::AppId> apps = rtcc::emul::all_apps();
  std::vector<rtcc::emul::NetworkSetup> networks = rtcc::emul::all_networks();
  int repeats = 2;
  double media_scale = 0.02;
  double call_s = 300.0;
  bool background = true;
  std::uint64_t seed = 42;
  /// `analysis.shards` is also the corpus width: above 1 the calls run
  /// as pool tasks, at 1 one at a time on the calling thread. Results
  /// merge in a fixed order, so every width gives identical aggregates.
  AnalysisOptions analysis;
};

/// The matrix's merged analysis per app: run_corpus({cfg}).per_app.
[[nodiscard]] std::map<rtcc::emul::AppId, CallAnalysis> run_experiment(
    const ExperimentConfig& cfg);

/// Reads the RTCC_* env vars (RTCC_SCALE, RTCC_REPEATS, RTCC_SEED; see
/// EXPERIMENTS.md) so benches can be sped up or made more faithful
/// without recompiling. Parallelism follows RTCC_THREADS through the
/// auto width.
[[nodiscard]] ExperimentConfig experiment_config_from_env();

namespace detail {

/// The single-threaded front of analyze_trace: grouping + two-stage
/// filter, which must see the whole trace (stage 2 draws cross-stream
/// evidence from removed streams), before the per-stream hot path
/// fans out.
struct TracePrelude {
  CallAnalysis base;               // stage stats + ingest, no stream work
  rtcc::net::StreamTable table;    // owns reassembled payload buffers
  rtcc::filter::FilterReport report;
};

[[nodiscard]] TracePrelude analyze_trace_prelude(
    const rtcc::net::Trace& trace, const rtcc::filter::FilterConfig& fcfg);

/// Decode node over one batch-sized chunk of a stream: resolves packet
/// descriptors [base, end) into the SoA batch and books the decode
/// counters into `part`.
void decode_stream_chunk(const rtcc::net::Trace& trace,
                         const rtcc::net::StreamTable& table,
                         const rtcc::net::Stream& stream, std::size_t base,
                         std::size_t end, rtcc::net::PacketBatch& batch,
                         CallAnalysis& part);

/// DPI + compliance over one fully-assembled stream batch (the stream-
/// stateful core: SSRC continuity, support tables, and the two-phase
/// checker all need the whole stream). Fills `part` in place.
/// `dpi_width` is the DPI's chunk width (ScanningDpi::analyze_batch),
/// the analysis width.
void analyze_stream_batch(const rtcc::dpi::ScanningDpi& dpi,
                          const rtcc::compliance::ComplianceConfig& ccfg,
                          const rtcc::net::PacketBatch& batch,
                          CallAnalysis& part, std::size_t dpi_width = 1);

}  // namespace detail

}  // namespace rtcc::report
