// One-pass streaming analysis engine (DESIGN.md §6c).
//
// Inverts the batch data flow: instead of materializing a whole Trace,
// grouping it, filtering it, then analyzing each surviving stream, the
// engine consumes frames one at a time and keeps memory proportional
// to the *active* flow set. Three pieces make the inversion exact:
//
//   * windowed online keep/drop — a flow is condemned the moment the
//     evidence is final regardless of what else arrives: any packet
//     timestamped outside the expanded call window (stage 1 enclosure
//     can no longer hold) or a statically excluded port (stage 2d).
//     Condemned flows drop their payload buffers immediately; only
//     lightweight metadata is retained. Every other disposition (3-tuple
//     timing, SNI, local-IP + precall) needs cross-flow evidence, kept
//     as two insert-only witness sets (outside 3-tuples, pre-call IP
//     pairs) filled at the frame that puts a flow's span outside the
//     window. A new witness re-checks exactly the emitted flows it can
//     amend, so epoch close visits only the flows retired, amended or
//     finalized in that epoch.
//
//   * per-flow incremental state machine — surviving UDP flows buffer
//     payload copies until the flow is finalized (eviction or drain),
//     then run the exact batch per-stream core
//     (report::detail::analyze_stream_batch): the DPI's stream-level
//     validation and cover walk, and the two-phase compliance checker,
//     are whole-stream stateful, so the flow is the unit of
//     incrementality and byte-identity with batch holds by
//     construction. TCP flows never buffer payloads; they probe their
//     first packets for a TLS SNI online, mirroring filter::stream_sni.
//
//   * bounded flow table (stream/flow_table.hpp) — idle/LRU eviction
//     finalizes and emits per-stream results before end of capture,
//     bounding peak live bytes. With the default unbounded budgets no
//     flow is ever split and merged output is byte-identical to batch
//     at every knob combination ("flows" diagnostics aside); bounded
//     budgets trade exactness for memory, accounted in flows_rekeyed.
//
//   * record life cycle — live -> retired -> emitted -> settled ->
//     folded and freed. Once a verdict is emitted and no later evidence
//     can change it (FlowVerdict::settled), the record's Table 1 counts
//     and kept partial fold into one running aggregate and its slot is
//     released, so a long-running engine holds the live flows plus the
//     unsettled verdicts, not every flow it ever saw.
//
// Feed it from the chunked pcap reader (stream/chunk_reader.hpp) or
// push frames of an in-memory Trace (analyze_trace_streaming — the
// RTCC_STREAM=1 body of report::analyze_trace).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dpi/scanning_dpi.hpp"
#include "filter/pipeline.hpp"
#include "net/headers.hpp"
#include "report/metrics.hpp"
#include "stream/flow_table.hpp"
#include "stream/stream_mode.hpp"

namespace rtcc::report {
class ShardedPipeline;
}  // namespace rtcc::report

namespace rtcc::stream {

/// One flow's keep/remove verdict as known at an epoch boundary.
///
/// Epochs control *emission cadence*, not flow retirement: a verdict is
/// first emitted (amends = false) once its flow has retired — its
/// packet span and metadata are frozen — with the disposition the
/// cross-flow evidence supports *so far*. Later evidence can only
/// tighten a verdict (the stage-2 witness sets grow monotonically, so
/// kept can flip to removed but never back); such a revision is emitted
/// as an amendment (amends = true) for the same ordinal. The final
/// epoch (finish()) emits first-time verdicts for every remaining flow
/// and amendments for any earlier verdict the complete evidence
/// overturned, all marked final_pass.
///
/// A verdict is *settled* when no later evidence can change it: its
/// disposition is stage 1 (the span froze at retirement) or 2a (checked
/// first among the stage-2 rules, and witnesses only grow), or the
/// call window encloses every timestamp a pcap record can carry, so
/// neither witness set can ever gain a member (keep_all_filter_config).
/// Every final_pass verdict is settled. After the sink returns, the
/// engine folds a settled flow into its running aggregate and frees it;
/// unsettled flows stay held and may still be amended.
///
/// Conservation identities a sink can check: every ordinal is emitted
/// exactly once with amends = false across the whole run, and the sum
/// of EpochReport::frames equals the total frames pushed.
struct FlowVerdict {
  std::uint64_t ordinal = 0;  // stream-table order, stable across epochs
  rtcc::net::FlowKey key;
  double first_ts = 0.0;
  double last_ts = 0.0;
  std::uint64_t packets = 0;
  rtcc::filter::Disposition disposition = rtcc::filter::Disposition::kKept;
  bool final_pass = false;  // emitted by finish(): evidence is complete
  bool amends = false;      // revises this ordinal's earlier verdict
  bool settled = false;     // no later epoch can amend this verdict
  /// Per-stream compliance analysis for kept UDP flows; null for
  /// removed/TCP flows. Valid only for the duration of the sink call.
  const rtcc::report::CallAnalysis* partial = nullptr;
};

/// Everything emitted at one epoch boundary.
struct EpochReport {
  std::uint64_t epoch = 0;    // 0-based epoch ordinal
  double clock_end = 0.0;     // high-water capture clock at emission
  std::uint64_t frames = 0;   // frames pushed during this window
  std::uint64_t bytes = 0;    // wire bytes pushed during this window
  bool final_pass = false;    // this is the finish() epoch
  rtcc::report::FlowStats flows;  // cumulative flow-ledger snapshot
  std::vector<FlowVerdict> verdicts;
};

using EpochSink = std::function<void(const EpochReport&)>;

class StreamingAnalyzer {
 public:
  StreamingAnalyzer(std::uint32_t linktype,
                    const rtcc::filter::FilterConfig& fcfg,
                    const rtcc::report::AnalysisOptions& opts = {},
                    const StreamOptions& sopts = stream_options_from_env());
  ~StreamingAnalyzer();
  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  /// The chunked reader learns the linktype from the pcap global
  /// header; must be called before the capture's first frame. A
  /// same-linktype call is a no-op (the service daemon streams many
  /// drop-files through one engine — decoder stats and reassembly
  /// state persist across them); a linktype switch folds the old
  /// decoder's stats into the ledger before replacing it.
  void set_linktype(std::uint32_t linktype);
  [[nodiscard]] std::uint32_t linktype() const { return linktype_; }

  /// Capture-layer ingestion counters (frames_seen, torn_tail, ...),
  /// filled by whoever walks the capture records — the chunked reader,
  /// or a copy of Trace::ingest() for in-memory traces. Decode-layer
  /// counters come from the engine's own FrameDecoder.
  [[nodiscard]] rtcc::net::IngestStats& capture_stats() { return capture_; }

  /// Consumes one captured frame (wire bytes + timestamp). `orig_len`
  /// is the pcap record's original on-the-wire length (0 = same as
  /// `wire`); larger than wire.size() marks the frame snaplen-clipped.
  /// The bytes need only stay valid for the duration of the call.
  void push_frame(rtcc::util::BytesView wire, double ts,
                  std::uint32_t orig_len = 0);

  /// Ends the capture: drains the flow table, computes the disposition
  /// of every held record with the batch filter's exact semantics,
  /// finalizes kept flows, and returns the running aggregate of folded
  /// flows merged with the held ones (byte-identical to the batch path
  /// when no flow was split; `flows` carries the streaming diagnostics
  /// either way). When `per_stream` is non-null it receives the kept
  /// per-stream partials of the records still held, in stream-table
  /// order. Whenever nothing settled mid-run — no sink, or a scheduled
  /// call window — that is every kept partial, matching analyze_trace's
  /// out-param; with a sink and a settling config (keep-all) it holds
  /// only the flows not yet folded. Call at most once.
  [[nodiscard]] rtcc::report::CallAnalysis finish(
      std::vector<rtcc::report::CallAnalysis>* per_stream = nullptr);

  /// Windowed finalization for long-running (service) use. When
  /// `epoch_s` is positive and finite, an epoch closes whenever the
  /// high-water capture clock advances `epoch_s` past the epoch's
  /// opening clock: `sink` receives an EpochReport with provisional
  /// verdicts for newly-retired flows and amendments for earlier
  /// verdicts the grown evidence overturned (see FlowVerdict).
  /// `epoch_s` <= 0 or infinity disables automatic boundaries; the
  /// sink then only fires on explicit finish_epoch() calls and at
  /// finish(). Epochs never retire flows — retirement stays with the
  /// idle/LRU budgets — so analysis output is invariant under epoch
  /// length by construction.
  void set_epoch(double epoch_s, EpochSink sink);

  /// Closes the current epoch now (service drain timers, SIGTERM).
  /// No-op without a sink.
  void finish_epoch();

  /// Bytes currently buffered by the engine: live flow payloads plus
  /// submitted-but-unfinished sharded work plus the reader's declared
  /// buffer. The running peak lands in FlowStats::live_peak_bytes.
  [[nodiscard]] std::uint64_t live_bytes() const;

  /// The feeding reader declares its own buffer footprint so the peak
  /// accounts every live byte of the streaming path, not just flows.
  void note_external_live(std::uint64_t bytes);

  [[nodiscard]] const rtcc::report::FlowStats& flow_stats() const {
    return table_.stats();
  }

  /// Currently-live (not yet retired) flows — the service gauge, as
  /// opposed to flow_stats().flows_live which is the running peak.
  [[nodiscard]] std::size_t live_flow_count() const {
    return table_.live_count();
  }

  /// Flow records currently held: live flows plus retired flows whose
  /// verdict is not yet emitted or not yet settled. Bounded by the
  /// flow budget plus one epoch's verdicts under a settling config.
  [[nodiscard]] std::size_t held_records() const {
    return table_.held_count();
  }

  /// Capture + decode ledger combined, readable mid-run (the /metrics
  /// ingest totals). finish() reports the same totals in the merged
  /// analysis' `ingest`.
  [[nodiscard]] rtcc::net::IngestStats ingest_totals() const;

 private:
  using IpPair = std::pair<rtcc::net::IpAddr, rtcc::net::IpAddr>;
  struct IpPairHash {
    std::size_t operator()(const IpPair& p) const noexcept;
  };
  /// An emitted, unsettled record a witness may amend. The ordinal
  /// tells a stale entry (its record since settled and its slot
  /// reused) from a live one.
  struct Ref {
    std::size_t slot;
    std::uint64_t ordinal;
  };

  void on_evict(FlowRecord& rec, EvictReason reason);
  void condemn(FlowRecord& rec);
  /// Builds the whole-flow batch from `payload`, books the decode-node
  /// counters exactly as the batch path's chunk loop would, and runs
  /// (or submits) the batch analysis core into rec.partial.
  void analyze_record(FlowRecord& rec, std::shared_ptr<FlowPayload> payload);
  void update_peak();
  [[nodiscard]] bool is_device(const rtcc::net::IpAddr& ip) const;
  /// Records the frame's stage-2 evidence: the first frame that puts
  /// the span outside the window adds the flow's outside 3-tuples, the
  /// first that puts first_ts before it adds the pre-call IP pair.
  void note_witnesses(FlowRecord& rec);
  /// Queues for re-check every emitted, unsettled record in a bucket
  /// whose witness just arrived, then drops the bucket (a witness
  /// arrives once).
  template <typename Map, typename Key>
  void fire_bucket(Map& buckets, const Key& key);
  /// Indexes a newly emitted, unsettled record under the witnesses
  /// that could still amend it.
  void index_unsettled(const FlowRecord& rec);
  /// The record's disposition under the evidence accumulated so far —
  /// the batch filter's exact stage semantics (2a -> 2b -> 2c -> 2d)
  /// over retained metadata. At finish() this is the batch pipeline's.
  [[nodiscard]] rtcc::filter::Disposition disposition_of(
      const FlowRecord& rec) const;
  [[nodiscard]] bool settles(rtcc::filter::Disposition d) const;
  /// Emits one epoch through the sink and resets the window counters.
  /// `slots` lists the records with something to say (first verdict or
  /// a possible amendment), in ordinal order. Outside the final pass,
  /// settled records fold and free once the sink returns.
  void emit_epoch(bool final_pass, const std::vector<std::size_t>& slots);
  /// This epoch's worklist: retired records ready for a first verdict
  /// plus the records a new witness queued, in ordinal order.
  [[nodiscard]] std::vector<std::size_t> take_worklist();

  rtcc::filter::FilterConfig fcfg_;
  rtcc::report::AnalysisOptions opts_;
  StreamOptions sopts_;
  FlowTable table_;
  std::uint32_t linktype_ = rtcc::net::kLinkEthernet;
  rtcc::net::FrameDecoder decoder_;
  rtcc::dpi::ScanningDpi dpi_;
  rtcc::net::IngestStats capture_;
  std::uint64_t raw_bytes_ = 0;
  double clock_ = 0.0;  // max frame ts seen (pcap ts are not monotonic)
  std::uint64_t live_flow_bytes_ = 0;
  std::uint64_t external_live_ = 0;
  std::shared_ptr<std::atomic<std::uint64_t>> in_flight_;  // sharded handoff
  std::size_t nshards_ = 1;
  std::unique_ptr<rtcc::report::ShardedPipeline> pipe_;
  bool finished_ = false;

  // ---- Stage-2 evidence: insert-only witness sets, and the emitted
  // unsettled records each not-yet-seen witness would amend. ----
  bool settle_all_ = false;  // the window encloses every pcap timestamp
  std::unordered_set<rtcc::filter::ThreeTuple, rtcc::filter::ThreeTupleHash>
      outside_tuples_;
  std::unordered_set<IpPair, IpPairHash> precall_pairs_;
  std::unordered_map<rtcc::filter::ThreeTuple, std::vector<Ref>,
                     rtcc::filter::ThreeTupleHash>
      by_tuple_;
  std::unordered_map<IpPair, std::vector<Ref>, IpPairHash> by_pair_;
  /// Settled, released records: Table 1 counts plus kept partials.
  rtcc::report::CallAnalysis folded_;

  // ---- Epoch/window state (set_epoch) ----
  double epoch_s_ = 0.0;  // <= 0 or inf: no automatic boundaries
  EpochSink sink_;
  std::uint64_t epoch_index_ = 0;
  bool epoch_open_ = false;     // anchor valid (first frame seen)
  double epoch_anchor_ = 0.0;   // high-water clock when the epoch opened
  std::uint64_t epoch_frames_ = 0;
  std::uint64_t epoch_bytes_ = 0;
  std::vector<std::size_t> pending_;  // retired, first verdict not out yet
  std::vector<std::size_t> amend_;    // emitted, a new witness hit them
};

/// The RTCC_STREAM=1 body of report::analyze_trace: pushes every frame
/// of an in-memory trace through a StreamingAnalyzer. Exposed directly
/// so oracles and tests can sweep StreamOptions budgets.
[[nodiscard]] rtcc::report::CallAnalysis analyze_trace_streaming(
    const rtcc::net::Trace& trace, const rtcc::filter::FilterConfig& fcfg,
    const rtcc::report::AnalysisOptions& opts = {},
    const StreamOptions& sopts = stream_options_from_env(),
    std::vector<rtcc::report::CallAnalysis>* per_stream = nullptr);

}  // namespace rtcc::stream
