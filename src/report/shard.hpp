// Flow-sharded execution mode for the analysis hot path (DESIGN.md §7).
//
// The paper's per-stream analysis is embarrassingly parallel at the
// flow level: every compliance verdict is computed per 5-tuple stream.
// ShardedPipeline exploits that the way RSS NICs and VPP-class stacks
// do — a symmetric 5-tuple hash (net/flow_hash.hpp) routes each stream
// to one of N shard workers over a bounded SPSC ring
// (util/spsc_ring.hpp), and each shard owns private state: its pending
// flow table, its ScanningDpi engine and scan scratch, its compliance
// checkers. The hot path crosses threads once (the ring) and takes no
// locks and touches no shared atomics beyond the two ring indices —
// except that each worker analyzes a stream at a DPI width of the
// shard count, so a long stream's DPI chunks fan out to the shared
// pool and join before the worker goes on (ScanningDpi::analyze_batch).
//
// Determinism: per-stream partials are computed by the exact same
// per-stream core as the unsharded path (report::detail), batching is
// per-stream (so node counters cannot see the shard count), and
// partials merge in fixed shard order via the existing merge() — whose
// order-insensitivity PR 5's merge-order oracle pins. Output is
// therefore bit-identical for every shard count; RTCC_SHARDS=1 runs the
// unsharded serial path, the equivalence oracle.
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "report/metrics.hpp"

namespace rtcc::report {

/// Hard ceiling on shard workers (memory per shard is one ring plus
/// pending batches; 64 is far above any plausible core count here).
inline constexpr std::size_t kMaxShards = 64;

/// Sentinel for "resolve from the machine": stored when RTCC_SHARDS is
/// unset or "auto".
inline constexpr std::size_t kAutoShards = 0;

/// Effective shard count: the configured value, or (when auto) the
/// hardware concurrency clamped to [1, kMaxShards]. Always >= 1.
[[nodiscard]] std::size_t shard_count();

/// Raw configured value; kAutoShards (0) means auto. Guards save this,
/// not the resolved count, so auto stays auto across a guard.
[[nodiscard]] std::size_t configured_shard_count();

/// Sets the knob (0 = auto) and returns the resolved effective count.
/// Values above kMaxShards clamp.
std::size_t set_shard_count(std::size_t count);

/// Shard count one analysis runs with: `opts.shards` when set, else
/// shard_count(). 1 means the serial, unsharded path.
[[nodiscard]] std::size_t effective_shards(const AnalysisOptions& opts);

/// RAII pin for tests/benches.
class ShardModeGuard {
 public:
  explicit ShardModeGuard(std::size_t count)
      : previous_(configured_shard_count()) {
    set_shard_count(count);
  }
  ~ShardModeGuard() { set_shard_count(previous_); }
  ShardModeGuard(const ShardModeGuard&) = delete;
  ShardModeGuard& operator=(const ShardModeGuard&) = delete;

 private:
  std::size_t previous_;
};

/// N shard workers behind per-shard SPSC rings. Single-producer: one
/// thread (the caller) decodes streams into PacketBatch chunks and
/// submits them; whole streams are routed by flow hash, so a shard
/// sees every chunk of each stream it owns, accumulates them in its
/// private pending table, and runs DPI + compliance when the last
/// chunk arrives. The pipeline is reusable across many traces (the
/// sharded corpus keeps one alive for the whole run).
class ShardedPipeline {
 public:
  struct Options {
    std::size_t shards = 2;
    /// Ring slots per shard (rounded up to a power of two). Sized so a
    /// burst of chunks for one shard doesn't stall the producer, while
    /// bounding in-flight memory to O(shards * depth * kBatchSize).
    std::size_t ring_depth = 64;
    rtcc::dpi::ScanOptions scan;
    rtcc::compliance::ComplianceConfig compliance;
  };

  explicit ShardedPipeline(const Options& opts);
  ~ShardedPipeline();
  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Decodes `stream` into batch-sized chunks and hands them to the
  /// owning shard, which fills `*partial` (and its own row of
  /// partial->shards) once the last chunk lands. `partial` must stay
  /// valid and untouched until finish(); `keepalive` (optional) is
  /// released by the shard after the stream is analyzed — the sharded
  /// corpus uses it to pin the trace + stream table and free its
  /// live-trace slot. Returns the shard index the stream was routed
  /// to, which callers use to merge partials in fixed shard order.
  /// Producer thread only.
  std::size_t submit_stream(const rtcc::net::Trace& trace,
                            const rtcc::net::StreamTable& table,
                            const rtcc::net::Stream& stream,
                            CallAnalysis* partial,
                            std::shared_ptr<const void> keepalive = {});

  /// Pre-decoded variant for the streaming engine: hands a whole-flow
  /// batch (already resolved payload descriptors, decode counters
  /// already booked into `*partial` by the caller) to the shard owning
  /// `key`, chunked by kBatchSize so the shard's handoff accounting
  /// is byte-identical to submit_stream's. `keepalive` must pin the
  /// payload bytes the batch views. The shard writes `*partial` before
  /// it releases the keepalive and never touches it after, so a caller
  /// that observes the release may read or free the partial before
  /// finish(). Producer thread only.
  std::size_t submit_batch(const rtcc::net::FlowKey& key,
                           const rtcc::net::PacketBatch& batch,
                           CallAnalysis* partial,
                           std::shared_ptr<const void> keepalive = {});

  /// Closes every ring, joins the workers, and rethrows the first
  /// worker exception, if any. Idempotent; called by the destructor
  /// (which swallows exceptions) if the caller didn't.
  void finish();

  [[nodiscard]] std::size_t shards() const { return workers_.size(); }

 private:
  struct WorkItem {
    std::uint64_t slot = 0;  // stream id: ties chunks together
    rtcc::net::PacketBatch batch;
    bool last = false;
    CallAnalysis* partial = nullptr;            // set on the last chunk
    std::shared_ptr<const void> keepalive;      // set on the last chunk
  };

  struct Shard;

  void worker(Shard& shard, std::size_t shard_index);

  Options opts_;
  std::vector<std::unique_ptr<Shard>> workers_;
  std::uint64_t next_slot_ = 0;
  bool finished_ = false;
};

}  // namespace rtcc::report
