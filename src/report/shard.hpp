// The streaming engine's asynchronous analysis hand-off (DESIGN.md
// §6c).
//
// The paper's per-stream analysis is embarrassingly parallel at the
// flow level: every compliance verdict is computed per 5-tuple stream.
// When the engine (stream/engine.hpp) retires a flow it must not wait
// for that flow's DPI, so it hands the whole-flow batch to
// ShardedPipeline the way RSS NICs and VPP-class stacks do — a
// symmetric 5-tuple hash (net/flow_hash.hpp) routes each flow to one of
// N shard workers over a bounded SPSC ring (util/spsc_ring.hpp), and
// each shard owns private state: its pending flow table, its
// ScanningDpi engine and scan scratch, its compliance checkers. The hot
// path crosses threads once (the ring) and takes no locks and touches
// no shared atomics beyond the two ring indices — except that each
// worker analyzes a flow at a DPI width of the shard count, so a long
// flow's DPI chunks fan out to the shared pool and join before the
// worker goes on (ScanningDpi::analyze_batch).
//
// Determinism: per-flow partials are computed by the same per-stream
// core as batch analysis (report::detail), and merge() is
// order-insensitive, so output is bit-identical for every shard count
// except the diagnostic "shards" rows. Batch analysis does not use this
// class: its streams run as tasks on util::ThreadPool::shared().
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "report/metrics.hpp"

namespace rtcc::report {

/// N shard workers behind per-shard SPSC rings. Single-producer: one
/// thread (the engine) submits whole-flow batches in PacketBatch
/// chunks; whole flows are routed by flow hash, so a shard sees every
/// chunk of each flow it owns, accumulates them in its private pending
/// table, and runs DPI + compliance when the last chunk arrives. The
/// pipeline lives as long as the engine, across many captures.
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

  /// Hands a whole-flow batch (already resolved payload descriptors,
  /// decode counters already booked into `*partial` by the caller) to
  /// the shard owning `key`, chunked by kBatchSize; that shard fills
  /// `*partial` (and its own row of partial->shards) once the last
  /// chunk lands. `keepalive` must pin the payload bytes the batch
  /// views. The shard writes `*partial` before it releases the
  /// keepalive and never touches it after, so a caller that observes
  /// the release may read or free the partial before finish(). Returns
  /// the shard index the flow was routed to. Producer thread only.
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
    std::uint64_t slot = 0;  // flow id: ties chunks together
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
