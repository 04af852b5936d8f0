#include "report/shard.hpp"

#include <algorithm>
#include <exception>
#include <unordered_map>

#include "net/flow_hash.hpp"
#include "util/spsc_ring.hpp"

namespace rtcc::report {

/// One worker's world: its ring, its thread, and the first exception it
/// hit. Heap-allocated so the vector of shards never relocates a live
/// ring.
struct ShardedPipeline::Shard {
  explicit Shard(std::size_t depth) : ring(depth) {}
  rtcc::util::SpscRing<WorkItem> ring;
  std::thread thread;
  std::exception_ptr error;
};

ShardedPipeline::ShardedPipeline(const Options& opts) : opts_(opts) {
  const std::size_t n =
      std::clamp<std::size_t>(opts.shards, 1, kMaxShards);
  const std::size_t depth = std::max<std::size_t>(2, opts.ring_depth);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Shard>(depth));
  for (std::size_t i = 0; i < n; ++i)
    workers_[i]->thread =
        std::thread([this, i] { worker(*workers_[i], i); });
}

ShardedPipeline::~ShardedPipeline() {
  // Swallow worker exceptions on the destructor path (the caller
  // already gave up on the result, likely during unwind).
  try {
    finish();
  } catch (...) {
  }
}

std::size_t ShardedPipeline::submit_batch(
    const rtcc::net::FlowKey& key, const rtcc::net::PacketBatch& batch,
    CallAnalysis* partial, std::shared_ptr<const void> keepalive) {
  const std::size_t target = rtcc::net::shard_of(key, workers_.size());
  auto& ring = workers_[target]->ring;
  constexpr std::size_t bsz = rtcc::net::kBatchSize;
  const std::size_t n = batch.size();
  const std::uint64_t slot = next_slot_++;

  if (n == 0) {
    WorkItem item;
    item.slot = slot;
    item.last = true;
    item.partial = partial;
    item.keepalive = std::move(keepalive);
    ring.push(std::move(item));
    return target;
  }

  for (std::size_t base = 0; base < n; base += bsz) {
    const std::size_t end = std::min(n, base + bsz);
    WorkItem item;
    item.slot = slot;
    item.batch.reserve(end - base);
    for (std::size_t i = base; i < end; ++i)
      item.batch.push(batch.payload(i), batch.ts[i], batch.dir[i]);
    item.last = end == n;
    if (item.last) {
      item.partial = partial;
      item.keepalive = std::move(keepalive);
    }
    ring.push(std::move(item));
  }
  return target;
}

void ShardedPipeline::worker(Shard& shard, std::size_t shard_index) {
  // Private flow table: flow slot -> accumulated whole-flow batch. DPI
  // validation (SSRC continuity, support tables) and the two-phase
  // compliance checker are stream-stateful, so a flow is analyzed only
  // once its last chunk arrives — by the exact same core as batch
  // analysis, which is what makes output shard-count-invariant.
  struct PendingStream {
    rtcc::net::PacketBatch batch;
    std::uint64_t vectors = 0;
    std::uint64_t payload_bytes = 0;
  };
  const rtcc::dpi::ScanningDpi engine(opts_.scan);
  std::unordered_map<std::uint64_t, PendingStream> pending;

  WorkItem item;
  try {
    while (shard.ring.pop(item)) {
      PendingStream& p = pending[item.slot];
      ++p.vectors;
      const std::size_t n = item.batch.size();
      // Geometric growth: an exact reserve per item would copy the
      // flow's whole accumulated batch on every one of its items.
      const std::size_t need = p.batch.size() + n;
      if (p.batch.data.capacity() < need)
        p.batch.reserve(std::max(need, 2 * p.batch.data.capacity()));
      for (std::size_t i = 0; i < n; ++i) {
        p.batch.push(item.batch.payload(i), item.batch.ts[i],
                     item.batch.dir[i]);
        p.payload_bytes += item.batch.len[i];
      }
      if (!item.last) continue;

      CallAnalysis& part = *item.partial;
      detail::analyze_stream_batch(engine, opts_.compliance, p.batch, part,
                                   workers_.size());
      part.shards.resize(workers_.size());
      ShardStat& row = part.shards[shard_index];
      row.streams += 1;
      row.handoff_vectors += p.vectors;
      row.datagrams += p.batch.size();
      row.payload_bytes += p.payload_bytes;
      row.messages += part.dpi_messages;
      pending.erase(item.slot);
      // Reset the item *after* the analysis: its keepalive may pin the
      // trace bytes the batch views point into.
      item = WorkItem{};
    }
  } catch (...) {
    shard.error = std::current_exception();
    // Keep draining so the producer can't wedge on a full ring; the
    // dropped items' keepalives are released as they're overwritten.
    while (shard.ring.pop(item)) item = WorkItem{};
  }
}

void ShardedPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& w : workers_) w->ring.close();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  for (auto& w : workers_)
    if (w->error) std::rethrow_exception(w->error);
}

}  // namespace rtcc::report
