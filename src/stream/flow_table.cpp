#include "stream/flow_table.hpp"

#include <algorithm>

namespace rtcc::stream {

namespace {
constexpr std::size_t kNil = FlowRecord::kNil;
}  // namespace

void FlowPayload::push(rtcc::util::BytesView bytes, double ts,
                       std::uint8_t dir, bool reasm) {
  const std::size_t n = bytes.size();
  std::vector<std::uint8_t>* slab;
  if (!slabs_ && first_.size() + n <= kSlabBytes) {
    // The first slab grows as a vector does (to the larger of twice its
    // size and what it must hold), except that a growth past one slab
    // stops at one slab.
    slab = &first_;
    const std::size_t size = first_.size();
    if (size + n > first_.capacity() &&
        std::max(2 * size, size + n) > kSlabBytes)
      first_.reserve(kSlabBytes);
  } else if (slabs_ &&
             slabs_->back().size() + n <= slabs_->back().capacity()) {
    slab = &slabs_->back();
  } else {
    // A fixed slab is reserved once and never reallocated.
    if (!slabs_)
      slabs_ = std::make_unique<std::vector<std::vector<std::uint8_t>>>();
    slab = &slabs_->emplace_back();
    slab->reserve(std::max(n, kSlabBytes));
  }
  slab->insert(slab->end(), bytes.begin(), bytes.end());
  FlowPacket& p = packets_.emplace_back();
  p.ts = ts;
  p.len = static_cast<std::uint32_t>(n);
  p.dir = dir;
  p.reasm = reasm;
}

std::size_t FlowPayload::capacity_bytes() const {
  std::size_t total = first_.capacity();
  if (slabs_)
    for (const auto& slab : *slabs_) total += slab.capacity();
  return total;
}

std::uint64_t FlowPayload::footprint() const {
  std::uint64_t stored = first_.size();
  if (slabs_)
    for (const auto& slab : *slabs_) stored += slab.size();
  return stored + packets_.size() * sizeof(FlowPacket);
}

FlowTable::Touched FlowTable::touch(const rtcc::net::FlowKey& key,
                                    double clock) {
  // Clamp to the table's monotonic high-water mark: a backwards capture
  // timestamp must not produce a last_active below an earlier touch
  // (which would silently break the LRU-order == last_active-order
  // invariant expire_idle pops by) or a negative idle delta.
  if (clock > max_clock_) max_clock_ = clock;
  clock = max_clock_;
  auto [it, inserted] = index_.try_emplace(key, kNil);
  if (!inserted) {
    if (it->second != kNil && !records_[it->second].retired) {
      FlowRecord& existing = records_[it->second];
      existing.last_active = clock;
      // Move to LRU back (most recently touched).
      unlink(it->second);
      link_back(it->second);
      return {existing, false};
    }
    // Split: the key was evicted mid-capture and came back. The frozen
    // record (if still held) keeps its ordinal; a fresh record takes
    // the key.
    ++stats_.flows_rekeyed;
  }
  std::size_t slot = records_.size();
  if (free_.empty()) {
    records_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  it->second = slot;
  FlowRecord& rec = records_[slot];
  rec.key = key;
  rec.ordinal = next_ordinal_++;
  rec.slot = slot;
  rec.last_active = clock;
  link_back(slot);
  ++live_count_;
  ++stats_.flows_seen;
  if (live_count_ > stats_.flows_live) stats_.flows_live = live_count_;
  return {rec, true};
}

void FlowTable::release(std::size_t slot) {
  FlowRecord& rec = records_[slot];
  const auto it = index_.find(rec.key);
  if (it != index_.end() && it->second == slot) it->second = kNil;
  rec = FlowRecord{};
  free_.push_back(slot);
}

std::vector<std::size_t> FlowTable::held_slots() const {
  std::vector<bool> released(records_.size(), false);
  for (const std::size_t slot : free_) released[slot] = true;
  std::vector<std::size_t> out;
  out.reserve(held_count());
  for (std::size_t slot = 0; slot < records_.size(); ++slot)
    if (!released[slot]) out.push_back(slot);
  std::sort(out.begin(), out.end(), [this](std::size_t x, std::size_t y) {
    return records_[x].ordinal < records_[y].ordinal;
  });
  return out;
}

void FlowTable::expire_idle(double clock, const EvictFn& fn) {
  if (budgets_.idle_timeout_s <= 0) return;
  if (clock > max_clock_) max_clock_ = clock;
  clock = max_clock_;
  // The LRU list is ordered by last_active (the clamp above makes the
  // effective clock non-decreasing), so expiry only ever pops from the
  // front.
  while (lru_head_ != kNil &&
         records_[lru_head_].last_active + budgets_.idle_timeout_s < clock) {
    ++stats_.evictions;
    retire(lru_head_, EvictReason::kIdle, fn);
  }
}

void FlowTable::enforce_capacity(const EvictFn& fn) {
  if (budgets_.max_flows == 0) return;
  while (live_count_ > budgets_.max_flows && lru_head_ != kNil) {
    ++stats_.evictions;
    retire(lru_head_, EvictReason::kLru, fn);
  }
}

void FlowTable::drain(const EvictFn& fn) {
  while (lru_head_ != kNil) retire(lru_head_, EvictReason::kDrain, fn);
}

void FlowTable::unlink(std::size_t i) {
  FlowRecord& rec = records_[i];
  if (rec.lru_prev != kNil)
    records_[rec.lru_prev].lru_next = rec.lru_next;
  else
    lru_head_ = rec.lru_next;
  if (rec.lru_next != kNil)
    records_[rec.lru_next].lru_prev = rec.lru_prev;
  else
    lru_tail_ = rec.lru_prev;
  rec.lru_prev = kNil;
  rec.lru_next = kNil;
}

void FlowTable::link_back(std::size_t i) {
  FlowRecord& rec = records_[i];
  rec.lru_prev = lru_tail_;
  rec.lru_next = kNil;
  if (lru_tail_ != kNil)
    records_[lru_tail_].lru_next = i;
  else
    lru_head_ = i;
  lru_tail_ = i;
}

void FlowTable::retire(std::size_t i, EvictReason reason, const EvictFn& fn) {
  unlink(i);
  FlowRecord& rec = records_[i];
  rec.retired = true;
  --live_count_;
  if (fn) fn(rec, reason);
}

}  // namespace rtcc::stream
