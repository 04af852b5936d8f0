// Bounded flow table for the streaming engine (DESIGN.md §6c).
//
// The streaming inversion keeps memory proportional to *active* flows,
// not capture size, so the table is the engine's working-set boundary:
// every datagram touches exactly one FlowRecord, records sit on an
// intrusive LRU list in touch order, and two budgets retire flows
// before end-of-capture — an idle timeout (trace-clock seconds since
// the last touch) and an LRU capacity cap. Retiring a flow hands it to
// the engine's eviction callback, which finalizes it (runs the batch
// analysis core over its buffered payloads) and releases the heavy
// state.
//
// A retired record's lightweight metadata (key, span, counts, SNI)
// stays held while the two-stage filter may still need it: until its
// verdict has been emitted and no later cross-flow evidence can change
// it. The engine then folds the record into its running aggregate and
// release()s it; the slot goes on a free list and the next new flow
// reuses it. Slot order is therefore not creation order once anything
// was released — `ordinal` (the creation counter) is the stream-table
// order the batch path would have produced.
//
// A packet arriving for an already-retired key re-opens the flow as a
// *new* record (a split): the ledger counts it in flows_rekeyed, and
// the parity oracle downgrades from byte-identity to conservation
// identities when any split occurred. The key index keeps one small
// entry per key ever seen — also for released records — so that count
// stays exact; it is the only structure that grows with flows seen.
// With the default unbounded budgets no split is possible and
// streaming == batch exactly.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "filter/pipeline.hpp"
#include "net/stream_table.hpp"
#include "report/metrics.hpp"
#include "util/bytes.hpp"

namespace rtcc::stream {

/// Why a flow left the live set.
enum class EvictReason : std::uint8_t {
  kIdle,   // idle_timeout_s elapsed since the flow's last touch
  kLru,    // capacity pressure: least-recently-touched beyond max_flows
  kDrain,  // end of capture
};

/// One buffered datagram's metadata. Its payload bytes lie whole in
/// one of the owning FlowPayload's slabs, in arrival order: right after
/// the previous datagram's bytes, or at the start of the next slab.
struct FlowPacket {
  double ts = 0.0;
  std::uint32_t len = 0;
  std::uint8_t dir = 0;  // 0 = A->B, 1 = B->A (PacketBatch convention)
  bool reasm = false;    // payload came from IPv4 reassembly
};

/// Heavy per-flow state: the payload copies the batch analysis core
/// needs at finalization (DPI's cover walk re-parses raw bytes, so they
/// must survive until the flow is analyzed). Held by shared_ptr so the
/// sharded path can pin it past eviction while the table moves on.
///
/// The bytes are stored in slabs, so a long flow never moves what it
/// holds. The first slab is a member vector that grows as one vector
/// does while it holds at most kSlabBytes, except that its last growth
/// stops at kSlabBytes; so a short flow allocates as often as a single
/// vector would. After that, each datagram that does not fit the
/// current slab opens a new one, reserved once at kSlabBytes (or at the
/// datagram's own size, if larger) and never reallocated. One growing
/// buffer would leave up to its own size in spare capacity, and every
/// outgrown copy, with malloc; slabs waste at most the unfilled tail of
/// each, and freed slabs are all one size, which malloc reuses for the
/// next flow's.
class FlowPayload {
 public:
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  /// Appends one datagram. It never straddles two slabs.
  void push(rtcc::util::BytesView bytes, double ts, std::uint8_t dir,
            bool reasm);

  /// Calls fn(packet, bytes) for every datagram, in arrival order. The
  /// views stay valid, at the same address, for the payload's lifetime:
  /// a slab that is no longer written to never moves again, and a fixed
  /// slab never moves at all.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::vector<std::uint8_t>* slab = &first_;
    std::size_t next = 0, pos = 0;
    for (const FlowPacket& p : packets_) {
      // push() opened a new slab only for a non-empty datagram that did
      // not fit, so one that overruns this slab's bytes starts the next.
      if (pos + p.len > slab->size()) {
        slab = &(*slabs_)[next++];
        pos = 0;
      }
      fn(p, rtcc::util::BytesView{slab->data() + pos, p.len});
      pos += p.len;
    }
  }

  [[nodiscard]] const std::vector<FlowPacket>& packets() const {
    return packets_;
  }
  /// Slabs holding bytes or reserved: the first plus the fixed ones.
  [[nodiscard]] std::size_t slab_count() const {
    return 1 + (slabs_ ? slabs_->size() : 0);
  }
  /// Bytes the slabs have allocated, filled or not.
  [[nodiscard]] std::size_t capacity_bytes() const;
  /// Stored payload bytes plus packet metadata (the engine's live-byte
  /// accounting; spare slab capacity is not counted).
  [[nodiscard]] std::uint64_t footprint() const;

 private:
  std::vector<std::uint8_t> first_;
  // The fixed slabs, created with the first of them. Behind a pointer,
  // the object stays 56 bytes, so with make_shared's header a short
  // flow's payload takes malloc's 80-byte chunk; held inline (80 bytes,
  // a 112-byte chunk), it measured 1.6 MB more VmHWM over 200k
  // three-datagram flows through the sharded engine.
  std::unique_ptr<std::vector<std::vector<std::uint8_t>>> slabs_;
  std::vector<FlowPacket> packets_;
};

struct FlowRecord {
  static constexpr std::size_t kNil = ~std::size_t{0};

  rtcc::net::FlowKey key;
  std::uint64_t ordinal = 0;  // creation order == stream-table order
  double first_ts = 0.0;      // min packet ts (pcap ts are not monotonic)
  double last_ts = 0.0;       // max packet ts
  double last_active = 0.0;   // monotonic clock at last touch (idle expiry)
  std::uint64_t packet_count = 0;
  std::size_t slot = 0;    // this record's index in the table's slots
  bool condemned = false;  // online keep/drop verdict: can never be kept
  bool retired = false;    // left the live set (evicted or drained)
  bool outside = false;    // span left the call window: stage 1 fails
  bool precall = false;    // first_ts precedes the call window
  // Emission state (engine epochs): whether a verdict went out, and
  // with which disposition.
  bool emitted = false;
  rtcc::filter::Disposition emitted_disposition =
      rtcc::filter::Disposition::kKept;
  std::uint8_t sni_probed = 0;      // TCP packets probed for a ClientHello
  std::optional<std::string> sni;   // first SNI seen in the probe window
  std::shared_ptr<FlowPayload> payload;  // null once condemned/finalized
  std::unique_ptr<rtcc::report::CallAnalysis> partial;  // after analysis
  /// Sharded analysis handoff: the worker publishes (release) when
  /// *partial is fully written; epoch emission loads (acquire) before
  /// reading it. Null = partial is written synchronously, ready as soon
  /// as it exists.
  std::shared_ptr<std::atomic<bool>> analysis_ready;

  // Intrusive LRU links: slot indices into FlowTable's record deque.
  std::size_t lru_prev = kNil;
  std::size_t lru_next = kNil;

  [[nodiscard]] bool udp() const {
    return key.transport == rtcc::net::Transport::kUdp;
  }
};

/// Live-flow index + held-record slots. Records never move (deque);
/// released slots are reused through a free list. Ordinal order is the
/// stream-table order the batch path would have produced, which the
/// engine's finish() replays over the records still held.
class FlowTable {
 public:
  struct Budgets {
    std::size_t max_flows = 0;   // 0 = unbounded
    double idle_timeout_s = 0.0; // 0 = never
  };

  /// Eviction callback: finalize the record (the record is already
  /// marked retired and unlinked when called).
  using EvictFn = std::function<void(FlowRecord&, EvictReason)>;

  explicit FlowTable(const Budgets& budgets) : budgets_(budgets) {}

  struct Touched {
    FlowRecord& rec;
    bool created = false;  // includes re-keyed re-creations
  };

  /// Looks up the live record for `key`, creating one if the key is
  /// unknown — or known but retired (or released), which is a split:
  /// the old record stays frozen, a fresh record takes over the key,
  /// and flows_rekeyed is incremented. `clock` stamps last_active; the
  /// table keeps its own monotonic high-water clock, so a backwards
  /// capture timestamp (reordered pcap, clock step on the capture
  /// host) can never reorder the LRU list relative to last_active or
  /// manufacture a huge idle delta — it is clamped to the high-water
  /// mark instead.
  Touched touch(const rtcc::net::FlowKey& key, double clock);

  /// Retires every live flow whose last touch is older than
  /// `idle_timeout_s` before `clock` (clamped to the high-water clock,
  /// like touch). No-op when the budget is 0.
  void expire_idle(double clock, const EvictFn& fn);

  /// Monotonic high-water mark over every clock passed to touch() /
  /// expire_idle(); -inf before the first call.
  [[nodiscard]] double high_water_clock() const { return max_clock_; }

  /// Retires least-recently-touched flows until at most `max_flows`
  /// remain live. No-op when the budget is 0.
  void enforce_capacity(const EvictFn& fn);

  /// Retires every remaining live flow (end of capture, oldest first).
  void drain(const EvictFn& fn);

  /// Frees a retired record's slot for reuse (the record must be
  /// retired: live records sit on the LRU list). The key stays known,
  /// so the key coming back still counts as a split.
  void release(std::size_t slot);

  [[nodiscard]] std::size_t live_count() const { return live_count_; }
  /// Records not yet released: live plus retired-but-held.
  [[nodiscard]] std::size_t held_count() const {
    return records_.size() - free_.size();
  }
  /// Slots of the held records, in ordinal order.
  [[nodiscard]] std::vector<std::size_t> held_slots() const;
  /// Slot storage, indexed by FlowRecord::slot. Released slots hold a
  /// default record until reused.
  [[nodiscard]] const std::deque<FlowRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::deque<FlowRecord>& records() { return records_; }
  [[nodiscard]] const rtcc::report::FlowStats& stats() const { return stats_; }
  [[nodiscard]] rtcc::report::FlowStats& stats() { return stats_; }
  [[nodiscard]] const Budgets& budgets() const { return budgets_; }

 private:
  void unlink(std::size_t i);
  void link_back(std::size_t i);
  void retire(std::size_t i, EvictReason reason, const EvictFn& fn);

  Budgets budgets_;
  std::deque<FlowRecord> records_;
  std::vector<std::size_t> free_;  // released slots, reused LIFO
  std::uint64_t next_ordinal_ = 0;
  // key -> slot of its newest record; kNil once that record is released.
  std::unordered_map<rtcc::net::FlowKey, std::size_t, rtcc::net::FlowKeyHash>
      index_;
  std::size_t lru_head_ = FlowRecord::kNil;
  std::size_t lru_tail_ = FlowRecord::kNil;
  std::size_t live_count_ = 0;
  double max_clock_ = -std::numeric_limits<double>::infinity();
  rtcc::report::FlowStats stats_;
};

}  // namespace rtcc::stream
