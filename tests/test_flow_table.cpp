// stream/flow_table.hpp: the streaming engine's working-set boundary.
// Under test: LRU/idle eviction order at the budget edges (capacity 1,
// re-touch reordering, idle expiry by trace clock), the rekey/split
// ledger identity (records created = distinct keys + rekeys), drain
// semantics (every live flow retired, none counted as an eviction),
// the FlowPayload slab layout (byte-exact, pointer-stable views at the
// slab edges, bounded spare capacity, short flows allocating as one
// vector), and — at the engine level — eviction landing while a
// sharded chunk is still in flight, where the conservation identities
// must hold against the batch reference, and multi-slab flows matching
// the batch path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "emul/app_model.hpp"
#include "emul/group_call.hpp"
#include "net/address.hpp"
#include "net/stream_table.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "stream/engine.hpp"
#include "stream/flow_table.hpp"
#include "stream/stream_mode.hpp"
#include "util/rng.hpp"

namespace {

namespace emul = rtcc::emul;
namespace report = rtcc::report;
namespace stream = rtcc::stream;
using rtcc::net::FlowKey;
using rtcc::net::IpAddr;
using rtcc::util::BytesView;
using stream::EvictReason;
using stream::FlowPayload;
using stream::FlowTable;

FlowKey key_n(std::uint16_t n) {
  FlowKey k;
  k.a = IpAddr::v4(10, 0, 0, 1);
  k.a_port = static_cast<std::uint16_t>(40000 + n);
  k.b = IpAddr::v4(203, 0, 113, 7);
  k.b_port = static_cast<std::uint16_t>(20000 + n);
  return k;
}

/// Eviction log: (record ordinal, reason) in callback order.
using Evictions = std::vector<std::pair<std::uint64_t, EvictReason>>;

FlowTable::EvictFn log_to(Evictions& log) {
  return [&log](stream::FlowRecord& rec, EvictReason reason) {
    log.emplace_back(rec.ordinal, reason);
  };
}

TEST(FlowTable, CapacityOneEvictsPreviousFlowOnEachNewKey) {
  FlowTable table({.max_flows = 1});
  Evictions log;
  const auto evict = log_to(log);

  for (std::uint16_t n = 0; n < 3; ++n) {
    const auto t = table.touch(key_n(n), /*clock=*/n * 1.0);
    EXPECT_TRUE(t.created);
    table.enforce_capacity(evict);
    EXPECT_EQ(table.live_count(), 1u);
  }
  // Each new key displaced exactly the previous one, in order.
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], (std::pair<std::uint64_t, EvictReason>{0, EvictReason::kLru}));
  EXPECT_EQ(log[1], (std::pair<std::uint64_t, EvictReason>{1, EvictReason::kLru}));
  EXPECT_EQ(table.stats().flows_seen, 3u);
  // The peak includes the transient between touch and enforce_capacity
  // (the engine's own call order): cap + 1, never more.
  EXPECT_EQ(table.stats().flows_live, 2u);
  EXPECT_EQ(table.stats().evictions, 2u);
  EXPECT_EQ(table.stats().flows_rekeyed, 0u);
}

TEST(FlowTable, RetouchMovesFlowToLruBack) {
  FlowTable table({.max_flows = 1});
  Evictions log;

  (void)table.touch(key_n(0), 0.0);
  (void)table.touch(key_n(1), 1.0);
  // Re-touch 0: it becomes most-recent, so capacity pressure must
  // evict 1 even though 0 was created first.
  const auto t = table.touch(key_n(0), 2.0);
  EXPECT_FALSE(t.created);
  table.enforce_capacity(log_to(log));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].first, 1u);
  EXPECT_EQ(log[0].second, EvictReason::kLru);
  EXPECT_FALSE(table.records()[0].retired);
  EXPECT_TRUE(table.records()[1].retired);
}

TEST(FlowTable, IdleExpiryRetiresOnlyFlowsPastTimeout) {
  FlowTable table({.idle_timeout_s = 1.0});
  Evictions log;
  const auto evict = log_to(log);

  (void)table.touch(key_n(0), 0.0);
  (void)table.touch(key_n(1), 5.0);
  table.expire_idle(/*clock=*/5.5, evict);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair<std::uint64_t, EvictReason>{0, EvictReason::kIdle}));
  EXPECT_EQ(table.live_count(), 1u);
  // Exactly at the boundary (last_active + timeout == clock) is not yet
  // idle; one tick past it is.
  table.expire_idle(6.0, evict);
  EXPECT_EQ(log.size(), 1u);
  table.expire_idle(6.0 + 1e-9, evict);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1].first, 1u);
  EXPECT_EQ(table.live_count(), 0u);
  EXPECT_EQ(table.stats().evictions, 2u);
}

// Regression: capture timestamps are not monotonic (reordered pcaps,
// clock steps on the capture host). The table keeps its own high-water
// clock, so a backwards ts can neither reorder the LRU list relative to
// last_active (which would strand expired flows behind a fresher front
// record forever) nor evict a just-touched flow through a stale clock.
TEST(FlowTable, BackwardsTimestampCannotReorderLruOrStrandFlows) {
  FlowTable table({.idle_timeout_s = 1.0});
  Evictions log;
  const auto evict = log_to(log);

  (void)table.touch(key_n(0), 10.0);
  // Backwards ts: without the clamp this would stamp last_active = 3
  // at the LRU *back*, behind flow 0's 10 at the front — and the
  // front-pop expiry loop would then stop at flow 0 while flow 1 sat
  // expired behind it.
  (void)table.touch(key_n(1), 3.0);
  EXPECT_EQ(table.high_water_clock(), 10.0);

  table.expire_idle(11.5, evict);
  ASSERT_EQ(log.size(), 2u) << "both flows idle since the 10.0 high-water";
  EXPECT_EQ(log[0].first, 0u);
  EXPECT_EQ(log[1].first, 1u) << "clamped flow must not be stranded";
  EXPECT_EQ(table.live_count(), 0u);
}

TEST(FlowTable, BackwardsClockPassedToExpiryNeverEvictsFreshFlows) {
  FlowTable table({.idle_timeout_s = 1.0});
  Evictions log;

  (void)table.touch(key_n(0), 100.0);
  // A stale clock fed to expiry (e.g. a reordered frame driving the
  // engine) clamps to the 100.0 high-water: the flow was touched "now",
  // so nothing is idle — and nothing can compute a negative (or, in an
  // unsigned caller, enormous) idle delta.
  table.expire_idle(5.0, log_to(log));
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(table.live_count(), 1u);
  EXPECT_EQ(table.high_water_clock(), 100.0);

  // Forward progress resumes from the high-water mark, not the stale
  // clock: one tick past 101 retires the flow.
  table.expire_idle(101.0 + 1e-9, log_to(log));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].second, EvictReason::kIdle);
}

TEST(FlowTable, RekeyedFlowSatisfiesLedgerIdentity) {
  FlowTable table({.max_flows = 1});
  Evictions log;
  const auto evict = log_to(log);

  (void)table.touch(key_n(0), 0.0);
  (void)table.touch(key_n(1), 1.0);
  table.enforce_capacity(evict);  // retires key 0
  const auto again = table.touch(key_n(0), 2.0);
  // A retired key coming back is a split: a *new* record, not a revival
  // of the frozen one.
  EXPECT_TRUE(again.created);
  EXPECT_EQ(again.rec.ordinal, 2u);
  EXPECT_EQ(again.rec.key, key_n(0));
  EXPECT_TRUE(table.records()[0].retired);
  EXPECT_FALSE(table.records()[2].retired);

  // Ledger identity the parity oracle relies on: records created ==
  // distinct keys + rekeys.
  std::set<std::string> distinct;
  for (const auto& rec : table.records()) distinct.insert(rec.key.to_string());
  EXPECT_EQ(table.stats().flows_rekeyed, 1u);
  EXPECT_EQ(table.records().size(),
            distinct.size() + table.stats().flows_rekeyed);
  EXPECT_EQ(table.stats().flows_seen, table.records().size());
}

TEST(FlowTable, DrainRetiresAllOldestFirstWithoutCountingEvictions) {
  FlowTable table({});  // unbounded: nothing retires before drain
  Evictions log;

  for (std::uint16_t n = 0; n < 4; ++n)
    (void)table.touch(key_n(n), n * 1.0);
  table.expire_idle(100.0, log_to(log));
  table.enforce_capacity(log_to(log));
  EXPECT_TRUE(log.empty()) << "zero budgets must never evict";
  EXPECT_EQ(table.live_count(), 4u);

  table.drain(log_to(log));
  ASSERT_EQ(log.size(), 4u);
  for (std::uint64_t n = 0; n < 4; ++n) {
    EXPECT_EQ(log[n].first, n) << "drain must replay touch order";
    EXPECT_EQ(log[n].second, EvictReason::kDrain);
  }
  EXPECT_EQ(table.live_count(), 0u);
  // End-of-capture retirement is not memory pressure: the evictions
  // counter (and so the report diagnostic) stays at zero.
  EXPECT_EQ(table.stats().evictions, 0u);
  EXPECT_EQ(table.stats().flows_live, 4u);
}

// ---- Engine level: eviction racing an in-flight sharded chunk -----------

/// Conference call with enough concurrent RTC flows that max_flows=1
/// forces evictions while the sharded pipeline still holds submitted
/// chunks of the evicted flows' payloads.
emul::GroupCall many_stream_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_group_call(cfg);
}

TEST(StreamingEviction, ShardedInFlightChunksSurviveEviction) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);

  const stream::StreamModeGuard batch_ref(false);
  report::AnalysisOptions opts;
  opts.shards = 4;
  const auto ref = report::analyze_trace(call.trace, fcfg, opts);

  // Interleaved senders + capacity 1 = every flow is evicted and
  // re-keyed many times, each eviction handing a payload chunk to a
  // shard worker that may still be running when the next split lands.
  const stream::StreamOptions tight{.max_flows = 1};
  const auto got =
      stream::analyze_trace_streaming(call.trace, fcfg, opts, tight);

  EXPECT_GT(got.flows.evictions, 0u) << "budget never bound — test inert";
  EXPECT_GT(got.flows.flows_rekeyed, 0u);

  // Splits forfeit byte-identity but never bytes: the volume totals and
  // the flow ledger must balance exactly.
  EXPECT_EQ(got.raw_bytes, ref.raw_bytes);
  EXPECT_EQ(got.raw_udp_datagrams, ref.raw_udp_datagrams);
  EXPECT_EQ(got.raw_tcp_segments, ref.raw_tcp_segments);
  const auto stage_packets = [](const report::CallAnalysis& a, bool udp) {
    return udp ? a.stage1_udp.packets + a.stage2_udp.packets +
                     a.rtc_udp.packets
               : a.stage1_tcp.packets + a.stage2_tcp.packets +
                     a.rtc_tcp.packets;
  };
  EXPECT_EQ(stage_packets(got, true), stage_packets(ref, true));
  EXPECT_EQ(stage_packets(got, false), stage_packets(ref, false));
  EXPECT_EQ(got.flows.flows_seen,
            got.raw_udp_streams + got.raw_tcp_streams);
  EXPECT_EQ(got.raw_udp_streams + got.raw_tcp_streams,
            ref.raw_udp_streams + ref.raw_tcp_streams +
                got.flows.flows_rekeyed);
}

TEST(StreamingEviction, UnboundedShardedStreamingMatchesBatch) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);

  const stream::StreamModeGuard batch_ref(false);
  report::AnalysisOptions opts;
  opts.shards = 4;
  const auto strip = [](report::CallAnalysis a) {
    a.shards.clear();
    a.flows = {};
    return report::to_json(a);
  };
  const auto ref_json = strip(report::analyze_trace(call.trace, fcfg, opts));
  const auto got =
      stream::analyze_trace_streaming(call.trace, fcfg, opts, {});
  EXPECT_EQ(got.flows.flows_rekeyed, 0u)
      << "unbounded budgets must never split";
  EXPECT_EQ(strip(got), ref_json);
}

// ---- FlowPayload slab layout ----

constexpr std::size_t kSlab = FlowPayload::kSlabBytes;

/// Byte i of datagram d: distinct enough that a view shifted by a byte
/// or pointing into the wrong datagram reads wrong.
std::uint8_t byte_of(std::size_t d, std::size_t i) {
  return static_cast<std::uint8_t>(d * 131 + i * 7 + 1);
}

/// A FlowPayload fed datagram by datagram, remembering only lengths.
struct SlabbedFlow {
  FlowPayload payload;
  std::vector<std::size_t> lens;
  std::uint64_t stored = 0;

  void push(std::size_t len) {
    std::vector<std::uint8_t> b(len);
    for (std::size_t i = 0; i < len; ++i) b[i] = byte_of(lens.size(), i);
    payload.push(BytesView{b}, static_cast<double>(lens.size()),
                 static_cast<std::uint8_t>(lens.size() & 1),
                 lens.size() % 3 == 0);
    lens.push_back(len);
    stored += len;
  }

  [[nodiscard]] std::vector<BytesView> views() const {
    std::vector<BytesView> out;
    payload.for_each(
        [&](const stream::FlowPacket&, BytesView v) { out.push_back(v); });
    return out;
  }

  /// Every view holds exactly the bytes pushed, with their metadata, in
  /// order, and the footprint counts stored bytes only.
  void expect_round_trip() const {
    std::size_t d = 0;
    payload.for_each([&](const stream::FlowPacket& p, BytesView v) {
      ASSERT_LT(d, lens.size());
      EXPECT_EQ(p.len, lens[d]) << d;
      EXPECT_EQ(p.ts, static_cast<double>(d)) << d;
      EXPECT_EQ(p.dir, d & 1) << d;
      EXPECT_EQ(p.reasm, d % 3 == 0) << d;
      ASSERT_EQ(v.size(), lens[d]) << d;
      for (std::size_t i = 0; i < v.size(); ++i)
        if (v[i] != byte_of(d, i)) {
          ADD_FAILURE() << "datagram " << d << " byte " << i;
          break;
        }
      ++d;
    });
    EXPECT_EQ(d, lens.size());
    EXPECT_EQ(payload.footprint(),
              stored + lens.size() * sizeof(stream::FlowPacket));
  }
};

TEST(FlowPayload, SlabsFilledExactlyAndOneByteOver) {
  SlabbedFlow f;
  f.push(1000);
  f.push(kSlab - 1000);  // the first slab is exactly full
  EXPECT_EQ(f.payload.slab_count(), 1u);
  EXPECT_EQ(f.payload.capacity_bytes(), kSlab);
  f.push(1);  // one byte over: a fixed slab opens
  EXPECT_EQ(f.payload.slab_count(), 2u);
  f.push(kSlab - 2);
  f.push(1);  // the fixed slab is exactly full
  EXPECT_EQ(f.payload.slab_count(), 2u);
  f.push(1);
  EXPECT_EQ(f.payload.slab_count(), 3u);
  EXPECT_EQ(f.payload.capacity_bytes(), 3 * kSlab);
  f.expect_round_trip();
}

TEST(FlowPayload, ZeroLengthDatagramsAtSlabBoundaries) {
  SlabbedFlow f;
  f.push(0);  // a flow may open with an empty datagram
  f.push(kSlab);
  f.push(0);  // the first slab is full; empty datagrams still fit
  f.push(0);
  EXPECT_EQ(f.payload.slab_count(), 1u);
  f.push(5);
  f.push(0);
  f.push(kSlab - 5);
  f.push(0);  // the fixed slab is full
  EXPECT_EQ(f.payload.slab_count(), 2u);
  f.push(7);
  f.push(0);
  EXPECT_EQ(f.payload.slab_count(), 3u);
  f.expect_round_trip();
  // An empty datagram at a boundary does not shift the next one's view.
  const auto v = f.views();
  EXPECT_EQ(v[4].data() + 5, v[6].data());
  EXPECT_EQ(v[8].data() + 7, v[9].data());
}

TEST(FlowPayload, LargestUdpAndOversizeDatagrams) {
  constexpr std::size_t kMaxUdp = 65507;  // IPv4's largest UDP payload
  SlabbedFlow f;
  f.push(kMaxUdp);
  EXPECT_EQ(f.payload.slab_count(), 1u);
  f.push(kMaxUdp);  // does not fit the first slab's remaining 29 bytes
  EXPECT_EQ(f.payload.slab_count(), 2u);
  const std::size_t before = f.payload.capacity_bytes();
  f.push(kSlab + 4464);  // larger than a slab: a slab of its own size
  EXPECT_EQ(f.payload.slab_count(), 3u);
  EXPECT_EQ(f.payload.capacity_bytes(), before + kSlab + 4464);
  f.push(10);  // the oversize slab is full
  EXPECT_EQ(f.payload.slab_count(), 4u);
  f.expect_round_trip();
}

TEST(FlowPayload, LongFlowStaysWithinOneSlabOfItsBytes) {
  // 10 MB flows of 1,024-byte datagrams (which tile a slab) and of
  // 1,200-byte ones (which leave 65,536 mod 1,200 = 736 bytes unfilled
  // at the end of the first slab and of every closed fixed slab: a
  // datagram never straddles two slabs). Spare capacity stays within
  // one slab plus those tails, and views taken early keep their address
  // as the flow grows.
  for (const std::size_t len : {std::size_t{1024}, std::size_t{1200}}) {
    SCOPED_TRACE("len=" + std::to_string(len));

    SlabbedFlow f;
    std::vector<BytesView> early;
    while (f.stored < 10'000'000) {
      f.push(len);
      if (early.empty() && f.payload.slab_count() == 3) early = f.views();
    }
    ASSERT_FALSE(early.empty());
    const auto late = f.views();
    for (std::size_t d = 0; d < early.size(); ++d)
      ASSERT_EQ(early[d].data(), late[d].data()) << d;

    const std::size_t closed = f.payload.slab_count() - 1;
    EXPECT_LE(f.payload.capacity_bytes(),
              f.stored + kSlab + closed * (kSlab % len));
    f.expect_round_trip();
  }
}

TEST(FlowPayload, ShortFlowAllocatesAsOneVector) {
  // Under one slab the payload is one vector grown by the same inserts,
  // reallocating exactly when a plain vector does, to the same capacity
  // capped at one slab. The daemon's 3 x 160 B churn flows are the
  // first case; the second's last growth would pass one slab.
  rtcc::util::Rng rng(0x51ab);
  std::vector<std::vector<std::size_t>> flows = {{160, 160, 160}};
  std::vector<std::size_t> mixed;
  for (std::size_t total = 0;;) {
    const std::size_t len = rng.below(1400);
    if (total + len > kSlab) break;
    mixed.push_back(len);
    total += len;
  }
  flows.push_back(mixed);
  for (const auto& lens : flows) {
    SlabbedFlow f;
    std::vector<std::uint8_t> one;
    for (const std::size_t len : lens) {
      f.push(len);
      one.insert(one.end(), len, 0);
      ASSERT_EQ(f.payload.slab_count(), 1u);
      ASSERT_EQ(f.payload.capacity_bytes(), std::min(one.capacity(), kSlab));
    }
    f.expect_round_trip();
    if (lens.size() > 3) {
      EXPECT_GT(one.capacity(), kSlab) << "cap untested";
    }
  }
}

TEST(StreamingEviction, MultiSlabFlowsMatchBatch) {
  // Relay media long enough that the main flows span several slabs,
  // analyzed on the engine's own thread and through shard workers (whose
  // keepalives pin the slabbed payloads): the report must equal the
  // batch path's.
  emul::CallConfig cfg;
  cfg.app = emul::AppId::kZoom;
  cfg.network = emul::NetworkSetup::kWifiRelay;
  cfg.pre_call_s = 2.0;
  cfg.call_s = 20.0;
  cfg.post_call_s = 2.0;
  cfg.media_scale = 0.3;
  const auto call = emul::emulate_call(cfg);
  const auto fcfg = emul::filter_config_for(call);

  std::uint64_t largest = 0;
  for (const auto& st : rtcc::net::group_streams(call.trace).streams)
    largest = std::max(largest, st.total_payload_bytes());
  ASSERT_GE(largest, 3 * kSlab) << "no flow spans three slabs — test inert";

  const stream::StreamModeGuard batch_ref(false);
  const auto strip = [](report::CallAnalysis a) {
    a.shards.clear();
    a.flows = {};
    return report::to_json(a);
  };
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    report::AnalysisOptions opts;
    opts.shards = width;
    const auto got =
        stream::analyze_trace_streaming(call.trace, fcfg, opts, {});
    EXPECT_EQ(strip(got), strip(report::analyze_trace(call.trace, fcfg, opts)));
  }
}

}  // namespace
