// Unit tests for the metamorphic conformance layer (testkit::meta):
// transform mechanics, oracle sensitivity (each oracle must be able to
// FAIL on a tampered input, or a green run proves nothing), and a
// scaled-down end-to-end driver run.
#include <gtest/gtest.h>

#include <set>

#include "emul/app_model.hpp"
#include "net/pcap.hpp"
#include "testkit/meta.hpp"
#include "testkit/seeds.hpp"
#include "util/rng.hpp"

namespace {

using namespace rtcc::testkit::meta;
using rtcc::net::Trace;
using rtcc::util::Bytes;
using rtcc::util::BytesView;

std::vector<Bytes> rtp_corpus() {
  rtcc::util::Rng rng(42);
  return rtcc::testkit::make_seed_stream(rtcc::testkit::SeedFamily::kRtp, rng,
                                         8)
      .datagrams;
}

rtcc::emul::EmulatedCall small_call(std::uint64_t seed = 11) {
  rtcc::emul::CallConfig cfg;
  cfg.app = rtcc::emul::AppId::kZoom;
  cfg.pre_call_s = 5;
  cfg.call_s = 20;
  cfg.post_call_s = 5;
  cfg.media_scale = 0.01;
  cfg.seed = seed;
  return rtcc::emul::emulate_call(cfg);
}

TEST(MetaCatalogue, HasAllTransformsWithUniqueNames) {
  const auto& cat = transform_catalogue();
  EXPECT_GE(cat.size(), 8u);  // ISSUE acceptance: >= 8 distinct transforms
  std::set<std::string> names;
  for (const auto& t : cat) {
    EXPECT_TRUE(names.insert(t.name).second) << "duplicate " << t.name;
    EXPECT_EQ(find_transform(t.name), &t);
  }
  EXPECT_EQ(find_transform("no-such-transform"), nullptr);
}

TEST(MetaCatalogue, ChainsResolveAndCoverFiveCompositions) {
  const auto& chains = default_chains();
  EXPECT_GE(chains.size(), 5u);
  for (const auto& chain : chains) {
    EXPECT_GE(chain.size(), 2u);
    for (const auto& step : chain)
      EXPECT_NE(find_transform(step), nullptr) << step;
  }
}

TEST(MetaCorpus, WrappedStreamSurvivesTheFilter) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  const auto a = analyze_case(trace, corpus_filter_config());
  EXPECT_EQ(a.merged.rtc_udp.streams, 1u);
  EXPECT_EQ(a.merged.rtc_udp.packets, 8u);
  EXPECT_EQ(a.merged.raw_udp_datagrams, 8u);
}

TEST(MetaTransforms, EverySingleTransformPreservesVerdictsOnCorpusCase) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  const auto cfg = corpus_filter_config();
  const auto base = analyze_case(trace, cfg);
  for (const auto& t : transform_catalogue()) {
    const TransformResult r = t.apply(trace, cfg);
    ASSERT_TRUE(r.applicable) << t.name;
    const auto ta = analyze_case(r.trace, r.cfg);
    EXPECT_EQ(check_verdict_invariance(base, ta, t.name), std::nullopt);
    EXPECT_EQ(check_ingest_ledger(base.merged, ta.merged, r, r.trace.size()),
              std::nullopt)
        << t.name;
  }
}

TEST(MetaTransforms, FragmentSplitsLargeDatagramsAndLedgerPredicts) {
  // 100-byte payloads comfortably clear the fragmentation threshold.
  std::vector<Bytes> datagrams(6, Bytes(100, 0xAB));
  const Trace trace = trace_from_datagrams(datagrams);
  const auto cfg = corpus_filter_config();
  const TransformResult r = find_transform("fragment")->apply(trace, cfg);
  ASSERT_TRUE(r.applicable);
  EXPECT_EQ(r.frag_datagrams, 6u);
  EXPECT_EQ(r.frag_frames, 12u);
  EXPECT_EQ(r.trace.size(), 12u);

  const auto base = analyze_case(trace, cfg);
  const auto ta = analyze_case(r.trace, r.cfg);
  // Datagram-level counts are invariant; the ledger records the split.
  EXPECT_EQ(ta.merged.raw_udp_datagrams, base.merged.raw_udp_datagrams);
  EXPECT_EQ(ta.merged.ingest.fragments_seen, 12u);
  EXPECT_EQ(ta.merged.ingest.fragments_reassembled, 6u);
  EXPECT_EQ(check_verdict_invariance(base, ta, "fragment"), std::nullopt);
}

TEST(MetaTransforms, VlanAndQinqCountOneStripPerFrame) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  const auto cfg = corpus_filter_config();
  for (const char* name : {"vlan", "qinq"}) {
    const TransformResult r = find_transform(name)->apply(trace, cfg);
    ASSERT_TRUE(r.applicable) << name;
    EXPECT_EQ(r.tagged, trace.size()) << name;
    const auto ta = analyze_case(r.trace, r.cfg);
    // vlan_stripped increments once per frame however deep the stack.
    EXPECT_EQ(ta.merged.ingest.vlan_stripped, trace.size()) << name;
  }
}

TEST(MetaTransforms, TimeShiftMovesTraceAndScheduleTogether) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  const auto cfg = corpus_filter_config();
  const TransformResult r = find_transform("time-shift")->apply(trace, cfg);
  ASSERT_TRUE(r.applicable);
  EXPECT_EQ(r.cfg.schedule.call_start, cfg.schedule.call_start + 4096.0);
  EXPECT_EQ(r.cfg.schedule.capture_end, cfg.schedule.capture_end + 4096.0);
  EXPECT_EQ(r.trace.frames()[0].ts, trace.frames()[0].ts + 4096.0);
  const auto base = analyze_case(trace, cfg);
  const auto ta = analyze_case(r.trace, r.cfg);
  EXPECT_EQ(base.signature, ta.signature);
}

TEST(MetaTransforms, RenumberMapsDevicesConsistently) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  const auto cfg = corpus_filter_config();
  const TransformResult r = find_transform("renumber")->apply(trace, cfg);
  ASSERT_TRUE(r.applicable);
  ASSERT_EQ(r.cfg.device_ips.size(), 1u);
  EXPECT_EQ(r.cfg.device_ips[0], rtcc::net::IpAddr::v4(192, 168, 1, 13));
  const auto base = analyze_case(trace, cfg);
  const auto ta = analyze_case(r.trace, r.cfg);
  EXPECT_EQ(base.signature, ta.signature);
}

TEST(MetaSignature, ExcludesFrameLevelBytes) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  const auto cfg = corpus_filter_config();
  const auto base = analyze_case(trace, cfg);
  const TransformResult r = find_transform("vlan")->apply(trace, cfg);
  const auto ta = analyze_case(r.trace, r.cfg);
  // The tag changes frame bytes but not one compliance-relevant number.
  EXPECT_NE(base.merged.raw_bytes, ta.merged.raw_bytes);
  EXPECT_EQ(base.signature, ta.signature);
}

TEST(MetaOracles, VerdictOracleDetectsADroppedFrame) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  const auto cfg = corpus_filter_config();
  const auto base = analyze_case(trace, cfg);
  Trace tampered;
  tampered.set_linktype(trace.linktype());
  for (std::size_t i = 0; i + 1 < trace.size(); ++i)
    tampered.add_frame(trace.frames()[i].ts, trace.bytes(trace.frames()[i]));
  const auto ta = analyze_case(tampered, cfg);
  EXPECT_NE(check_verdict_invariance(base, ta, "tamper"), std::nullopt);
}

TEST(MetaOracles, LedgerOracleDetectsAMisprediction) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  const auto cfg = corpus_filter_config();
  const auto base = analyze_case(trace, cfg);
  TransformResult r = find_transform("vlan")->apply(trace, cfg);
  const auto ta = analyze_case(r.trace, r.cfg);
  r.ledger = Ledger::kIdentity;  // lie: the tags DO change the ledger
  EXPECT_NE(check_ingest_ledger(base.merged, ta.merged, r, r.trace.size()),
            std::nullopt);
}

TEST(MetaOracles, FilterIdempotenceHoldsOnEmulatedCall) {
  const auto call = small_call();
  EXPECT_EQ(check_filter_idempotence(call.trace,
                                     rtcc::emul::filter_config_for(call)),
            std::nullopt);
}

TEST(MetaOracles, MergeOrderInsensitivityHolds) {
  std::vector<rtcc::report::CallAnalysis> parts;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Trace trace = trace_from_datagrams([&] {
      rtcc::util::Rng rng(seed);
      return rtcc::testkit::make_seed_stream(rtcc::testkit::SeedFamily::kStun,
                                             rng, 6)
          .datagrams;
    }());
    parts.push_back(
        rtcc::report::analyze_trace(trace, corpus_filter_config()));
  }
  EXPECT_EQ(check_merge_order_insensitivity(parts), std::nullopt);
}

TEST(MetaOracles, ScaleMonotonicityHoldsOnASmallCall) {
  rtcc::emul::CallConfig cfg;
  cfg.app = rtcc::emul::AppId::kDiscord;
  cfg.pre_call_s = 5;
  cfg.call_s = 20;
  cfg.post_call_s = 5;
  cfg.media_scale = 0.01;
  cfg.seed = 5;
  EXPECT_EQ(check_scale_monotonicity(cfg, 2.0), std::nullopt);
}

TEST(MetaPcap, EncodeExDialectsRoundTrip) {
  const Trace trace = trace_from_datagrams(rtp_corpus());
  for (const auto& opts :
       {rtcc::net::PcapEncodeOptions{},
        rtcc::net::PcapEncodeOptions{.nanosecond = true},
        rtcc::net::PcapEncodeOptions{.swapped = true},
        rtcc::net::PcapEncodeOptions{.nanosecond = true, .swapped = true}}) {
    const Bytes enc = rtcc::net::encode_pcap_ex(trace, opts);
    const auto dec = rtcc::net::decode_pcap(BytesView{enc});
    ASSERT_TRUE(dec.has_value());
    ASSERT_EQ(dec->size(), trace.size());
    EXPECT_EQ(dec->linktype(), trace.linktype());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const auto a = trace.frame_bytes(i);
      const auto b = dec->frame_bytes(i);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
      // Dyadic corpus timestamps are exact in both sub-second units.
      EXPECT_EQ(dec->frames()[i].ts, trace.frames()[i].ts);
    }
  }
}

TEST(MetaDriver, Tier1RunIsCleanAndDeterministic) {
  const MetaOptions opts;  // tier-1 slice
  const auto run1 = run_meta_driver(opts);
  const auto run2 = run_meta_driver(opts);
  EXPECT_EQ(run1.report, run2.report);
  EXPECT_TRUE(run1.violations.empty()) << run1.report;
  EXPECT_GE(run1.cases, 7u);
  EXPECT_GE(run1.transform_runs, 80u);
  EXPECT_GE(run1.chain_runs, 10u);
  EXPECT_NE(run1.report.find("OK"), std::string::npos);
}

}  // namespace
