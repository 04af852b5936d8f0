// Checked-in scenario fixtures (tests/fixtures/make_fixtures.py): a
// hand-built Wi-Fi→cellular handoff capture and a TURN-over-TCP
// fallback capture, with every IngestStats field hand-computed in the
// generator. Each fixture is analyzed three ways — batch, streaming
// (StreamModeGuard) and batch at widths 1 and 4 — and the
// compliance signatures must agree, the in-process half of the
// analyze_fixture_handoff / analyze_fixture_turn_tcp ctest pins.
#include <gtest/gtest.h>

#include <string>

#include "filter/pipeline.hpp"
#include "net/address.hpp"
#include "net/pcap.hpp"
#include "report/metrics.hpp"
#include "stream/stream_mode.hpp"
#include "testkit/meta.hpp"

namespace rtcc::report {
namespace {

using rtcc::net::IngestStats;
using rtcc::net::IpAddr;
using rtcc::net::Trace;
using rtcc::stream::StreamModeGuard;
using rtcc::testkit::meta::analyze_case;

std::string fixture(const char* name) {
  return std::string(RTCC_TEST_SOURCE_DIR) + "/fixtures/" + name;
}

rtcc::filter::FilterConfig fixture_config(
    const std::vector<const char*>& device_ips) {
  rtcc::filter::FilterConfig cfg;
  cfg.schedule.capture_start = 0.0;
  cfg.schedule.call_start = 10.0;
  cfg.schedule.call_end = 40.0;
  cfg.schedule.capture_end = 100.0;
  cfg.excluded_ports = rtcc::filter::default_excluded_ports();
  for (const char* ip : device_ips)
    cfg.device_ips.push_back(*IpAddr::parse(ip));
  return cfg;
}

void expect_parity(const Trace& trace, const rtcc::filter::FilterConfig& cfg,
                   const std::string& base_signature) {
  {
    StreamModeGuard stream_on(true);
    EXPECT_EQ(analyze_case(trace, cfg).signature, base_signature)
        << "streaming parity";
  }
  for (const std::size_t width : {1u, 4u}) {
    AnalysisOptions opts;
    opts.shards = width;
    EXPECT_EQ(analyze_case(trace, cfg, opts).signature, base_signature)
        << "shard parity at width " << width;
  }
}

TEST(ScenarioFixtures, HandoffCaptureMatchesHandComputedStats) {
  std::string error;
  auto trace = rtcc::net::read_pcap(fixture("handoff.pcap"), &error);
  ASSERT_TRUE(trace.has_value()) << error;

  const auto cfg = fixture_config({"192.168.1.10", "10.64.7.10"});
  const auto base = analyze_case(*trace, cfg);

  IngestStats want;
  want.frames_seen = 12;
  want.frames_decoded = 12;
  EXPECT_EQ(base.merged.ingest, want);
  EXPECT_EQ(base.merged.ingest.loss_events(), 0u);

  // Two 5-tuples (Wi-Fi epoch, post-restart cellular epoch), both RTC:
  // the filter keeps the whole call across the migration.
  EXPECT_EQ(base.merged.raw_udp_streams, 2u);
  EXPECT_EQ(base.merged.raw_udp_datagrams, 12u);
  EXPECT_EQ(base.merged.rtc_udp.streams, 2u);
  EXPECT_EQ(base.merged.rtc_udp.packets, 12u);
  EXPECT_EQ(base.merged.rtc_tcp.streams, 0u);

  expect_parity(*trace, cfg, base.signature);
}

TEST(ScenarioFixtures, TurnTcpCaptureMatchesHandComputedStats) {
  std::string error;
  auto trace = rtcc::net::read_pcap(fixture("turn_tcp.pcap"), &error);
  ASSERT_TRUE(trace.has_value()) << error;

  const auto cfg = fixture_config({"192.168.1.10"});
  const auto base = analyze_case(*trace, cfg);

  IngestStats want;
  want.frames_seen = 10;
  want.frames_decoded = 10;
  EXPECT_EQ(base.merged.ingest, want);

  // The unanswered STUN probe stream is still an RTC stream (stage 2's
  // 3-tuple filter only taints tuples seen out of window), and the
  // TURN-over-TCP control+ChannelData stream lands in rtc_tcp.
  EXPECT_EQ(base.merged.raw_udp_streams, 1u);
  EXPECT_EQ(base.merged.raw_udp_datagrams, 2u);
  EXPECT_EQ(base.merged.rtc_udp.streams, 1u);
  EXPECT_EQ(base.merged.rtc_udp.packets, 2u);
  EXPECT_EQ(base.merged.rtc_tcp.streams, 1u);
  EXPECT_EQ(base.merged.rtc_tcp.packets, 8u);

  expect_parity(*trace, cfg, base.signature);
}

}  // namespace
}  // namespace rtcc::report
