// Arena-producer equivalence across the full 6-app x 3-network matrix:
// the emulator writes frames in place (alloc); the "legacy" reference
// copies every frame onto a fresh arena (append, the copying producer
// that replaced owned per-frame buffers), and a third trace views the
// call's pcap bytes zero-copy (adopt). Every layer must agree — same
// wire bytes, same filter dispositions, same compliance metrics. Any
// divergence means a producer or the view-based storage changed
// observable behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "emul/app_model.hpp"
#include "report/corpus.hpp"
#include "report/metrics.hpp"

namespace rtcc {
namespace {

using emul::AppId;
using emul::NetworkSetup;
using util::Bytes;

emul::CallConfig sweep_config(AppId app, NetworkSetup network) {
  emul::CallConfig cfg;
  cfg.app = app;
  cfg.network = network;
  cfg.media_scale = 0.02;
  cfg.call_s = 60.0;
  cfg.seed = 1234;
  return cfg;
}

void expect_identical_stats(const filter::StageStats& a,
                            const filter::StageStats& b) {
  EXPECT_EQ(a.streams, b.streams);
  EXPECT_EQ(a.packets, b.packets);
}

void expect_identical_analysis(const report::CallAnalysis& a,
                               const report::CallAnalysis& b) {
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.raw_udp_streams, b.raw_udp_streams);
  EXPECT_EQ(a.raw_udp_datagrams, b.raw_udp_datagrams);
  EXPECT_EQ(a.raw_tcp_streams, b.raw_tcp_streams);
  EXPECT_EQ(a.raw_tcp_segments, b.raw_tcp_segments);
  expect_identical_stats(a.stage1_udp, b.stage1_udp);
  expect_identical_stats(a.stage2_udp, b.stage2_udp);
  expect_identical_stats(a.stage1_tcp, b.stage1_tcp);
  expect_identical_stats(a.stage2_tcp, b.stage2_tcp);
  expect_identical_stats(a.rtc_udp, b.rtc_udp);
  expect_identical_stats(a.rtc_tcp, b.rtc_tcp);
  EXPECT_EQ(a.dgram_standard, b.dgram_standard);
  EXPECT_EQ(a.dgram_prop_header, b.dgram_prop_header);
  EXPECT_EQ(a.dgram_fully_prop, b.dgram_fully_prop);
  EXPECT_EQ(a.dpi_candidates, b.dpi_candidates);
  EXPECT_EQ(a.dpi_messages, b.dpi_messages);
  ASSERT_EQ(a.protocols.size(), b.protocols.size());
  auto ita = a.protocols.begin();
  auto itb = b.protocols.begin();
  for (; ita != a.protocols.end(); ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first);
    EXPECT_EQ(ita->second.messages, itb->second.messages);
    EXPECT_EQ(ita->second.compliant, itb->second.compliant);
    ASSERT_EQ(ita->second.types.size(), itb->second.types.size());
    auto ta = ita->second.types.begin();
    auto tb = itb->second.types.begin();
    for (; ta != ita->second.types.end(); ++ta, ++tb) {
      EXPECT_EQ(ta->first, tb->first);
      EXPECT_EQ(ta->second.total, tb->second.total);
      EXPECT_EQ(ta->second.compliant, tb->second.compliant);
      EXPECT_EQ(ta->second.criterion_failures, tb->second.criterion_failures);
    }
  }
}

using SweepCase = std::tuple<AppId, NetworkSetup>;

class ArenaEquivalence : public testing::TestWithParam<SweepCase> {};

TEST_P(ArenaEquivalence, WireBytesFilterAndMetricsMatchLegacy) {
  const auto [app, network] = GetParam();
  const auto cfg = sweep_config(app, network);

  const auto call = emul::emulate_call(cfg);
  const net::Trace& arena = call.trace;
  net::Trace legacy;
  legacy.reserve(arena.size());
  for (const auto& f : arena.frames())
    legacy.add_frame(f.ts, arena.bytes(f)).orig_len = f.orig_len;
  const Bytes pcap = net::encode_pcap(arena);
  const auto adopted = net::decode_pcap_zero_copy(pcap);
  ASSERT_TRUE(adopted);

  // Layer 1: identical wire bytes (the whole pcap, headers included).
  EXPECT_EQ(net::encode_pcap(legacy), pcap);
  EXPECT_EQ(net::encode_pcap(*adopted), pcap);
  EXPECT_EQ(legacy.total_bytes(), arena.total_bytes());
  EXPECT_EQ(adopted->total_bytes(), arena.total_bytes());

  // Layer 2: identical filter dispositions, stream by stream.
  const auto fcfg = emul::filter_config_for(call);
  const auto arena_table = net::group_streams(arena);
  const auto arena_report = filter::run_pipeline(arena, arena_table, fcfg);
  const net::Trace* const others[] = {&legacy, &*adopted};
  for (const net::Trace* other : others) {
    const auto table = net::group_streams(*other);
    const auto rep = filter::run_pipeline(*other, table, fcfg);
    EXPECT_EQ(arena_report.dispositions, rep.dispositions);
    EXPECT_EQ(arena_report.rtc_udp_streams, rep.rtc_udp_streams);
    expect_identical_stats(arena_report.rtc_udp, rep.rtc_udp);
    expect_identical_stats(arena_report.rtc_tcp, rep.rtc_tcp);
  }

  // Layer 3: identical DPI + compliance metrics.
  const auto arena_analysis = report::analyze_trace(arena, fcfg);
  expect_identical_analysis(arena_analysis, report::analyze_trace(legacy, fcfg));
  expect_identical_analysis(arena_analysis,
                            report::analyze_trace(*adopted, fcfg));
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ArenaEquivalence,
    testing::Combine(testing::ValuesIn(emul::all_apps()),
                     testing::ValuesIn(emul::all_networks())),
    [](const testing::TestParamInfo<SweepCase>& info) {
      return to_string(std::get<0>(info.param)).substr(0, 6) +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// ---- streaming corpus ----------------------------------------------------

report::ExperimentConfig tiny_matrix() {
  report::ExperimentConfig cfg;
  cfg.apps = {AppId::kZoom, AppId::kDiscord};
  cfg.networks = {NetworkSetup::kWifiP2p, NetworkSetup::kCellular};
  cfg.repeats = 2;
  cfg.media_scale = 0.02;
  cfg.call_s = 60.0;
  return cfg;
}

TEST(Corpus, AggregatesMatchRunExperiment) {
  report::CorpusOptions opts;
  opts.experiment = tiny_matrix();
  const auto corpus = report::run_corpus(opts);
  const auto experiment = report::run_experiment(tiny_matrix());

  ASSERT_EQ(corpus.per_app.size(), experiment.size());
  auto itc = corpus.per_app.begin();
  auto ite = experiment.begin();
  for (; itc != corpus.per_app.end(); ++itc, ++ite) {
    ASSERT_EQ(itc->first, ite->first);
    SCOPED_TRACE("app " + to_string(itc->first));
    expect_identical_analysis(itc->second, ite->second);
  }
}

TEST(Corpus, CountersAreConsistentAndLiveSetIsBounded) {
  report::CorpusOptions opts;
  opts.experiment = tiny_matrix();
  opts.max_live_traces = 2;
  const auto result = report::run_corpus(opts);

  ASSERT_EQ(result.calls.size(), 8u);  // 2 apps x 2 networks x 2 repeats
  std::uint64_t sum = 0, max_call = 0;
  for (const auto& call : result.calls) {
    EXPECT_GT(call.trace_bytes, 0u);
    EXPECT_GT(call.frames, 0u);
    sum += call.trace_bytes;
    max_call = std::max(max_call, call.trace_bytes);
  }
  EXPECT_EQ(result.total_trace_bytes, sum);
  EXPECT_LE(result.peak_live_traces, 2u);
  // The gate admits at most 2 traces, so the live peak can never reach
  // the corpus total (8 calls of comparable size).
  EXPECT_GE(result.peak_live_trace_bytes, max_call);
  EXPECT_LE(result.peak_live_trace_bytes, 2 * max_call);
  EXPECT_LT(result.peak_live_trace_bytes, result.total_trace_bytes);
  EXPECT_GT(result.wall_s, 0.0);
  EXPECT_GT(result.mb_per_s(), 0.0);
}

TEST(Corpus, SerialAndPooledAgree) {
  report::CorpusOptions pooled;
  pooled.experiment = tiny_matrix();
  pooled.experiment.analysis.shards = 4;
  auto serial = pooled;
  serial.experiment.analysis.shards = 1;

  const auto a = report::run_corpus(pooled);
  const auto b = report::run_corpus(serial);
  ASSERT_EQ(a.calls.size(), b.calls.size());
  for (std::size_t i = 0; i < a.calls.size(); ++i) {
    EXPECT_EQ(a.calls[i].trace_bytes, b.calls[i].trace_bytes);
    EXPECT_EQ(a.calls[i].frames, b.calls[i].frames);
  }
  auto ita = a.per_app.begin();
  auto itb = b.per_app.begin();
  for (; ita != a.per_app.end(); ++ita, ++itb)
    expect_identical_analysis(ita->second, itb->second);
}

}  // namespace
}  // namespace rtcc
