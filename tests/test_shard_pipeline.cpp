// Analysis width (AnalysisOptions::shards): batch analyze_trace and
// run_corpus run streams and calls as tasks on the shared pool, and the
// streaming engine hands retired flows to report/shard.hpp's
// ShardedPipeline. The contract under test is that reports are
// byte-identical at every width (the engine's "shards" JSON diagnostic
// being the one intentional difference), plus width resolution, the
// engine's per-shard stats accounting identities, double-run
// determinism, and corpus-level equivalence in batch and streaming mode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "emul/app_model.hpp"
#include "emul/group_call.hpp"
#include "report/corpus.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"
#include "testkit/meta.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace emul = rtcc::emul;
namespace report = rtcc::report;

/// Report JSON with the knob-dependent "shards" and "flows" diagnostics
/// dropped: everything the streaming engine must reproduce at every
/// width.
std::string stripped_json(report::CallAnalysis a) {
  a.shards.clear();
  a.flows = {};
  return report::to_json(a);
}

/// A 6-participant SFU conference: enough distinct RTC UDP flows
/// (uplinks + per-participant fanout) that the engine's 4-shard split
/// actually routes to several shards and batch widths have several
/// stream tasks to spread. Two-party calls top out at ~4 streams,
/// which can all land on one shard.
emul::GroupCall many_stream_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_group_call(cfg);
}

TEST(ShardKnob, SetResolveAndClamp) {
  report::AnalysisOptions opts;
  opts.shards = 3;
  EXPECT_EQ(report::effective_shards(opts), 3u);
  // Above the ceiling clamps.
  opts.shards = 100000;
  EXPECT_EQ(report::effective_shards(opts), report::kMaxShards);
  // 0 = auto: the shared pool's size (RTCC_THREADS), clamped.
  opts.shards = 0;
  const std::size_t pool = rtcc::util::ThreadPool::shared_size();
  EXPECT_EQ(report::effective_shards(opts),
            pool < report::kMaxShards ? pool : report::kMaxShards);
  EXPECT_GE(report::effective_shards(opts), 1u);
}

TEST(ShardedAnalyzeTrace, ParityAcrossShardCounts) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);
  // The batch path is under test, also under an ambient RTCC_STREAM=1.
  const rtcc::stream::StreamModeGuard batch(false);

  report::AnalysisOptions opts;
  opts.shards = 1;
  std::vector<report::CallAnalysis> ref_parts;
  const auto ref =
      report::analyze_trace(call.trace, fcfg, opts, &ref_parts);
  const auto ref_json = report::to_json(ref);
  ASSERT_GT(ref_parts.size(), 1u) << "call produced too few RTC streams";

  // Full JSON, unstripped: batch analysis has no shard workers, so no
  // width adds a "shards" block.
  for (const std::size_t width : {2u, 3u, 4u, 8u}) {
    opts.shards = width;
    std::vector<report::CallAnalysis> parts;
    const auto got = report::analyze_trace(call.trace, fcfg, opts, &parts);
    EXPECT_TRUE(got.shards.empty()) << "at width " << width;
    EXPECT_EQ(report::to_json(got), ref_json) << "at width " << width;
    ASSERT_EQ(parts.size(), ref_parts.size());
    for (std::size_t si = 0; si < parts.size(); ++si)
      EXPECT_EQ(report::to_json(parts[si]), report::to_json(ref_parts[si]))
          << "stream " << si << " at width " << width;
  }
}

TEST(ShardedAnalyzeTrace, DoubleRunDeterminism) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);
  report::AnalysisOptions opts;
  opts.shards = 4;
  const auto run = [&] {
    return rtcc::stream::analyze_trace_streaming(
        call.trace, fcfg, opts, rtcc::stream::StreamOptions{});
  };
  const auto a = run();
  const auto b = run();
  // Full JSON including the engine's "shards" rows: routing is a pure
  // hash, so even the diagnostic split must be stable run to run.
  ASSERT_FALSE(a.shards.empty());
  EXPECT_EQ(report::to_json(a), report::to_json(b));
}

TEST(ShardedAnalyzeTrace, ShardStatsAccountForAllWork) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);
  report::AnalysisOptions opts;
  opts.shards = 4;
  std::vector<report::CallAnalysis> parts;
  const auto got = rtcc::stream::analyze_trace_streaming(
      call.trace, fcfg, opts, rtcc::stream::StreamOptions{}, &parts);

  ASSERT_EQ(got.shards.size(), 4u);
  std::uint64_t streams = 0, datagrams = 0, messages = 0, vectors = 0;
  for (const auto& row : got.shards) {
    streams += row.streams;
    datagrams += row.datagrams;
    messages += row.messages;
    vectors += row.handoff_vectors;
  }
  // Every RTC UDP stream / datagram / extracted message is analyzed on
  // exactly one shard.
  EXPECT_EQ(streams, parts.size());
  EXPECT_EQ(datagrams, got.rtc_udp.packets);
  EXPECT_EQ(messages, got.dpi_messages);
  // At least one ring handoff per stream, and the split must have used
  // more than one shard on a multi-stream call.
  EXPECT_GE(vectors, streams);
  std::size_t used = 0;
  for (const auto& row : got.shards)
    if (row.streams > 0) ++used;
  EXPECT_GT(used, 1u);

  // The JSON surfaces the rows only when the engine's shards ran; the
  // batch path at the same width has none.
  EXPECT_NE(report::to_json(got).find("\"shards\""), std::string::npos);
  EXPECT_EQ(stripped_json(got).find("\"shards\""), std::string::npos);
  const rtcc::stream::StreamModeGuard batch(false);
  EXPECT_TRUE(report::analyze_trace(call.trace, fcfg, opts).shards.empty());
}

report::CorpusOptions small_corpus(std::size_t width) {
  report::CorpusOptions copts;
  copts.experiment.apps = {emul::AppId::kZoom, emul::AppId::kDiscord};
  copts.experiment.networks = {emul::all_networks().front()};
  copts.experiment.repeats = 1;
  copts.experiment.media_scale = 0.02;
  copts.experiment.call_s = 30.0;
  copts.experiment.analysis.shards = width;
  copts.scenario_repeats = 1;
  return copts;
}

TEST(ShardedCorpus, MatchesUnshardedCorpus) {
  const rtcc::stream::StreamModeGuard batch(false);
  const auto ref = report::run_corpus(small_corpus(1));
  const auto got = report::run_corpus(small_corpus(4));

  // Full JSON, unstripped, for the app and the scenario rows alike.
  ASSERT_EQ(ref.per_app.size(), got.per_app.size());
  for (const auto& [app, analysis] : ref.per_app) {
    const auto it = got.per_app.find(app);
    ASSERT_NE(it, got.per_app.end());
    EXPECT_EQ(report::to_json(it->second), report::to_json(analysis))
        << "per-app aggregate differs for " << emul::to_string(app);
  }
  ASSERT_EQ(ref.per_scenario.size(), got.per_scenario.size());
  ASSERT_FALSE(ref.per_scenario.empty());
  for (const auto& [name, analysis] : ref.per_scenario) {
    const auto it = got.per_scenario.find(name);
    ASSERT_NE(it, got.per_scenario.end());
    EXPECT_EQ(report::to_json(it->second), report::to_json(analysis))
        << "per-scenario aggregate differs for " << name;
  }
  // Call stats (trace sizes, matrix order) are width-invariant, as is
  // total volume.
  ASSERT_EQ(ref.calls.size(), got.calls.size());
  for (std::size_t i = 0; i < ref.calls.size(); ++i) {
    EXPECT_EQ(ref.calls[i].app, got.calls[i].app);
    EXPECT_EQ(ref.calls[i].trace_bytes, got.calls[i].trace_bytes);
    EXPECT_EQ(ref.calls[i].frames, got.calls[i].frames);
  }
  ASSERT_EQ(ref.scenario_calls.size(), got.scenario_calls.size());
  for (std::size_t i = 0; i < ref.scenario_calls.size(); ++i) {
    EXPECT_EQ(ref.scenario_calls[i].name, got.scenario_calls[i].name);
    EXPECT_EQ(ref.scenario_calls[i].trace_bytes,
              got.scenario_calls[i].trace_bytes);
  }
  EXPECT_EQ(ref.total_trace_bytes, got.total_trace_bytes);
  // Width 1 keeps one trace alive; the gate bounds live traces wider.
  EXPECT_EQ(ref.peak_live_traces, 1u);
  EXPECT_GT(got.peak_live_traces, 0u);
  EXPECT_LE(got.peak_live_trace_bytes, got.total_trace_bytes);
}

TEST(ShardedCorpus, HonoursStreamMode) {
  report::CorpusResult batch;
  {
    const rtcc::stream::StreamModeGuard off(false);
    batch = report::run_corpus(small_corpus(4));
  }
  const rtcc::stream::StreamModeGuard on(true);
  const auto serial = report::run_corpus(small_corpus(1));
  const auto wide = report::run_corpus(small_corpus(4));

  namespace meta = rtcc::testkit::meta;
  ASSERT_EQ(wide.per_app.size(), batch.per_app.size());
  for (const auto& [app, analysis] : batch.per_app) {
    SCOPED_TRACE(emul::to_string(app));
    const auto it = wide.per_app.find(app);
    ASSERT_NE(it, wide.per_app.end());
    // The calls went through the one-pass engine...
    EXPECT_NE(report::to_json(it->second).find("\"flows\""),
              std::string::npos);
    // ...and reproduce the batch verdicts.
    EXPECT_EQ(meta::compliance_signature(it->second, {}),
              meta::compliance_signature(analysis, {}));
    EXPECT_EQ(stripped_json(it->second),
              stripped_json(serial.per_app.at(app)));
  }
  ASSERT_EQ(wide.per_scenario.size(), batch.per_scenario.size());
  for (const auto& [name, analysis] : batch.per_scenario) {
    SCOPED_TRACE(name);
    const auto it = wide.per_scenario.find(name);
    ASSERT_NE(it, wide.per_scenario.end());
    EXPECT_NE(report::to_json(it->second).find("\"flows\""),
              std::string::npos);
    EXPECT_EQ(meta::compliance_signature(it->second, {}),
              meta::compliance_signature(analysis, {}));
    EXPECT_EQ(stripped_json(it->second),
              stripped_json(serial.per_scenario.at(name)));
  }
}

TEST(ShardedAnalyzeTrace, EmptyTraceIsHarmless) {
  rtcc::net::Trace trace;
  report::AnalysisOptions opts;
  opts.shards = 8;
  const auto got = report::analyze_trace(trace, {}, opts);
  EXPECT_EQ(got.raw_udp_streams, 0u);
  EXPECT_TRUE(got.shards.empty());
}

}  // namespace
