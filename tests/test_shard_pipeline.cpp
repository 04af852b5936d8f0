// report/shard.hpp: the flow-sharded execution mode. The contract
// under test is the tentpole's acceptance criterion — merged reports
// are byte-identical for every shard count (the "shards" JSON
// diagnostic being the one intentional difference) — plus the knob
// surface, the per-shard stats accounting identities, double-run
// determinism, and corpus-level equivalence.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "emul/app_model.hpp"
#include "emul/group_call.hpp"
#include "report/corpus.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "report/shard.hpp"

namespace {

namespace emul = rtcc::emul;
namespace report = rtcc::report;

/// Report JSON with the knob-dependent "shards" and "flows" diagnostics
/// dropped — everything that must be execution-mode-invariant. ("flows"
/// appears when RTCC_STREAM routes analyze_trace through the streaming
/// engine, which the corpus pipeline never does.)
std::string stripped_json(report::CallAnalysis a) {
  a.shards.clear();
  a.flows = {};
  return report::to_json(a);
}

/// A 6-participant SFU conference: enough distinct RTC UDP flows
/// (uplinks + per-participant fanout) that an {2,3,8}-shard split
/// actually routes to several shards. Two-party calls top out at ~4
/// streams, which can all land on one shard.
emul::GroupCall many_stream_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_group_call(cfg);
}

TEST(ShardKnob, SetResolveAndClamp) {
  const report::ShardModeGuard outer(1);  // isolate from RTCC_SHARDS
  EXPECT_EQ(report::shard_count(), 1u);
  EXPECT_EQ(report::set_shard_count(3), 3u);
  EXPECT_EQ(report::configured_shard_count(), 3u);
  // Above the ceiling clamps.
  EXPECT_EQ(report::set_shard_count(100000), report::kMaxShards);
  // 0 = auto: resolves to >= 1, and the configured value stays 0 so
  // auto survives save/restore.
  report::set_shard_count(report::kAutoShards);
  EXPECT_EQ(report::configured_shard_count(), report::kAutoShards);
  EXPECT_GE(report::shard_count(), 1u);
  EXPECT_LE(report::shard_count(), report::kMaxShards);
  report::set_shard_count(1);
}

TEST(ShardKnob, GuardRestoresConfiguredValue) {
  const report::ShardModeGuard outer(2);
  {
    const report::ShardModeGuard inner(8);
    EXPECT_EQ(report::shard_count(), 8u);
  }
  EXPECT_EQ(report::shard_count(), 2u);
}

TEST(ShardedAnalyzeTrace, ParityAcrossShardCounts) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);

  report::AnalysisOptions opts;
  opts.shards = 1;
  std::vector<report::CallAnalysis> ref_parts;
  const auto ref =
      report::analyze_trace(call.trace, fcfg, opts, &ref_parts);
  const auto ref_json = stripped_json(ref);
  EXPECT_TRUE(ref.shards.empty())
      << "unsharded path must not emit shard stats";
  ASSERT_GT(ref_parts.size(), 1u) << "call produced too few RTC streams";

  for (const std::size_t count : {2u, 3u, 8u}) {
    opts.shards = count;
    std::vector<report::CallAnalysis> parts;
    const auto got = report::analyze_trace(call.trace, fcfg, opts, &parts);
    EXPECT_EQ(stripped_json(got), ref_json) << "at " << count << " shards";
    ASSERT_EQ(parts.size(), ref_parts.size());
    for (std::size_t si = 0; si < parts.size(); ++si)
      EXPECT_EQ(stripped_json(parts[si]), stripped_json(ref_parts[si]))
          << "stream " << si << " at " << count << " shards";
  }
}

TEST(ShardedAnalyzeTrace, DoubleRunDeterminism) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);
  report::AnalysisOptions opts;
  opts.shards = 4;
  const auto a = report::analyze_trace(call.trace, fcfg, opts);
  const auto b = report::analyze_trace(call.trace, fcfg, opts);
  // Full JSON including the "shards" rows: routing is a pure hash, so
  // even the diagnostic split must be stable run to run.
  EXPECT_EQ(report::to_json(a), report::to_json(b));
}

TEST(ShardedAnalyzeTrace, ShardStatsAccountForAllWork) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);
  report::AnalysisOptions opts;
  opts.shards = 4;
  std::vector<report::CallAnalysis> parts;
  const auto got = report::analyze_trace(call.trace, fcfg, opts, &parts);

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

  // The JSON surfaces the rows only when the sharded path ran.
  EXPECT_NE(report::to_json(got).find("\"shards\""), std::string::npos);
  EXPECT_EQ(stripped_json(got).find("\"shards\""), std::string::npos);
}

TEST(ShardedAnalyzeTrace, RespectsGlobalKnobAndParallelOff) {
  const auto call = many_stream_call();
  const auto fcfg = emul::group_filter_config(call);
  {
    // opts.shards = 0 defers to the global knob.
    const report::ShardModeGuard guard(2);
    const auto got = report::analyze_trace(call.trace, fcfg, {});
    EXPECT_EQ(got.shards.size(), 2u);
  }
  {
    // RTCC_PARALLEL=0 pins shards = 1, which wins over the knob: fully
    // serial means no shard workers.
    const report::ShardModeGuard guard(4);
    setenv("RTCC_PARALLEL", "0", 1);
    const auto cfg = report::experiment_config_from_env();
    unsetenv("RTCC_PARALLEL");
    const auto got = report::analyze_trace(call.trace, fcfg, cfg.analysis);
    EXPECT_TRUE(got.shards.empty());
  }
}

TEST(ShardedCorpus, MatchesUnshardedCorpus) {
  report::CorpusOptions copts;
  copts.experiment.apps = {emul::AppId::kZoom, emul::AppId::kDiscord};
  copts.experiment.networks = {emul::all_networks().front()};
  copts.experiment.repeats = 1;
  copts.experiment.media_scale = 0.02;
  copts.experiment.call_s = 30.0;

  report::CorpusResult ref, got;
  {
    const report::ShardModeGuard guard(1);
    ref = report::run_corpus(copts);
  }
  {
    const report::ShardModeGuard guard(4);
    got = report::run_corpus(copts);
  }

  ASSERT_EQ(ref.per_app.size(), got.per_app.size());
  for (const auto& [app, analysis] : ref.per_app) {
    const auto it = got.per_app.find(app);
    ASSERT_NE(it, got.per_app.end());
    EXPECT_EQ(stripped_json(it->second), stripped_json(analysis))
        << "per-app aggregate differs for " << emul::to_string(app);
  }
  // Call stats (trace sizes, matrix order) are execution-mode
  // invariant, as is total volume.
  ASSERT_EQ(ref.calls.size(), got.calls.size());
  for (std::size_t i = 0; i < ref.calls.size(); ++i) {
    EXPECT_EQ(ref.calls[i].app, got.calls[i].app);
    EXPECT_EQ(ref.calls[i].trace_bytes, got.calls[i].trace_bytes);
    EXPECT_EQ(ref.calls[i].frames, got.calls[i].frames);
  }
  EXPECT_EQ(ref.total_trace_bytes, got.total_trace_bytes);
  // The gate bounds live traces on the sharded path too.
  EXPECT_GT(got.peak_live_traces, 0u);
  EXPECT_LE(got.peak_live_trace_bytes, got.total_trace_bytes);
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
