// Scenario catalogue (emul/scenario.hpp): every registered scenario —
// SFU conferences, mid-call mobility, network-weather composites — is
// held to the same oracle bar as the 6×3 app matrix: deterministic
// generation, batch/streaming/sharded verdict parity, metamorphic
// transform invariance, and reachability through the corpus runner's
// per-scenario compliance rows.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "emul/scenario.hpp"
#include "net/pcap.hpp"
#include "report/corpus.hpp"
#include "stream/stream_mode.hpp"
#include "testkit/meta.hpp"

namespace rtcc::emul {
namespace {

using rtcc::stream::StreamModeGuard;
using rtcc::testkit::meta::analyze_case;

ScenarioOptions quick_options() {
  ScenarioOptions opts;
  opts.media_scale = 0.02;
  opts.call_s = 20.0;
  opts.seed = 77;
  return opts;
}

TEST(ScenarioCatalogue, NamesAreUniqueAndLookupWorks) {
  const auto& specs = scenario_catalogue();
  ASSERT_GE(specs.size(), 8u);
  ASSERT_LE(kTier1Scenarios, specs.size());
  std::set<std::string> names;
  for (const auto& spec : specs) {
    EXPECT_NE(spec.build, nullptr) << spec.name;
    EXPECT_FALSE(spec.summary.empty()) << spec.name;
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
    const auto* found = find_scenario(spec.name);
    ASSERT_NE(found, nullptr) << spec.name;
    EXPECT_EQ(found->build, spec.build);
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(ScenarioCatalogue, EveryScenarioIsDeterministic) {
  const auto opts = quick_options();
  for (const auto& spec : scenario_catalogue()) {
    SCOPED_TRACE(spec.name);
    Scenario a = spec.build(opts);
    Scenario b = spec.build(opts);
    EXPECT_EQ(a.name, spec.name);
    ASSERT_GT(a.trace.size(), 0u);
    EXPECT_EQ(rtcc::net::encode_pcap(a.trace), rtcc::net::encode_pcap(b.trace));
    if (!a.truth.empty())
      EXPECT_EQ(a.truth.size(), a.trace.size());
    const auto sig_a = analyze_case(a.trace, a.cfg).signature;
    const auto sig_b = analyze_case(b.trace, b.cfg).signature;
    EXPECT_EQ(sig_a, sig_b);
  }
}

// The knob-parity oracle, per scenario: the one-pass streaming engine
// and width-4 analysis must reproduce the width-1 batch compliance
// signature on every catalogue entry — new scenario families don't get
// to regress the equivalence guarantees.
TEST(ScenarioCatalogue, StreamAndShardParityOnEveryScenario) {
  const auto opts = quick_options();
  rtcc::report::AnalysisOptions serial, wide;
  serial.shards = 1;
  wide.shards = 4;
  for (const auto& spec : scenario_catalogue()) {
    SCOPED_TRACE(spec.name);
    const Scenario scen = spec.build(opts);
    const auto base = analyze_case(scen.trace, scen.cfg, serial);
    EXPECT_GT(base.merged.rtc_udp.packets, 0u);
    {
      StreamModeGuard stream_on(true);
      EXPECT_EQ(analyze_case(scen.trace, scen.cfg).signature, base.signature)
          << "streaming parity";
    }
    EXPECT_EQ(analyze_case(scen.trace, scen.cfg, wide).signature,
              base.signature)
        << "shard parity";
  }
}

// A quick metamorphic slice (the full transform × scenario grid runs
// inside run_meta_driver): VLAN re-encapsulation and a global time
// shift must not move any scenario's verdicts.
TEST(ScenarioCatalogue, VlanAndTimeShiftInvariancePerScenario) {
  const auto* vlan = rtcc::testkit::meta::find_transform("vlan");
  const auto* shift = rtcc::testkit::meta::find_transform("time-shift");
  ASSERT_NE(vlan, nullptr);
  ASSERT_NE(shift, nullptr);
  const auto opts = quick_options();
  for (const auto& spec : scenario_catalogue()) {
    SCOPED_TRACE(spec.name);
    const Scenario scen = spec.build(opts);
    const auto base = analyze_case(scen.trace, scen.cfg);
    for (const auto* transform : {vlan, shift}) {
      auto result = transform->apply(scen.trace, scen.cfg);
      if (!result.applicable) continue;
      const auto transformed = analyze_case(result.trace, result.cfg);
      const auto violation = rtcc::testkit::meta::check_verdict_invariance(
          base, transformed, transform->name);
      EXPECT_FALSE(violation.has_value())
          << transform->name << ": " << violation.value_or("");
    }
  }
}

TEST(ScenarioCatalogue, CorpusRunnerEmitsPerScenarioRows) {
  rtcc::report::CorpusOptions opts;
  opts.experiment.apps = {AppId::kZoom};
  opts.experiment.networks = {NetworkSetup::kWifiP2p};
  opts.experiment.repeats = 1;
  opts.experiment.media_scale = 0.01;
  opts.experiment.call_s = 15.0;
  opts.experiment.analysis.shards = 1;
  opts.scenario_repeats = 1;

  const auto result = rtcc::report::run_corpus(opts);
  const auto& specs = scenario_catalogue();
  EXPECT_EQ(result.per_scenario.size(), specs.size());
  EXPECT_EQ(result.scenario_calls.size(), specs.size());
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    const auto it = result.per_scenario.find(spec.name);
    ASSERT_NE(it, result.per_scenario.end());
    EXPECT_GT(it->second.ingest.frames_decoded, 0u);
    EXPECT_GT(it->second.rtc_udp.packets, 0u);
  }
  for (const auto& row : result.scenario_calls) {
    EXPECT_NE(find_scenario(row.name), nullptr) << row.name;
    EXPECT_GT(row.frames, 0u);
    EXPECT_GT(row.trace_bytes, 0u);
  }
}

}  // namespace
}  // namespace rtcc::emul
