// stream/engine.hpp epoch/window finalization: the long-running-service
// seam. Epochs control emission cadence, never flow retirement, so the
// merged analysis must be invariant under epoch length — the acceptance
// sweep {100ms, 1s, 10s, inf} must reconcile with the batch report
// exactly, at unbounded and tight budgets, unsharded and sharded.
// Under test as well: the conservation identities a verdict-stream
// consumer relies on (every ordinal exactly once with amends = false,
// epoch frame/byte sums equal the pushed totals), the one-way
// monotonicity of amendments (kept can tighten to removed, removed
// never reopens), and the sharded partial-readiness handshake (a kept
// verdict only carries a partial the shard worker has published).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "crypto/sha1.hpp"
#include "emul/app_model.hpp"
#include "emul/group_call.hpp"
#include "filter/pipeline.hpp"
#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "service/daemon.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"
#include "util/hex.hpp"

namespace {

namespace emul = rtcc::emul;
namespace net = rtcc::net;
namespace report = rtcc::report;
namespace stream = rtcc::stream;
using rtcc::filter::Disposition;

std::string stripped_json(report::CallAnalysis a) {
  a.shards.clear();
  a.flows = {};
  return report::to_json(a);
}

emul::GroupCall fixture_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_group_call(cfg);
}

/// Sink-side log; FlowVerdict::partial is only valid during the sink
/// call, so everything needed later is copied out here.
struct VerdictLog {
  std::uint64_t ordinal;
  Disposition disposition;
  bool amends;
  bool final_pass;
  bool has_partial;
  std::uint64_t partial_packets;  // decode-node packets, when attached
  bool settled;
};
struct EpochLog {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  bool final_pass = false;
  std::vector<VerdictLog> verdicts;
};

report::CallAnalysis run_with_epochs(const net::Trace& trace,
                                     const rtcc::filter::FilterConfig& fcfg,
                                     const report::AnalysisOptions& opts,
                                     const stream::StreamOptions& sopts,
                                     double epoch_s,
                                     std::vector<EpochLog>& log) {
  stream::StreamingAnalyzer engine(trace.linktype(), fcfg, opts, sopts);
  engine.capture_stats() = trace.ingest();
  engine.set_epoch(epoch_s, [&log](const stream::EpochReport& ep) {
    EpochLog e;
    e.frames = ep.frames;
    e.bytes = ep.bytes;
    e.final_pass = ep.final_pass;
    for (const auto& v : ep.verdicts)
      e.verdicts.push_back({v.ordinal, v.disposition, v.amends, v.final_pass,
                            v.partial != nullptr,
                            v.partial != nullptr
                                ? v.partial->nodes.decode.packets
                                : 0,
                            v.settled});
    log.push_back(std::move(e));
  });
  for (const auto& frame : trace.frames())
    engine.push_frame(trace.bytes(frame), frame.ts, frame.orig_len);
  return engine.finish();
}

/// Replays the log into final per-ordinal state + checks the stream's
/// local invariants.
std::map<std::uint64_t, Disposition> reconcile(
    const std::vector<EpochLog>& log, std::uint64_t expect_frames,
    std::uint64_t expect_bytes) {
  std::uint64_t frames = 0, bytes = 0;
  std::map<std::uint64_t, Disposition> state;
  std::set<std::uint64_t> settled;
  for (const auto& ep : log) {
    frames += ep.frames;
    bytes += ep.bytes;
    for (const auto& v : ep.verdicts) {
      const auto it = state.find(v.ordinal);
      if (!v.amends) {
        EXPECT_EQ(it, state.end())
            << "ordinal " << v.ordinal << " emitted twice without amends";
        state.emplace(v.ordinal, v.disposition);
      } else {
        EXPECT_NE(it, state.end())
            << "amendment for never-emitted ordinal " << v.ordinal;
        if (it == state.end()) continue;
        EXPECT_NE(it->second, v.disposition) << "no-op amendment";
        EXPECT_EQ(settled.count(v.ordinal), 0u)
            << "ordinal " << v.ordinal << " amended after it settled";
        // Evidence grows monotonically: a removed verdict never reopens.
        EXPECT_FALSE(it->second != Disposition::kKept &&
                     v.disposition == Disposition::kKept)
            << "ordinal " << v.ordinal << " flipped removed -> kept";
        it->second = v.disposition;
      }
      if (v.settled) settled.insert(v.ordinal);
      EXPECT_TRUE(!v.final_pass || v.settled) << "final verdicts are settled";
      if (v.has_partial) {
        EXPECT_EQ(v.disposition, Disposition::kKept);
        EXPECT_GT(v.partial_packets, 0u)
            << "attached partial not actually analyzed";
      }
    }
  }
  // Frame/byte conservation: every pushed frame in exactly one epoch.
  EXPECT_EQ(frames, expect_frames);
  EXPECT_EQ(bytes, expect_bytes);
  EXPECT_TRUE(log.empty() || log.back().final_pass);
  return state;
}

TEST(Epoch, SweepReconcilesWithBatchAtEveryLengthBudgetAndShardCount) {
  const auto call = fixture_call();
  const stream::StreamModeGuard batch_ref(false);

  std::uint64_t wire_bytes = 0;
  for (const auto& frame : call.trace.frames())
    wire_bytes += call.trace.bytes(frame).size();

  const double inf = std::numeric_limits<double>::infinity();
  const stream::StreamOptions unbounded{};
  const stream::StreamOptions tight{.max_flows = 8, .idle_timeout_s = 0.5};
  // The scheduled window holds kept and 2b/2c/2d verdicts until
  // finish(); the keep-all window settles every verdict at its first
  // emission, so those flows fold into the running aggregate and free.
  const auto scheduled = emul::group_filter_config(call);
  const auto keep_all = rtcc::service::keep_all_filter_config();

  for (const auto* fcfg : {&scheduled, &keep_all}) {
    const bool settles_all = fcfg == &keep_all;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      report::AnalysisOptions opts;
      opts.shards = shards;
      const auto ref =
          stripped_json(report::analyze_trace(call.trace, *fcfg, opts));
      for (const auto* sopts : {&unbounded, &tight}) {
        // Tight budgets split flows; merged output then satisfies
        // conservation rather than byte-identity (pinned elsewhere), so
        // the batch-equality check runs on the unbounded sweep only.
        // The epoch-length *invariance* check runs on both: epoch
        // cadence (and with it how much folded mid-run) must never
        // change the merged report.
        std::string epoch_invariant_ref;
        for (const double epoch_s : {0.1, 1.0, 10.0, inf}) {
          SCOPED_TRACE(std::string(settles_all ? "keep-all" : "scheduled") +
                       " shards=" + std::to_string(shards) +
                       (sopts == &tight ? " tight" : " unbounded") +
                       " epoch_s=" + std::to_string(epoch_s));
          std::vector<EpochLog> log;
          const auto got =
              run_with_epochs(call.trace, *fcfg, opts, *sopts, epoch_s, log);
          const auto json = stripped_json(got);
          if (epoch_invariant_ref.empty()) epoch_invariant_ref = json;
          EXPECT_EQ(json, epoch_invariant_ref) << "merged report varies";
          if (sopts == &unbounded) {
            EXPECT_EQ(json, ref);
          }

          const auto state =
              reconcile(log, call.trace.frames().size(), wire_bytes);
          // Every flow the ledger saw got exactly one non-amendment
          // verdict, and the reconciled per-disposition stream counts
          // match the merged Table-1 accounting.
          EXPECT_EQ(state.size(), got.flows.flows_seen);
          std::map<Disposition, std::size_t> by_disp;
          for (const auto& [ord, d] : state) ++by_disp[d];
          EXPECT_EQ(by_disp[Disposition::kKept],
                    got.rtc_udp.streams + got.rtc_tcp.streams);
          EXPECT_EQ(by_disp[Disposition::kStage1Timespan],
                    got.stage1_udp.streams + got.stage1_tcp.streams);
          std::size_t stage2 = 0;
          for (const auto d :
               {Disposition::kStage2ThreeTuple, Disposition::kStage2Sni,
                Disposition::kStage2LocalIp, Disposition::kStage2Port})
            stage2 += by_disp[d];
          EXPECT_EQ(stage2, got.stage2_udp.streams + got.stage2_tcp.streams);

          std::size_t provisional = 0;
          std::size_t folded = 0;  // settled before the final pass
          for (const auto& ep : log) {
            if (ep.final_pass) continue;
            provisional += ep.verdicts.size();
            for (const auto& v : ep.verdicts) {
              if (!v.settled) continue;
              ++folded;
              if (!settles_all) {
                EXPECT_TRUE(v.disposition == Disposition::kStage1Timespan ||
                            v.disposition == Disposition::kStage2ThreeTuple)
                    << "scheduled verdict settled as "
                    << rtcc::filter::to_string(v.disposition);
              }
            }
          }
          // Short epochs over a bounded table must actually exercise the
          // provisional path — and under keep-all the fold — or the
          // sweep proves nothing.
          if (sopts == &tight && epoch_s == 0.1) {
            EXPECT_GT(provisional, 0u)
                << "no provisional verdicts at 100ms epochs + tight budgets";
            if (settles_all) {
              EXPECT_EQ(folded, provisional)
                  << "keep-all verdicts must all settle when first emitted";
            }
          }
        }
      }
    }
  }
}

// The full verdict sequence (epoch, ordinal, disposition, amends) of
// the scheduled fixture at tight budgets and 100 ms epochs, pinned as a
// digest: provisional verdicts and every amendment must land in the
// same epoch, in the same order, however the engine derives them.
TEST(Epoch, ScheduledVerdictSequenceIsPinned) {
  const auto call = fixture_call();
  const auto fcfg = emul::group_filter_config(call);
  const stream::StreamOptions tight{.max_flows = 8, .idle_timeout_s = 0.5};
  report::AnalysisOptions opts;
  opts.shards = 1;  // sharded readiness makes emission timing-dependent

  stream::StreamingAnalyzer engine(call.trace.linktype(), fcfg, opts, tight);
  engine.capture_stats() = call.trace.ingest();
  std::string sequence;
  std::size_t amendments = 0;
  engine.set_epoch(0.1, [&](const stream::EpochReport& ep) {
    for (const auto& v : ep.verdicts) {
      sequence += std::to_string(ep.epoch) + ' ' + std::to_string(v.ordinal) +
                  ' ' + rtcc::filter::to_string(v.disposition) +
                  (v.amends ? " amends\n" : "\n");
      if (v.amends) ++amendments;
    }
  });
  for (const auto& frame : call.trace.frames())
    engine.push_frame(call.trace.bytes(frame), frame.ts, frame.orig_len);
  (void)engine.finish();

  EXPECT_GT(amendments, 0u) << "fixture no longer exercises amendments";
  const auto sha = rtcc::crypto::sha1(rtcc::util::BytesView(
      reinterpret_cast<const std::uint8_t*>(sequence.data()), sequence.size()));
  EXPECT_EQ(rtcc::util::to_hex(rtcc::util::BytesView(sha.data(), sha.size())),
            "2077e9d8c332b459fd07ebcfc43613e68dd2db95")
      << sequence;
}

// A witness arriving after a verdict went out amends exactly the flows
// in its bucket, removed verdicts included: a pre-call IP pair turns a
// kept local-scope flow into 2c, and a later outside 3-tuple relabels
// that removed verdict 2c -> 2a (which then settles). The merged report
// still equals batch over the same frames.
TEST(Epoch, LateWitnessesAmendAndRelabelInTheirEpoch) {
  rtcc::filter::FilterConfig fcfg;
  fcfg.schedule.call_start = 10.0;
  fcfg.schedule.call_end = 20.0;
  fcfg.schedule.slack = 0.0;
  const auto device = net::IpAddr::v4(192, 168, 1, 10);
  const auto peer = net::IpAddr::v4(192, 168, 1, 20);  // local-scope remote
  fcfg.device_ips = {device};

  net::Trace trace;
  const auto add = [&trace](double ts, net::IpAddr src, std::uint16_t sport,
                            net::IpAddr dst, std::uint16_t dport) {
    net::FrameSpec spec;
    spec.src = src;
    spec.src_port = sport;
    spec.dst = dst;
    spec.dst_port = dport;
    const std::uint8_t payload[16] = {0x80, 0x60, 0, 1};
    trace.add_frame(ts, net::build_frame(spec, rtcc::util::BytesView(
                                                   payload, sizeof payload)));
  };
  const auto filler = net::IpAddr::v4(203, 0, 113, 5);
  add(12.0, device, 5000, peer, 6000);    // X: the flow under test
  add(12.1, peer, 6000, device, 5000);
  add(14.0, device, 9000, filler, 3478);  // idles X out
  add(15.5, device, 9001, filler, 3478);  // epoch: X emitted kept
  add(5.0, device, 5001, peer, 6001);     // pre-call pair (device, peer)
  add(17.0, device, 9002, filler, 3478);  // epoch: X amended to 2c
  add(25.0, device, 5002, peer, 6000);    // outside tuple (peer, 6000)
  add(26.5, device, 9003, filler, 3478);  // epoch: X relabelled 2a

  const stream::StreamModeGuard batch_ref(false);
  const auto ref = stripped_json(report::analyze_trace(trace, fcfg));

  report::AnalysisOptions opts;
  opts.shards = 1;  // X's verdict must not wait on a shard worker
  std::vector<std::pair<std::uint64_t, std::string>> x_verdicts;  // epoch
  stream::StreamingAnalyzer engine(trace.linktype(), fcfg, opts,
                                   {.idle_timeout_s = 0.5});
  engine.set_epoch(1.0, [&](const stream::EpochReport& ep) {
    for (const auto& v : ep.verdicts) {
      if (v.ordinal != 0) continue;
      x_verdicts.emplace_back(ep.epoch,
                              rtcc::filter::to_string(v.disposition) +
                                  (v.amends ? " amends" : "") +
                                  (v.settled ? " settled" : ""));
    }
  });
  for (const auto& frame : trace.frames())
    engine.push_frame(trace.bytes(frame), frame.ts, frame.orig_len);
  EXPECT_EQ(stripped_json(engine.finish()), ref);

  const std::vector<std::pair<std::uint64_t, std::string>> want = {
      {1, "kept"},
      {2, "stage2:local-ip amends"},
      {4, "stage2:3-tuple amends settled"}};
  EXPECT_EQ(x_verdicts, want);
}

TEST(Epoch, ManualFinishEpochEmitsBetweenAutomaticBoundaries) {
  const auto call = fixture_call();
  const auto fcfg = emul::group_filter_config(call);
  const stream::StreamOptions tight{.max_flows = 8, .idle_timeout_s = 0.5};

  stream::StreamingAnalyzer engine(call.trace.linktype(), fcfg, {}, tight);
  engine.capture_stats() = call.trace.ingest();
  std::vector<EpochLog> log;
  // epoch_s = 0: no automatic boundaries; only manual finish_epoch()
  // calls and the finish() final pass emit.
  engine.set_epoch(0.0, [&log](const stream::EpochReport& ep) {
    EpochLog e;
    e.frames = ep.frames;
    e.bytes = ep.bytes;
    e.final_pass = ep.final_pass;
    for (const auto& v : ep.verdicts)
      e.verdicts.push_back({v.ordinal, v.disposition, v.amends, v.final_pass,
                            false, 0, v.settled});
    log.push_back(std::move(e));
  });

  std::uint64_t wire_bytes = 0;
  const auto& frames = call.trace.frames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    engine.push_frame(call.trace.bytes(frames[i]), frames[i].ts,
                      frames[i].orig_len);
    wire_bytes += call.trace.bytes(frames[i]).size();
    if (i == frames.size() / 2) engine.finish_epoch();
  }
  const auto got = engine.finish();

  ASSERT_EQ(log.size(), 2u) << "one manual epoch + the final pass";
  EXPECT_FALSE(log[0].final_pass);
  EXPECT_TRUE(log[1].final_pass);
  const auto state = reconcile(log, frames.size(), wire_bytes);
  EXPECT_EQ(state.size(), got.flows.flows_seen);
}

TEST(Epoch, NoSinkIsInertAndFinishEpochIsSafe) {
  const auto call = fixture_call();
  const auto fcfg = emul::group_filter_config(call);
  const stream::StreamModeGuard batch_ref(false);
  const auto ref = stripped_json(report::analyze_trace(call.trace, fcfg));

  stream::StreamingAnalyzer engine(call.trace.linktype(), fcfg);
  engine.capture_stats() = call.trace.ingest();
  for (const auto& frame : call.trace.frames()) {
    engine.push_frame(call.trace.bytes(frame), frame.ts, frame.orig_len);
  }
  engine.finish_epoch();  // no sink set: must be a no-op, not a crash
  EXPECT_EQ(stripped_json(engine.finish()), ref);
}

}  // namespace
