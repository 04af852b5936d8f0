// Equivalence + determinism guarantees for the throughput layer:
//
//  * the anchor prefilter (dpi/anchor_scan) produces byte-identical
//    DPI output vs the naive all-offsets oracle, across the whole
//    6-app x 3-network corpus;
//  * run_experiment produces bit-identical aggregates at every width
//    (serial, or calls and streams as tasks on the shared pool) — the
//    pool only reorders *when* work runs, never its result;
//  * the work-stealing pool itself runs every index exactly once,
//    supports nested parallel_for, and propagates task exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "dpi/simd_dispatch.hpp"
#include "emul/app_model.hpp"
#include "net/stream_table.hpp"
#include "report/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace rtcc;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 997;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, EmptyAndSingleIndexBatches) {
  util::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  util::ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    util::ThreadPool::shared().parallel_for(
        50, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ThreadPool, SelfNestedParallelForDoesNotDeadlock) {
  // Nesting into the *same* pool: the inner caller must be able to
  // drain its own batch even when every worker is busy with the outer.
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(6, [&](std::size_t) {
    pool.parallel_for(10, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 6 * 10);
}

TEST(ThreadPool, PropagatesTaskException) {
  util::ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.parallel_for(16,
                                 [&](std::size_t i) {
                                   if (i == 7)
                                     throw std::runtime_error("task 7");
                                   ++completed;
                                 }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // the batch still drains
}

// ---------------------------------------------------------------------
// Anchor prefilter equivalence (sweep over the whole corpus)
// ---------------------------------------------------------------------

void expect_identical_analyses(
    const std::vector<dpi::DatagramAnalysis>& a,
    const std::vector<dpi::DatagramAnalysis>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("datagram " + std::to_string(i));
    EXPECT_EQ(a[i].klass, b[i].klass);
    EXPECT_EQ(a[i].proprietary_header_len, b[i].proprietary_header_len);
    EXPECT_EQ(a[i].payload_len, b[i].payload_len);
    EXPECT_EQ(a[i].candidates, b[i].candidates);
    ASSERT_EQ(a[i].messages.size(), b[i].messages.size());
    for (std::size_t m = 0; m < a[i].messages.size(); ++m) {
      const auto& ma = a[i].messages[m];
      const auto& mb = b[i].messages[m];
      EXPECT_EQ(ma.kind, mb.kind);
      EXPECT_EQ(ma.offset, mb.offset);
      EXPECT_EQ(ma.length, mb.length);
      EXPECT_EQ(ma.type_label(), mb.type_label());
      EXPECT_EQ(ma.raw, mb.raw);
    }
  }
}

TEST(AnchorPrefilter, SweepMatchesOracleAcrossCorpus) {
  for (const auto app : emul::all_apps()) {
    for (const auto network : emul::all_networks()) {
      emul::CallConfig cfg;
      cfg.app = app;
      cfg.network = network;
      cfg.media_scale = 0.02;
      cfg.call_s = 60.0;
      const auto call = emul::emulate_call(cfg);
      const auto table = net::group_streams(call.trace);

      dpi::ScanOptions anchored;
      anchored.use_anchor_prefilter = true;
      dpi::ScanOptions oracle = anchored;
      oracle.use_anchor_prefilter = false;
      const dpi::ScanningDpi fast(anchored);
      const dpi::ScanningDpi naive(oracle);

      // Every UDP stream, background included: the prefilter must agree
      // with the oracle on noise, not just on well-formed RTC streams.
      for (const auto& stream : table.streams) {
        if (stream.key.transport != net::Transport::kUdp) continue;
        std::vector<dpi::StreamDatagram> dgs;
        dgs.reserve(stream.packets.size());
        for (const auto& pkt : stream.packets) {
          dpi::StreamDatagram d;
          d.payload = net::packet_payload(call.trace, pkt);
          d.ts = pkt.ts;
          d.dir = pkt.dir == net::Direction::kAtoB ? 0 : 1;
          dgs.push_back(d);
        }
        SCOPED_TRACE(to_string(app) + "/" + to_string(network));
        expect_identical_analyses(fast.analyze_stream(dgs),
                                  naive.analyze_stream(dgs));
      }
    }
  }
}

TEST(VectorPipeline, BatchAndSimdMatchFusedScalarAcrossCorpus) {
  // Full app × network matrix at the two SIMD extremes: the node graph
  // under the detected kernel level vs under the scalar level, where
  // the scan node runs the fused per-offset anchor walk. Analyses must
  // be identical on every UDP stream, background noise included — this
  // is the corpus-wide restatement of the per-stream parity oracles.
  const dpi::ScanningDpi engine;
  for (const auto app : emul::all_apps()) {
    for (const auto network : emul::all_networks()) {
      emul::CallConfig cfg;
      cfg.app = app;
      cfg.network = network;
      cfg.media_scale = 0.02;
      cfg.call_s = 60.0;
      const auto call = emul::emulate_call(cfg);
      const auto table = net::group_streams(call.trace);
      for (const auto& stream : table.streams) {
        if (stream.key.transport != net::Transport::kUdp) continue;
        std::vector<dpi::StreamDatagram> dgs;
        dgs.reserve(stream.packets.size());
        for (const auto& pkt : stream.packets) {
          dpi::StreamDatagram d;
          d.payload = net::packet_payload(call.trace, pkt);
          d.ts = pkt.ts;
          d.dir = pkt.dir == net::Direction::kAtoB ? 0 : 1;
          dgs.push_back(d);
        }
        SCOPED_TRACE(to_string(app) + "/" + to_string(network));
        std::vector<dpi::DatagramAnalysis> fused_scalar;
        {
          const dpi::SimdModeGuard simd(dpi::SimdLevel::kScalar);
          fused_scalar = engine.analyze_stream(dgs);
        }
        std::vector<dpi::DatagramAnalysis> batched;
        {
          const dpi::SimdModeGuard simd(dpi::detected_simd_level());
          batched = engine.analyze_stream(dgs);
        }
        expect_identical_analyses(fused_scalar, batched);
      }
    }
  }
}

// ---------------------------------------------------------------------
// run_experiment determinism across execution modes
// ---------------------------------------------------------------------

void expect_identical_stats(const rtcc::filter::StageStats& a,
                            const rtcc::filter::StageStats& b) {
  EXPECT_EQ(a.streams, b.streams);
  EXPECT_EQ(a.packets, b.packets);
}

void expect_identical_call_analysis(const report::CallAnalysis& a,
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

void expect_identical_experiments(
    const std::map<emul::AppId, report::CallAnalysis>& a,
    const std::map<emul::AppId, report::CallAnalysis>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->first, itb->first);
    SCOPED_TRACE("app " + to_string(ita->first));
    expect_identical_call_analysis(ita->second, itb->second);
  }
}

report::ExperimentConfig small_experiment() {
  report::ExperimentConfig cfg;
  cfg.apps = {emul::AppId::kZoom, emul::AppId::kFaceTime,
              emul::AppId::kDiscord};
  cfg.repeats = 1;
  cfg.media_scale = 0.02;
  cfg.call_s = 60.0;
  return cfg;
}

TEST(ExperimentDeterminism, SerialPooledIdentical) {
  // Width 1 runs on the calling thread; widths 3 and 4 run the calls,
  // their streams and each stream's DPI chunks as shared-pool tasks.
  auto cfg = small_experiment();
  cfg.analysis.shards = 1;
  const auto serial = report::run_experiment(cfg);
  for (const std::size_t width : {3u, 4u}) {
    SCOPED_TRACE("width " + std::to_string(width));
    cfg.analysis.shards = width;
    expect_identical_experiments(serial, report::run_experiment(cfg));
  }
}

TEST(ExperimentDeterminism, AnchorPrefilterOnOffIdentical) {
  auto cfg = small_experiment();
  cfg.analysis.shards = 1;
  cfg.analysis.scan.use_anchor_prefilter = true;
  const auto anchored = report::run_experiment(cfg);
  cfg.analysis.scan.use_anchor_prefilter = false;
  const auto oracle = report::run_experiment(cfg);
  expect_identical_experiments(anchored, oracle);
}

TEST(ExperimentDeterminism, SimdKnobIdentical) {
  // Experiment-level restatement of the SIMD extremes: the report
  // metrics must not depend on the kernel level. Width 1 keeps the
  // process-wide guard race-free.
  auto cfg = small_experiment();
  cfg.analysis.shards = 1;
  const auto detected = report::run_experiment(cfg);
  const dpi::SimdModeGuard simd(dpi::SimdLevel::kScalar);
  const auto scalar = report::run_experiment(cfg);
  expect_identical_experiments(detected, scalar);
}

}  // namespace
