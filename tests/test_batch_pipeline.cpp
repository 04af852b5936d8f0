// Vector pipeline: batched extraction vs the naive per-datagram scan at
// the boundary datagram counts, and the per-node counter accounting the
// report layer surfaces as "nodes".
#include <gtest/gtest.h>

#include <algorithm>

#include "dpi/scanning_dpi.hpp"
#include "net/packet_batch.hpp"
#include "testkit/mutators.hpp"
#include "testkit/oracles.hpp"
#include "testkit/seeds.hpp"
#include "util/rng.hpp"

namespace {

using rtcc::util::Bytes;
using rtcc::util::BytesView;

TEST(BatchPipeline, BoundaryCountsMatchPerDatagramPath) {
  // Seed a mixed stream, tile it to every boundary count (empty, one,
  // kBatchSize ± 1, exact fit, 16 vectors minus one) and require the
  // batched node graph and the naive per-datagram all-offsets scan to
  // produce byte-identical analyses.
  rtcc::util::Rng rng(0xb0b);
  const auto base = rtcc::testkit::make_seed_stream(
      rtcc::testkit::all_seed_families().front(), rng, 6);
  const auto& counts = rtcc::testkit::batch_boundary_counts();
  EXPECT_NE(std::find(counts.begin(), counts.end(), 4095u), counts.end());
  for (const std::size_t count : counts) {
    const auto shaped =
        rtcc::testkit::mutate_batch_boundary(base.datagrams, count, rng);
    EXPECT_EQ(shaped.size(), count == 0 ? 0u : count);
    const auto err = rtcc::testkit::check_scan_equivalence(shaped);
    EXPECT_FALSE(err.has_value()) << "count " << count << ": " << *err;
  }
}

TEST(BatchPipeline, NodeCountersAccountForEveryPacket) {
  // 300 datagrams = one full vector + a partial one, plus every chunk
  // edge length; payloads 7 and 280 are empty and must be parked by
  // demux, not scanned.
  std::vector<std::size_t> lengths = {300};
  lengths.insert(lengths.end(), rtcc::testkit::kChunkEdgeLengths.begin(),
                 rtcc::testkit::kChunkEdgeLengths.end());
  const rtcc::dpi::ScanningDpi dpi;
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    rtcc::util::Rng rng(0xace);
    std::vector<Bytes> payloads;
    rtcc::net::PacketBatch batch;
    std::size_t empties = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool empty = i == 7 || i == 280;
      empties += empty ? 1 : 0;
      payloads.push_back(rng.bytes(empty ? 0 : 40 + rng.below(200)));
    }
    for (std::size_t i = 0; i < n; ++i)
      batch.push(BytesView{payloads[i]}, static_cast<double>(i) * 0.01,
                 static_cast<int>(i & 1));

    rtcc::dpi::PipelineCounters counters;
    const auto out = dpi.analyze_batch(batch, &counters);
    ASSERT_EQ(out.size(), n);

    const std::uint64_t vectors =
        (n + rtcc::net::kBatchSize - 1) / rtcc::net::kBatchSize;
    EXPECT_EQ(counters.demux.vectors, vectors);
    EXPECT_EQ(counters.demux.packets, n);
    EXPECT_EQ(counters.demux.suspended, empties);
    EXPECT_EQ(counters.prefilter.vectors, vectors);
    EXPECT_EQ(counters.prefilter.packets, n - empties);
    EXPECT_EQ(counters.scan.vectors, vectors);
    EXPECT_EQ(counters.scan.packets, n - empties);
    // Every candidate the scan parked is accounted across the batch.
    std::uint64_t candidates = 0;
    for (const auto& a : out) candidates += a.candidates;
    EXPECT_EQ(counters.scan.suspended, candidates);
  }
}

TEST(BatchPipeline, CountersAreOptional) {
  // A null counters pointer must not change the analysis.
  rtcc::util::Rng rng(0xfee1);
  const auto stream = rtcc::testkit::make_seed_stream(
      rtcc::testkit::all_seed_families().front(), rng, 4);
  rtcc::net::PacketBatch batch;
  for (std::size_t i = 0; i < stream.datagrams.size(); ++i)
    batch.push(BytesView{stream.datagrams[i]}, static_cast<double>(i),
               static_cast<int>(i & 1));
  const rtcc::dpi::ScanningDpi dpi;
  rtcc::dpi::PipelineCounters counters;
  const auto counted = dpi.analyze_batch(batch, &counters);
  const auto uncounted = dpi.analyze_batch(batch);
  EXPECT_TRUE(counters.scan.any());
  ASSERT_EQ(counted.size(), uncounted.size());
  for (std::size_t i = 0; i < counted.size(); ++i) {
    SCOPED_TRACE("datagram " + std::to_string(i));
    EXPECT_EQ(counted[i].klass, uncounted[i].klass);
    EXPECT_EQ(counted[i].candidates, uncounted[i].candidates);
    ASSERT_EQ(counted[i].messages.size(), uncounted[i].messages.size());
    for (std::size_t m = 0; m < counted[i].messages.size(); ++m) {
      EXPECT_EQ(counted[i].messages[m].offset, uncounted[i].messages[m].offset);
      EXPECT_EQ(counted[i].messages[m].length, uncounted[i].messages[m].length);
      EXPECT_EQ(counted[i].messages[m].raw, uncounted[i].messages[m].raw);
    }
  }
}

}  // namespace
