// Vector pipeline: batched extraction vs the naive per-datagram scan at
// the boundary datagram counts, and the per-node counter accounting the
// report layer surfaces as "nodes".
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dpi/scanning_dpi.hpp"
#include "net/packet_batch.hpp"
#include "testkit/mutators.hpp"
#include "testkit/oracles.hpp"
#include "testkit/seeds.hpp"
#include "util/rng.hpp"

namespace {

using rtcc::dpi::DatagramAnalysis;
using rtcc::dpi::ScanningDpi;
using rtcc::util::Bytes;
using rtcc::util::BytesView;

void expect_same_analyses(const std::vector<DatagramAnalysis>& a,
                          const std::vector<DatagramAnalysis>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("datagram " + std::to_string(i));
    EXPECT_EQ(a[i].klass, b[i].klass);
    EXPECT_EQ(a[i].proprietary_header_len, b[i].proprietary_header_len);
    EXPECT_EQ(a[i].candidates, b[i].candidates);
    ASSERT_EQ(a[i].messages.size(), b[i].messages.size());
    for (std::size_t m = 0; m < a[i].messages.size(); ++m) {
      EXPECT_EQ(a[i].messages[m].kind, b[i].messages[m].kind);
      EXPECT_EQ(a[i].messages[m].offset, b[i].messages[m].offset);
      EXPECT_EQ(a[i].messages[m].length, b[i].messages[m].length);
      EXPECT_EQ(a[i].messages[m].type_label(), b[i].messages[m].type_label());
      EXPECT_EQ(a[i].messages[m].raw, b[i].messages[m].raw);
    }
  }
}

rtcc::net::PacketBatch batch_of(const std::vector<Bytes>& payloads) {
  rtcc::net::PacketBatch batch;
  for (std::size_t i = 0; i < payloads.size(); ++i)
    batch.push(BytesView{payloads[i]}, static_cast<double>(i) * 0.01,
               static_cast<int>(i & 1));
  return batch;
}

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
  // edge length, plus the intra-stream chunk edges. A stream splits
  // once it has twice the per-chunk minimum of vectors, a partial last
  // vector counting as one: 3 vectors are one chunk at any width, and
  // one datagram more (a 4th, partial vector) is two. Twice the
  // per-chunk minimum of datagrams plus one is 5 vectors, two chunks,
  // with the swept width 7 above its vector count. 15 vectors split
  // into as many chunks as every swept width asks for, of unequal
  // sizes. Payloads 7 and 280 are empty and must be parked by demux,
  // not scanned. Analyses and counters are pinned at width 1 and must
  // not move at any swept width.
  constexpr std::size_t bsz = rtcc::net::kBatchSize;
  constexpr std::size_t min_chunk = ScanningDpi::kMinChunkVectors * bsz;
  constexpr std::size_t split = 2 * min_chunk - bsz;
  std::vector<std::size_t> lengths = {300};
  lengths.insert(lengths.end(), rtcc::testkit::kChunkEdgeLengths.begin(),
                 rtcc::testkit::kChunkEdgeLengths.end());
  lengths.insert(lengths.end(), {split, split + 1, 2 * min_chunk + 1,
                                 7 * min_chunk + 1});
  const ScanningDpi dpi;
  for (const std::size_t n : lengths) {
    SCOPED_TRACE("n=" + std::to_string(n));
    rtcc::util::Rng rng(0xace);
    std::vector<Bytes> payloads;
    std::size_t empties = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool empty = i == 7 || i == 280;
      empties += empty ? 1 : 0;
      payloads.push_back(rng.bytes(empty ? 0 : 40 + rng.below(200)));
    }
    const auto batch = batch_of(payloads);

    rtcc::dpi::PipelineCounters counters;
    const auto out = dpi.analyze_batch(batch, &counters);
    ASSERT_EQ(out.size(), n);
    for (const std::size_t width : rtcc::testkit::kDpiWidthSweep) {
      SCOPED_TRACE("width=" + std::to_string(width));
      rtcc::dpi::PipelineCounters wide_counters;
      expect_same_analyses(out,
                           dpi.analyze_batch(batch, &wide_counters, width));
      EXPECT_TRUE(wide_counters == counters);
    }

    const std::uint64_t vectors = (n + bsz - 1) / bsz;
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
  const ScanningDpi dpi;
  rtcc::dpi::PipelineCounters counters;
  const auto counted = dpi.analyze_batch(batch, &counters);
  const auto uncounted = dpi.analyze_batch(batch);
  EXPECT_TRUE(counters.scan.any());
  expect_same_analyses(counted, uncounted);
}

TEST(BatchPipeline, StreamEvidenceSpansChunks) {
  // Twice the per-chunk minimum plus one datagram: two chunks at every
  // swept width, split at datagram 512. Each stream-level validator's
  // evidence is split across that boundary — a TURN channel, an RTCP
  // sender SSRC, an RTP SSRC's three packets and two QUIC long headers
  // — so those messages are found only if validation sums the chunks'
  // support tables and joins their RTP pairs. Noise fills the rest.
  constexpr std::size_t n =
      2 * ScanningDpi::kMinChunkVectors * rtcc::net::kBatchSize + 1;
  constexpr std::size_t last = n - 1;
  rtcc::util::Rng rng(0xc4a2);
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < n; ++i)
    payloads.push_back(rng.bytes(40 + rng.below(200)));

  const Bytes channel = {0x40, 0x01, 0x00, 0x08, 1, 2, 3, 4, 5, 6, 7, 8};
  const Bytes rtcp_rr = {0x80, 0xC9, 0x00, 0x01, 0x11, 0x22, 0x33, 0x44};
  const auto rtp = [](std::uint8_t seq) {
    Bytes b = {0x80, 0x60, 0x00, seq,  0x00, 0x00,
               0x00, seq,  0xCA, 0xFE, 0xF0, 0x0D};
    b.resize(32, 0x5A);
    return b;
  };
  const auto quic_seed = [&rng](std::uint8_t form) {
    for (;;) {
      Bytes b = rtcc::testkit::make_seed(rtcc::testkit::SeedFamily::kQuic, rng);
      if (!b.empty() && (b[0] & 0xC0) == form) return b;
    }
  };
  Bytes quic_short = quic_seed(0x40);
  quic_short[0] = 0x5F;  // short form, first byte outside ChannelData's
  struct Evidence {
    std::size_t first, second;  // datagram in chunk 0, in chunk 1
    rtcc::dpi::MessageKind kind;
  };
  const Evidence evidence[] = {
      {0, last, rtcc::dpi::MessageKind::kChannelData},
      {1, last - 1, rtcc::dpi::MessageKind::kRtcp},
      {2, last - 2, rtcc::dpi::MessageKind::kRtp},
      {3, last - 4, rtcc::dpi::MessageKind::kQuic},
  };
  payloads[0] = payloads[last] = channel;
  payloads[1] = payloads[last - 1] = rtcp_rr;
  payloads[2] = rtp(1);
  payloads[last - 2] = rtp(2);
  payloads[last - 3] = rtp(3);
  payloads[3] = quic_seed(0xC0);
  payloads[last - 4] = quic_seed(0xC0);
  payloads[last - 5] = quic_short;

  const ScanningDpi dpi;
  const auto found = [](const DatagramAnalysis& a, rtcc::dpi::MessageKind k) {
    return !a.messages.empty() && a.messages.front().offset == 0 &&
           a.messages.front().kind == k;
  };
  const auto serial = dpi.analyze_batch(batch_of(payloads));
  for (const Evidence& e : evidence) {
    EXPECT_TRUE(found(serial[e.first], e.kind)) << e.first;
    EXPECT_TRUE(found(serial[e.second], e.kind)) << e.second;
  }
  EXPECT_TRUE(found(serial[last - 5], rtcc::dpi::MessageKind::kQuic));
  for (const std::size_t width : rtcc::testkit::kDpiWidthSweep) {
    SCOPED_TRACE("width=" + std::to_string(width));
    expect_same_analyses(serial, dpi.analyze_batch(batch_of(payloads), nullptr,
                                                   width));
  }

  // Control: without chunk 0's half, chunk 1's evidence falls short of
  // every validator's threshold.
  for (const Evidence& e : evidence) payloads[e.first] = rng.bytes(64);
  const auto lone = dpi.analyze_batch(batch_of(payloads), nullptr, 2);
  EXPECT_FALSE(found(lone[last], rtcc::dpi::MessageKind::kChannelData));
  EXPECT_FALSE(found(lone[last - 1], rtcc::dpi::MessageKind::kRtcp));
  EXPECT_FALSE(found(lone[last - 2], rtcc::dpi::MessageKind::kRtp));
  EXPECT_FALSE(found(lone[last - 5], rtcc::dpi::MessageKind::kQuic));
}

TEST(BatchPipeline, PartitionedSsrcLayoutsMatchAcrossWidths) {
  // The stream-level RTP tables are built from SSRC top-byte
  // partitions grouped on the pool. Three layouts stress that:
  //   * every noise SSRC in one partition, which also holds a genuine
  //     stream, so one task takes nearly all the pairs;
  //   * genuine streams on the partition-edge SSRCs 0x00000000,
  //     0x00FFFFFF, 0x01000000 and 0xFFFFFFFF;
  //   * one genuine SSRC with packets on both sides of every chunk
  //     boundary at every swept width.
  // Each stream is 14 vectors, so every swept width splits it into that
  // many chunks, and holds far more RTP candidates than the partition
  // floor. Analyses must match width 1 and the naive scan at every
  // width, with validation on and off (check_scan_equivalence).
  constexpr std::size_t bsz = rtcc::net::kBatchSize;
  constexpr std::size_t widest = *std::max_element(
      rtcc::testkit::kDpiWidthSweep.begin(),
      rtcc::testkit::kDpiWidthSweep.end());
  constexpr std::size_t n = widest * ScanningDpi::kMinChunkVectors * bsz;

  const auto rtp_header = [](Bytes& b, std::uint32_t ssrc,
                             std::uint16_t seq) {
    const Bytes h = {0x80,
                     0x60,
                     static_cast<std::uint8_t>(seq >> 8),
                     static_cast<std::uint8_t>(seq),
                     0x00,
                     0x00,
                     static_cast<std::uint8_t>(seq >> 8),
                     static_cast<std::uint8_t>(seq),
                     static_cast<std::uint8_t>(ssrc >> 24),
                     static_cast<std::uint8_t>(ssrc >> 16),
                     static_cast<std::uint8_t>(ssrc >> 8),
                     static_cast<std::uint8_t>(ssrc)};
    std::copy(h.begin(), h.end(), b.begin());
  };
  // Noise whose only RTP look-alikes are fake headers every 12 bytes
  // with SSRC top byte 0x5A: every other byte is below 0x40, so no
  // other offset starts an RTP candidate.
  const auto one_partition_noise = [](rtcc::util::Rng& rng, std::size_t len) {
    Bytes b(len);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(0x40));
    for (std::size_t at = 0; at + 12 <= len; at += 12) {
      b[at] = 0x80;
      b[at + 8] = 0x5A;
    }
    return b;
  };
  const auto random_noise = [](rtcc::util::Rng& rng, std::size_t len) {
    return rng.bytes(len);
  };

  struct Layout {
    const char* name;
    std::vector<std::uint32_t> ssrcs;  // genuine, in turn
    std::size_t every;                 // one genuine packet per `every`
    Bytes (*noise)(rtcc::util::Rng&, std::size_t);
  };
  const Layout layouts[] = {
      {"one noise partition", {0x5A000001}, 4, +one_partition_noise},
      {"edge SSRCs",
       {0x00000000, 0x00FFFFFF, 0x01000000, 0xFFFFFFFF},
       5,
       +random_noise},
      {"spans every chunk boundary", {0xCAFEF00D}, 3, +random_noise},
  };
  for (const Layout& layout : layouts) {
    SCOPED_TRACE(layout.name);
    rtcc::util::Rng rng(0x9a27);
    std::vector<Bytes> payloads;
    std::vector<std::uint16_t> seq(layout.ssrcs.size(), 100);
    std::vector<std::size_t> genuine;  // datagram -> index into ssrcs
    for (std::size_t i = 0; i < n; ++i) {
      Bytes b = layout.noise(rng, 48 + rng.below(48));
      if (i % layout.every == 0) {
        const std::size_t k = (i / layout.every) % layout.ssrcs.size();
        rtp_header(b, layout.ssrcs[k], seq[k]++);
        genuine.push_back(i);
      }
      payloads.push_back(std::move(b));
    }

    const auto err = rtcc::testkit::check_scan_equivalence(payloads);
    EXPECT_FALSE(err.has_value()) << *err;

    const auto out = ScanningDpi().analyze_batch(batch_of(payloads));
    std::uint64_t candidates = 0;
    for (const auto& a : out) candidates += a.candidates;
    EXPECT_GE(candidates, 16 * ScanningDpi::kPartitionMinPairs);
    for (const std::size_t i : genuine) {
      ASSERT_FALSE(out[i].messages.empty()) << i;
      const auto& m = out[i].messages.front();
      EXPECT_EQ(m.offset, 0u) << i;
      ASSERT_TRUE(m.rtp.has_value()) << i;
      EXPECT_EQ(m.rtp->ssrc,
                layout.ssrcs[(i / layout.every) % layout.ssrcs.size()])
          << i;
    }
  }
}

TEST(BatchPipeline, RtpPairsMergeWithOtherCandidatesByOffset) {
  // Extraction keeps RTP hits as packed pairs apart from the other
  // candidates, and phase 3 merges the two by offset per datagram. Three
  // hand-built shapes put an RTP hit next to another candidate, in
  // 0x3C filler that matches no protocol, so each datagram's candidates
  // are known exactly:
  //   * RTP at 0, an RTCP receiver report at its tail (inside the RTP
  //     message, which must cover it);
  //   * a STUN Binding request at 0, RTP right after it (both kept);
  //   * ChannelData at 0 wrapping RTP at 4 (the ChannelData covers it);
  //     its first byte also reads as a QUIC short header at offset 0,
  //     which the stream never validates (no long headers).
  // The RTP SSRC, the RTCP sender SSRC and the channel all repeat, so
  // every candidate validates on its own; only the merge order decides
  // which messages come out. Enough datagrams for four chunks.
  constexpr std::size_t n = 4 * ScanningDpi::kMinChunkVectors *
                            rtcc::net::kBatchSize;
  const auto rtp_header = [](std::size_t k) {
    // Sequence bytes stay below 0x40: no header byte but the first
    // starts an RTP look-alike.
    return Bytes{0x80, 0x60, static_cast<std::uint8_t>(k >> 6),
                 static_cast<std::uint8_t>(k & 0x3F), 0x3C, 0x3C, 0x3C, 0x3C,
                 0x3A, 0x3B, 0x3C, 0x3D};
  };
  const Bytes rtcp_rr = {0x80, 0xC9, 0x00, 0x01, 0x31, 0x32, 0x33, 0x34};
  const Bytes stun_binding = {0x00, 0x01, 0x00, 0x00, 0x21, 0x12, 0xA4,
                              0x42, 1,    2,    3,    4,    5,    6,
                              7,    8,    9,    10,   11,   12};
  const auto append = [](Bytes& b, const Bytes& tail) {
    b.insert(b.end(), tail.begin(), tail.end());
  };
  std::vector<Bytes> payloads;
  for (std::size_t i = 0; i < n; ++i) {
    Bytes b;
    switch (i % 3) {
      case 0:  // RTP | filler | RTCP RR: 48 bytes
        b = rtp_header(i);
        b.resize(40, 0x3C);
        append(b, rtcp_rr);
        break;
      case 1:  // STUN | RTP | filler: 52 bytes
        b = stun_binding;
        append(b, rtp_header(i));
        b.resize(52, 0x3C);
        break;
      default:  // ChannelData(RTP | filler): 48 bytes
        b = {0x40, 0x01, 0x00, 0x2C};
        append(b, rtp_header(i));
        b.resize(48, 0x3C);
        break;
    }
    payloads.push_back(std::move(b));
  }

  using rtcc::dpi::MessageKind;
  struct Expected {
    MessageKind kind;
    std::size_t offset, length;
  };
  const std::size_t candidates[3] = {2, 2, 3};
  const std::vector<Expected> expected[3] = {
      {{MessageKind::kRtp, 0, 48}},
      {{MessageKind::kStun, 0, 20}, {MessageKind::kRtp, 20, 32}},
      {{MessageKind::kChannelData, 0, 48}},
  };
  for (const bool anchored : {false, true}) {
    rtcc::dpi::ScanOptions opts;
    opts.use_anchor_prefilter = anchored;
    const ScanningDpi dpi(opts);
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(anchored ? "anchored" : "naive") +
                   " width=" + std::to_string(width));
      rtcc::dpi::PipelineCounters counters;
      const auto out = dpi.analyze_batch(batch_of(payloads), &counters, width);
      ASSERT_EQ(out.size(), n);
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < n; ++i) {
        SCOPED_TRACE("datagram " + std::to_string(i));
        EXPECT_EQ(out[i].candidates, candidates[i % 3]);
        total += candidates[i % 3];
        const auto& want = expected[i % 3];
        ASSERT_EQ(out[i].messages.size(), want.size());
        for (std::size_t m = 0; m < want.size(); ++m) {
          EXPECT_EQ(out[i].messages[m].kind, want[m].kind);
          EXPECT_EQ(out[i].messages[m].offset, want[m].offset);
          EXPECT_EQ(out[i].messages[m].length, want[m].length);
        }
      }
      if (anchored) {
        EXPECT_EQ(counters.scan.suspended, total);
      }
    }
  }
}

}  // namespace
