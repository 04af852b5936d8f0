// ScanningDpi (Algorithm 1): candidate extraction at shifted offsets,
// stream-level validation, overlap resolution, proprietary-header and
// fully-proprietary classification, plus the StrictDpi baseline.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "dpi/scanning_dpi.hpp"
#include "dpi/strict_dpi.hpp"
#include "net/packet_batch.hpp"
#include "util/rng.hpp"

namespace rtcc::dpi {
namespace {

namespace stun = rtcc::proto::stun;
namespace rtp = rtcc::proto::rtp;
namespace rtcp = rtcc::proto::rtcp;
namespace quic = rtcc::proto::quic;
using rtcc::util::Bytes;
using rtcc::util::BytesView;
using rtcc::util::Rng;

/// Owns datagram buffers and hands out views.
struct StreamFixture {
  std::vector<Bytes> buffers;

  void add(Bytes b, double ts = 0.0) {
    buffers.push_back(std::move(b));
    timestamps.push_back(ts);
  }
  std::vector<double> timestamps;

  [[nodiscard]] std::vector<StreamDatagram> datagrams() const {
    std::vector<StreamDatagram> out;
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      StreamDatagram d;
      d.payload = BytesView{buffers[i]};
      d.ts = timestamps[i];
      out.push_back(d);
    }
    return out;
  }
};

Bytes rtp_packet(Rng& rng, std::uint32_t ssrc, std::uint16_t seq,
                 std::size_t payload = 100) {
  rtp::PacketBuilder b;
  b.payload_type(96).seq(seq).timestamp(seq * 960).ssrc(ssrc);
  b.payload(BytesView{rng.bytes(payload)});
  return b.build();
}

TEST(ScanningDpi, PlainRtpStreamAtOffsetZero) {
  Rng rng(1);
  StreamFixture f;
  for (std::uint16_t i = 0; i < 10; ++i)
    f.add(rtp_packet(rng, 0xAABB, static_cast<std::uint16_t>(100 + i)));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out.size(), 10u);
  for (const auto& a : out) {
    EXPECT_EQ(a.klass, DatagramClass::kStandard);
    ASSERT_EQ(a.messages.size(), 1u);
    EXPECT_EQ(a.messages[0].kind, MessageKind::kRtp);
    EXPECT_EQ(a.messages[0].rtp->ssrc, 0xAABBu);
  }
}

TEST(ScanningDpi, RtpBehindProprietaryHeaderIsFound) {
  // The Zoom/FaceTime pattern: unknown bytes, then a standard message.
  Rng rng(2);
  StreamFixture f;
  for (std::uint16_t i = 0; i < 10; ++i) {
    Bytes header = {0x60, 0x00, 0x00, 0x20, 0x11, 0x22, 0x33, 0x44};
    Bytes inner = rtp_packet(rng, 0xCCDD, static_cast<std::uint16_t>(i));
    header.insert(header.end(), inner.begin(), inner.end());
    f.add(std::move(header));
  }
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  for (const auto& a : out) {
    EXPECT_EQ(a.klass, DatagramClass::kProprietaryHeader);
    EXPECT_EQ(a.proprietary_header_len, 8u);
    ASSERT_EQ(a.messages.size(), 1u);
    EXPECT_EQ(a.messages[0].offset, 8u);
  }
}

TEST(ScanningDpi, OffsetLimitBoundsDiscovery) {
  // With k smaller than the header, the embedded message is missed and
  // the datagram classifies fully proprietary (the §4.1.1 tradeoff).
  Rng rng(3);
  StreamFixture f;
  for (std::uint16_t i = 0; i < 6; ++i) {
    Bytes header(40, 0x00);
    Bytes inner = rtp_packet(rng, 0x1234, static_cast<std::uint16_t>(i));
    header.insert(header.end(), inner.begin(), inner.end());
    f.add(std::move(header));
  }
  ScanOptions small;
  small.max_offset = 8;
  auto out_small = ScanningDpi(small).analyze_stream(f.datagrams());
  for (const auto& a : out_small)
    EXPECT_EQ(a.klass, DatagramClass::kFullyProprietary);

  ScanOptions enough;
  enough.max_offset = 200;
  auto out_big = ScanningDpi(enough).analyze_stream(f.datagrams());
  for (const auto& a : out_big)
    EXPECT_EQ(a.klass, DatagramClass::kProprietaryHeader);
}

TEST(ScanningDpi, FullyProprietaryDatagrams) {
  StreamFixture f;
  for (int i = 0; i < 5; ++i) f.add(Bytes(1000, 0x01));  // Zoom filler
  const ScanningDpi dpi;
  for (const auto& a : dpi.analyze_stream(f.datagrams())) {
    EXPECT_EQ(a.klass, DatagramClass::kFullyProprietary);
    EXPECT_TRUE(a.messages.empty());
  }
}

TEST(ScanningDpi, LowSupportRtpRejected) {
  // A single datagram whose bytes happen to parse as RTP must not be
  // reported: SSRC support requires min_ssrc_support appearances.
  Rng rng(4);
  StreamFixture f;
  f.add(rtp_packet(rng, 0x5555, 1));
  f.add(Bytes(200, 0x00));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  EXPECT_EQ(out[0].klass, DatagramClass::kFullyProprietary);
}

TEST(ScanningDpi, StunModernAtAnyReasonableOffset) {
  Rng rng(5);
  const Bytes msg = stun::MessageBuilder(stun::kBindingRequest)
                        .random_transaction_id(rng)
                        .build();
  StreamFixture f;
  Bytes shifted;
  shifted.reserve(12 + msg.size());
  shifted.assign(12, 0xEE);
  shifted.insert(shifted.end(), msg.begin(), msg.end());
  f.add(std::move(shifted));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out[0].messages.size(), 1u);
  EXPECT_EQ(out[0].messages[0].kind, MessageKind::kStun);
  EXPECT_EQ(out[0].messages[0].offset, 12u);
  EXPECT_EQ(out[0].klass, DatagramClass::kProprietaryHeader);
}

TEST(ScanningDpi, ClassicStunNeedsExactFitAndKnownMethod) {
  Rng rng(6);
  // Classic (no cookie) Binding Request, exact datagram fit → found.
  const Bytes classic = stun::MessageBuilder(stun::kBindingRequest)
                            .classic_rfc3489(rng)
                            .random_transaction_id(rng)
                            .build();
  StreamFixture f;
  f.add(classic);
  // Same message with trailing junk → no exact fit → not a candidate.
  Bytes with_junk = classic;
  with_junk.insert(with_junk.end(), 8, 0xAB);
  f.add(std::move(with_junk));

  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out[0].messages.size(), 1u);
  EXPECT_EQ(out[0].messages[0].kind, MessageKind::kStun);
  EXPECT_TRUE(out[1].messages.empty());
}

TEST(ScanningDpi, ZoomDoubleRtpIsSplit) {
  // §5.3: two RTP messages in one datagram, same SSRC, first has a
  // 7-byte payload.
  Rng rng(7);
  StreamFixture f;
  // Support packets so the SSRC validates.
  for (std::uint16_t i = 0; i < 8; ++i)
    f.add(rtp_packet(rng, 0xD0D0, static_cast<std::uint16_t>(i)));
  rtp::PacketBuilder first;
  first.payload_type(110).seq(100).timestamp(42).ssrc(0xD0D0);
  first.payload(BytesView{rng.bytes(7)});
  rtp::PacketBuilder second;
  second.payload_type(110).seq(107).timestamp(42).ssrc(0xD0D0);
  second.payload(BytesView{rng.bytes(500)});
  Bytes both = first.build();
  Bytes tail = second.build();
  both.insert(both.end(), tail.begin(), tail.end());
  f.add(std::move(both));

  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  const auto& doubled = out.back();
  ASSERT_EQ(doubled.messages.size(), 2u);
  EXPECT_EQ(doubled.messages[0].rtp->payload_len, 7u);
  EXPECT_EQ(doubled.messages[0].length, 19u);
  EXPECT_EQ(doubled.messages[1].offset, 19u);
  EXPECT_EQ(doubled.messages[1].rtp->payload_len, 500u);
  EXPECT_EQ(doubled.messages[0].rtp->timestamp,
            doubled.messages[1].rtp->timestamp);
}

TEST(ScanningDpi, RtcpCompoundWithTrailerExtracted) {
  rtcp::SenderReport sr;
  sr.sender_ssrc = 99;
  rtcp::Compound c;
  c.packets.push_back(rtcp::make_sender_report(sr));
  Bytes wire = rtcp::encode_compound(c);
  wire.push_back(0x00);
  wire.push_back(0x01);
  wire.push_back(0x80);  // Discord trailer

  StreamFixture f;
  f.add(wire);
  f.add(wire);  // SSRC support ≥ 2
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out[0].messages.size(), 1u);
  EXPECT_EQ(out[0].messages[0].kind, MessageKind::kRtcp);
  EXPECT_EQ(out[0].messages[0].rtcp->trailing.size(), 3u);
}

TEST(ScanningDpi, QuicLongAndShortHeaders) {
  Rng rng(8);
  quic::ConnectionId cid{rng.bytes(8)};
  StreamFixture f;
  f.add(quic::encode_long(quic::LongType::kInitial, quic::kVersion1, cid,
                          cid, BytesView{rng.bytes(200)}));
  f.add(quic::encode_long(quic::LongType::kHandshake, quic::kVersion1, cid,
                          cid, BytesView{rng.bytes(80)}));
  f.add(quic::encode_short(cid, BytesView{rng.bytes(60)}));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out[0].messages.size(), 1u);
  EXPECT_EQ(out[0].messages[0].type_label(), "long-0");
  EXPECT_EQ(out[1].messages[0].type_label(), "long-2");
  ASSERT_EQ(out[2].messages.size(), 1u);
  EXPECT_EQ(out[2].messages[0].type_label(), "short");
}

TEST(ScanningDpi, ShortHeaderAloneIsNotQuic) {
  // Without a long-header handshake in the stream, 0x4X first bytes
  // must not be claimed as QUIC.
  Rng rng(9);
  StreamFixture f;
  Bytes fake = rng.bytes(80);
  fake[0] = 0x41;
  f.add(std::move(fake));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  EXPECT_TRUE(out[0].messages.empty());
}

TEST(ScanningDpi, ChannelDataRequiresRepeatedChannel) {
  StreamFixture f;
  stun::ChannelData cd;
  cd.channel_number = 0x4004;
  cd.data = Bytes(16, 7);
  const Bytes wire = stun::encode_channel_data(cd);
  f.add(wire);
  const ScanningDpi dpi;
  // Single occurrence → rejected (support < 2).
  auto out1 = dpi.analyze_stream(f.datagrams());
  EXPECT_TRUE(out1[0].messages.empty());
  // Repeated occurrences → accepted.
  f.add(wire);
  f.add(wire);
  auto out3 = dpi.analyze_stream(f.datagrams());
  ASSERT_EQ(out3[0].messages.size(), 1u);
  EXPECT_EQ(out3[0].messages[0].kind, MessageKind::kChannelData);
}

TEST(ScanningDpi, ValidationDisabledKeepsCandidates) {
  Rng rng(10);
  StreamFixture f;
  f.add(rtp_packet(rng, 0x7777, 5));  // single → normally rejected
  ScanOptions no_validate;
  no_validate.validate = false;
  auto out = ScanningDpi(no_validate).analyze_stream(f.datagrams());
  EXPECT_FALSE(out[0].messages.empty());
  EXPECT_GE(out[0].candidates, 1u);
}

/// Writes a bare RTP header at `at`: version 2, PT 0, no CSRCs,
/// extension or padding, timestamp 0. With the small SSRCs and sequence
/// numbers below, every byte after the first is under 0x40, so no other
/// offset starts a candidate of any protocol.
void put_bare_rtp(Bytes& b, std::size_t at, std::uint32_t ssrc,
                  std::uint16_t seq) {
  b[at] = 0x80;
  b[at + 2] = static_cast<std::uint8_t>(seq >> 8);
  b[at + 3] = static_cast<std::uint8_t>(seq);
  for (int i = 0; i < 4; ++i)
    b[at + 8 + i] = static_cast<std::uint8_t>(ssrc >> (24 - 8 * i));
}

TEST(ScanningDpi, OverlapDominanceArithmetic) {
  // Two RTP candidates in one datagram overlap, and the one whose SSRC
  // support is 4x below the other's is dropped: support(n) > 4 *
  // support(c). Each pair datagram holds a candidate at offset 0 and
  // one at offset 20; each SSRC's other packets are alone in theirs,
  // spread over the four chunks of a width-4 call. Empty datagrams fill
  // the stream to 8 vectors.
  //   S1 (support 1) beside A (4): 4 > 4 is false, S1 stays.
  //   S2 (support 1) beside B (5): 5 > 4, S2 goes.
  //   P  (support 2) beside Q (8): 8 > 8 is false, P stays.
  //   R  (support 2) beside T (9): 9 > 8, R goes.
  // S1 and S2 are seen once, so the RTP tables do not hold them; their
  // support must still read 1, not 0 (which would drop S1).
  enum : std::uint32_t {
    kS1 = 0x01010101, kA = 0x02020202, kS2 = 0x03030303, kB = 0x04040404,
    kP = 0x05050505, kQ = 0x06060606, kR = 0x07070707, kT = 0x08080808,
  };
  constexpr std::size_t n = 8 * rtcc::net::kBatchSize;
  std::vector<Bytes> payloads(n);
  const auto add_pair = [&](std::size_t i, std::uint32_t first,
                            std::uint32_t second) {
    payloads[i].assign(40, 0);
    put_bare_rtp(payloads[i], 0, first, 1);
    put_bare_rtp(payloads[i], 20, second, 1);
  };
  // 24 lone packets, 71 datagrams apart from 300 on: every chunk of
  // the width-4 call (512 datagrams each) holds some.
  std::size_t next_single = 300;
  const auto add_singles = [&](std::uint32_t ssrc, std::uint16_t count) {
    for (std::uint16_t seq = 2; seq < 2 + count; ++seq) {
      Bytes& b = payloads.at(next_single);
      next_single += 71;
      b.assign(32, 0);
      put_bare_rtp(b, 0, ssrc, seq);
    }
  };
  add_pair(10, kS1, kA);
  add_singles(kA, 3);
  add_pair(20, kS2, kB);
  add_singles(kB, 4);
  add_pair(30, kP, kQ);
  add_singles(kP, 1);
  add_singles(kQ, 7);
  add_pair(40, kR, kT);
  add_singles(kR, 1);
  add_singles(kT, 8);

  rtcc::net::PacketBatch batch;
  for (std::size_t i = 0; i < n; ++i)
    batch.push(BytesView{payloads[i]}, static_cast<double>(i) * 0.01, 0);

  struct Expect {
    std::size_t datagram;
    std::uint32_t ssrc;
    std::size_t offset;
  };
  ScanOptions no_validate;
  no_validate.validate = false;
  ScanOptions support_one;
  support_one.min_ssrc_support = 1;
  const struct {
    const char* name;
    ScanOptions opts;
    std::vector<Expect> pairs;
  } configs[] = {
      // Every candidate is validated; only dominance drops S2 and R.
      {"validate=false", no_validate,
       {{10, kS1, 0}, {20, kB, 20}, {30, kP, 0}, {40, kT, 20}}},
      // A lone packet never shows continuity, so S1 and S2 fail
      // validation; every other SSRC's sequence numbers are adjacent.
      {"min_ssrc_support=1", support_one,
       {{10, kA, 20}, {20, kB, 20}, {30, kP, 0}, {40, kT, 20}}},
  };
  for (const auto& config : configs) {
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(config.name) + " width " +
                   std::to_string(width));
      const auto out =
          ScanningDpi(config.opts).analyze_batch(batch, nullptr, width);
      ASSERT_EQ(out.size(), n);
      std::size_t checked = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (payloads[i].empty()) {
          EXPECT_EQ(out[i].candidates, 0u) << i;
          continue;
        }
        ++checked;
        const bool is_pair = payloads[i].size() == 40;
        EXPECT_EQ(out[i].candidates, is_pair ? 2u : 1u) << i;
        Expect e{i, rtcc::util::load_be32(payloads[i].data() + 8), 0};
        for (const Expect& p : config.pairs)
          if (p.datagram == i) e = p;
        ASSERT_EQ(out[i].messages.size(), 1u) << i;
        const ExtractedMessage& m = out[i].messages.front();
        EXPECT_EQ(m.kind, MessageKind::kRtp) << i;
        EXPECT_EQ(m.offset, e.offset) << i;
        EXPECT_EQ(m.length, payloads[i].size() - e.offset) << i;
        ASSERT_TRUE(m.rtp.has_value()) << i;
        EXPECT_EQ(m.rtp->ssrc, e.ssrc) << i;
        EXPECT_EQ(out[i].klass, e.offset == 0
                                    ? DatagramClass::kStandard
                                    : DatagramClass::kProprietaryHeader)
            << i;
      }
      EXPECT_EQ(checked, 4u + 3 + 4 + 1 + 7 + 1 + 8);
    }
  }
}

TEST(ScanningDpi, CandidateCountsReported) {
  Rng rng(11);
  StreamFixture f;
  for (std::uint16_t i = 0; i < 5; ++i)
    f.add(rtp_packet(rng, 0x4242, i, 400));
  const ScanningDpi dpi;
  auto out = dpi.analyze_stream(f.datagrams());
  std::uint64_t candidates = 0, messages = 0;
  for (const auto& a : out) {
    candidates += a.candidates;
    messages += a.messages.size();
  }
  EXPECT_EQ(messages, 5u);
  EXPECT_GT(candidates, messages);  // scan noise exists and is filtered
}

TEST(ScanningDpi, RtpHitsPackAtTheLargestScanOffset) {
  // An RTP hit is stored with its offset packed into 16 bits, so the
  // scan stops at kMaxScanOffset = 65535 whatever max_offset asks (a UDP
  // payload never reaches it). Oversize datagrams carry a genuine RTP
  // header at offset 65535, the largest packable one, or at 65536, the
  // first past the clamp, inside 0x3C filler that matches no protocol.
  // The rest of the stream is small RTP of another SSRC, long enough to
  // split into four chunks with one offset-65535 datagram in each. Both
  // extraction paths must agree at widths 1 and 4.
  ASSERT_EQ(kMaxScanOffset, 0xFFFFu);
  constexpr std::size_t bsz = rtcc::net::kBatchSize;
  constexpr std::size_t n = 4 * ScanningDpi::kMinChunkVectors * bsz;
  constexpr std::size_t chunk = n / 4;
  constexpr std::uint32_t kFar = 0x3A3B3C3D, kNear = 0x0A0B0C0D;
  // Sequence bytes stay below 0x40, so no header byte but the first
  // starts an RTP look-alike.
  const auto put_header = [](Bytes& b, std::size_t at, std::uint32_t ssrc,
                             std::size_t k) {
    const Bytes h = {0x80,
                     0x60,
                     static_cast<std::uint8_t>(k >> 6),
                     static_cast<std::uint8_t>(k & 0x3F),
                     0x3C,
                     0x3C,
                     0x3C,
                     0x3C,
                     static_cast<std::uint8_t>(ssrc >> 24),
                     static_cast<std::uint8_t>(ssrc >> 16),
                     static_cast<std::uint8_t>(ssrc >> 8),
                     static_cast<std::uint8_t>(ssrc)};
    std::copy(h.begin(), h.end(), b.begin() + static_cast<std::ptrdiff_t>(at));
  };
  std::vector<Bytes> payloads;
  std::vector<std::size_t> at_max, past_max;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % chunk == 5) {
      Bytes b(kMaxScanOffset + 12 + 4, 0x3C);
      put_header(b, kMaxScanOffset, kFar, at_max.size() + 1);
      at_max.push_back(i);
      payloads.push_back(std::move(b));
    } else if (i % chunk == 300) {
      Bytes b(kMaxScanOffset + 1 + 12, 0x3C);
      put_header(b, kMaxScanOffset + 1, kFar + 1, past_max.size() + 1);
      past_max.push_back(i);
      payloads.push_back(std::move(b));
    } else {
      Bytes b(32, 0x3C);
      put_header(b, 0, kNear, i);
      payloads.push_back(std::move(b));
    }
  }
  rtcc::net::PacketBatch batch;
  for (std::size_t i = 0; i < n; ++i)
    batch.push(BytesView{payloads[i]}, static_cast<double>(i) * 0.02, 0);

  for (const bool anchored : {false, true}) {
    ScanOptions opts;
    opts.max_offset = std::numeric_limits<std::size_t>::max();
    opts.use_anchor_prefilter = anchored;
    const ScanningDpi dpi(opts);
    for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(anchored ? "anchored" : "naive") +
                   " width=" + std::to_string(width));
      const auto out = dpi.analyze_batch(batch, nullptr, width);
      ASSERT_EQ(out.size(), n);
      for (const std::size_t i : at_max) {
        const DatagramAnalysis& a = out[i];
        EXPECT_EQ(a.candidates, 1u) << i;
        ASSERT_EQ(a.messages.size(), 1u) << i;
        EXPECT_EQ(a.messages[0].kind, MessageKind::kRtp);
        EXPECT_EQ(a.messages[0].offset, kMaxScanOffset);
        EXPECT_EQ(a.messages[0].length, 16u);
        ASSERT_TRUE(a.messages[0].rtp.has_value());
        EXPECT_EQ(a.messages[0].rtp->ssrc, kFar);
        EXPECT_EQ(a.klass, DatagramClass::kProprietaryHeader);
        EXPECT_EQ(a.proprietary_header_len, kMaxScanOffset);
      }
      for (const std::size_t i : past_max) {
        EXPECT_EQ(out[i].candidates, 0u) << i;
        EXPECT_EQ(out[i].klass, DatagramClass::kFullyProprietary) << i;
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (i % chunk == 5 || i % chunk == 300) continue;
        EXPECT_EQ(out[i].candidates, 1u) << i;
        ASSERT_EQ(out[i].messages.size(), 1u) << i;
        EXPECT_EQ(out[i].messages[0].offset, 0u) << i;
        EXPECT_EQ(out[i].klass, DatagramClass::kStandard) << i;
      }
    }
  }
}

TEST(ScanningDpi, NoOffsetHoldsAnRtpAndAnotherCandidate) {
  // Phase 3 merges each datagram's RTP pairs with its other candidates
  // by offset, RTP last at an equal offset as emission orders them. That
  // tie rule never shows in the output because no offset can hold both:
  // the first byte's top two bits split STUN (00), ChannelData and QUIC
  // short headers (01), RTP and RTCP (10) and QUIC long headers (11),
  // and RTP skips the RTCP payload types. Pin that premise on every
  // first-two-byte pair, scanning offset 0 only, behind tails that let
  // each kind match: a 20-byte classic STUN fit, a 24-byte tail that
  // fits RTP and RTCP, and a magic cookie.
  ScanOptions rtp_only, others;
  rtp_only.max_offset = others.max_offset = 0;
  rtp_only.validate = others.validate = false;
  rtp_only.scan_stun = rtp_only.scan_rtcp = rtp_only.scan_quic = false;
  others.scan_rtp = false;
  const Bytes tails[] = {
      Bytes(18, 0x00),
      Bytes(22, 0x00),
      {0x00, 0x00, 0x21, 0x12, 0xA4, 0x42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
       12},
  };
  for (const Bytes& tail : tails) {
    std::vector<Bytes> payloads;
    for (std::size_t b = 0; b < 0x10000; ++b) {
      Bytes d = {static_cast<std::uint8_t>(b >> 8),
                 static_cast<std::uint8_t>(b)};
      d.insert(d.end(), tail.begin(), tail.end());
      payloads.push_back(std::move(d));
    }
    rtcc::net::PacketBatch batch;
    for (const Bytes& d : payloads) batch.push(BytesView{d}, 0.0, 0);
    for (const bool anchored : {false, true}) {
      rtp_only.use_anchor_prefilter = others.use_anchor_prefilter = anchored;
      const auto rtp = ScanningDpi(rtp_only).analyze_batch(batch);
      const auto rest = ScanningDpi(others).analyze_batch(batch);
      std::size_t rtp_hits = 0, other_hits = 0;
      for (std::size_t b = 0; b < payloads.size(); ++b) {
        rtp_hits += rtp[b].candidates;
        other_hits += rest[b].candidates;
        EXPECT_FALSE(rtp[b].candidates > 0 && rest[b].candidates > 0)
            << (anchored ? "anchored" : "naive") << ", first bytes "
            << std::hex << b;
      }
      EXPECT_GT(rtp_hits, 0u);  // the premise is tested, not vacuous
      EXPECT_GT(other_hits, 0u);
    }
  }
}

TEST(StrictDpi, OffsetZeroOnly) {
  Rng rng(12);
  StreamFixture f;
  // Static PT 8 (PCMA) at offset 0 → strict finds it.
  rtp::PacketBuilder ok;
  ok.payload_type(8).seq(1).timestamp(2).ssrc(3);
  ok.payload(BytesView{rng.bytes(50)});
  f.add(ok.build());
  // Same message behind 8 junk bytes → strict misses it.
  Bytes shifted(8, 0xAA);
  Bytes inner = ok.build();
  shifted.insert(shifted.end(), inner.begin(), inner.end());
  f.add(std::move(shifted));

  const StrictDpi strict;
  auto out = strict.analyze_stream(f.datagrams());
  EXPECT_EQ(out[0].messages.size(), 1u);
  EXPECT_TRUE(out[1].messages.empty());
  EXPECT_EQ(out[1].klass, DatagramClass::kFullyProprietary);
}

TEST(StrictDpi, DynamicPayloadTypesRejected) {
  // The Peafowl restriction the paper removed (§4.1.1).
  Rng rng(13);
  rtp::PacketBuilder b;
  b.payload_type(96).seq(1).timestamp(2).ssrc(3);
  b.payload(BytesView{rng.bytes(50)});
  StreamFixture f;
  f.add(b.build());

  const StrictDpi strict;
  EXPECT_TRUE(strict.analyze_stream(f.datagrams())[0].messages.empty());

  StrictOptions relaxed;
  relaxed.restrict_rtp_payload_types = false;
  EXPECT_EQ(StrictDpi(relaxed).analyze_stream(f.datagrams())[0]
                .messages.size(),
            1u);
}

TEST(StrictDpi, RequiresMagicCookieForStun) {
  Rng rng(14);
  StreamFixture f;
  f.add(stun::MessageBuilder(stun::kBindingRequest)
            .classic_rfc3489(rng)
            .random_transaction_id(rng)
            .build());
  f.add(stun::MessageBuilder(stun::kBindingRequest)
            .random_transaction_id(rng)
            .build());
  const StrictDpi strict;
  auto out = strict.analyze_stream(f.datagrams());
  EXPECT_TRUE(out[0].messages.empty());     // classic rejected
  EXPECT_EQ(out[1].messages.size(), 1u);    // modern accepted
}

TEST(MessageModel, TypeLabelsAndProtocols) {
  EXPECT_EQ(protocol_of(MessageKind::kStun), proto::Protocol::kStunTurn);
  EXPECT_EQ(protocol_of(MessageKind::kChannelData),
            proto::Protocol::kStunTurn);
  EXPECT_EQ(protocol_of(MessageKind::kRtp), proto::Protocol::kRtp);
  EXPECT_EQ(protocol_of(MessageKind::kRtcp), proto::Protocol::kRtcp);
  EXPECT_EQ(protocol_of(MessageKind::kQuic), proto::Protocol::kQuic);
  EXPECT_EQ(to_string(DatagramClass::kProprietaryHeader),
            "proprietary-header");
}

}  // namespace
}  // namespace rtcc::dpi
