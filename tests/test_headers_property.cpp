// Property tests for net/headers.cpp: build_frame -> decode_frame is an
// exact inverse over randomized Ethernet/IPv4/IPv6/UDP/TCP combos, the
// arena builder is byte-identical, frame_wire_size is exact, and every
// emitted checksum verifies (including the RFC 768 zero -> 0xFFFF
// substitution).
#include <gtest/gtest.h>

#include <array>

#include "net/headers.hpp"
#include "util/rng.hpp"

namespace {

using rtcc::net::FrameSpec;
using rtcc::net::IpAddr;
using rtcc::net::Transport;
using rtcc::util::Bytes;
using rtcc::util::BytesView;
using rtcc::util::Rng;

constexpr std::size_t kEth = 14;

IpAddr random_addr(Rng& rng, bool v6) {
  if (!v6) return IpAddr::v4(static_cast<std::uint32_t>(rng.next_u32()));
  std::array<std::uint8_t, 16> b{};
  for (auto& byte : b) byte = rng.next_u8();
  return IpAddr::v6(b);
}

FrameSpec random_spec(Rng& rng, bool v6, Transport transport) {
  FrameSpec spec;
  spec.src = random_addr(rng, v6);
  spec.dst = random_addr(rng, v6);
  spec.src_port = static_cast<std::uint16_t>(1 + rng.below(65535));
  spec.dst_port = static_cast<std::uint16_t>(1 + rng.below(65535));
  spec.transport = transport;
  spec.ttl = static_cast<std::uint8_t>(1 + rng.below(255));
  return spec;
}

/// Expected L4 checksum recomputed from scratch over the pseudo-header
/// and the L4 segment with the checksum field zeroed, including the
/// zero -> 0xFFFF substitution UDP requires (RFC 768).
std::uint16_t expected_udp_checksum(const FrameSpec& spec, BytesView frame) {
  const bool v6 = spec.src.is_v6();
  const std::size_t l4_off = kEth + (v6 ? 40 : 20);
  const std::size_t l4_len = frame.size() - l4_off;
  Bytes buf;
  if (!v6) {
    buf.resize(12);
    rtcc::util::store_be32(buf.data(), spec.src.v4_value());
    rtcc::util::store_be32(buf.data() + 4, spec.dst.v4_value());
    buf[8] = 0;
    buf[9] = 17;
    rtcc::util::store_be16(buf.data() + 10,
                           static_cast<std::uint16_t>(l4_len));
  } else {
    buf.resize(40);
    std::copy(spec.src.v6_bytes().begin(), spec.src.v6_bytes().end(),
              buf.begin());
    std::copy(spec.dst.v6_bytes().begin(), spec.dst.v6_bytes().end(),
              buf.begin() + 16);
    rtcc::util::store_be32(buf.data() + 32,
                           static_cast<std::uint32_t>(l4_len));
    buf[36] = buf[37] = buf[38] = 0;
    buf[39] = 17;
  }
  buf.insert(buf.end(), frame.begin() + static_cast<std::ptrdiff_t>(l4_off),
             frame.end());
  const std::size_t csum_field = buf.size() - l4_len + 6;
  buf[csum_field] = 0;
  buf[csum_field + 1] = 0;
  const std::uint16_t c = rtcc::net::internet_checksum(BytesView{buf});
  return c == 0 ? 0xFFFF : c;
}

void check_roundtrip(const FrameSpec& spec, BytesView payload) {
  const Bytes frame = rtcc::net::build_frame(spec, payload);
  ASSERT_EQ(frame.size(), rtcc::net::frame_wire_size(spec, payload.size()));

  // The arena builder must be byte-identical.
  rtcc::net::FrameArena arena;
  const rtcc::net::Frame af =
      rtcc::net::build_frame_arena(arena, 1.0, spec, payload);
  ASSERT_EQ(af.size(), frame.size());
  const BytesView av = arena.view(af.off, af.len);
  ASSERT_EQ(av.size(), frame.size());
  EXPECT_TRUE(std::equal(av.begin(), av.end(), frame.begin()));

  const auto decoded = rtcc::net::decode_frame(BytesView{frame});
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src, spec.src);
  EXPECT_EQ(decoded->dst, spec.dst);
  EXPECT_EQ(decoded->src_port, spec.src_port);
  EXPECT_EQ(decoded->dst_port, spec.dst_port);
  EXPECT_EQ(decoded->transport, spec.transport);
  EXPECT_EQ(decoded->is_v6, spec.src.is_v6());
  ASSERT_EQ(decoded->payload.size(), payload.size());
  EXPECT_TRUE(std::equal(decoded->payload.begin(), decoded->payload.end(),
                         payload.begin()));

  const bool v6 = spec.src.is_v6();
  const std::size_t l4_off = kEth + (v6 ? 40 : 20);
  if (!v6) {
    // IPv4 header checksum must verify (sum over the header == 0).
    EXPECT_EQ(rtcc::net::internet_checksum(
                  BytesView{frame.data() + kEth, 20}),
              0);
  }
  const std::uint16_t stored =
      rtcc::util::load_be16(frame.data() + l4_off + (v6 ? 6 : 6));
  if (spec.transport == Transport::kUdp) {
    EXPECT_EQ(stored, expected_udp_checksum(spec, BytesView{frame}));
  } else {
    // TCP checksum is documented as left zero (never verified by the
    // analysis pipeline); pin that so a silent change is visible.
    const std::uint16_t tcp_csum =
        rtcc::util::load_be16(frame.data() + l4_off + 16);
    EXPECT_EQ(tcp_csum, 0);
  }
}

TEST(HeadersProperty, RandomizedRoundTripAllCombos) {
  Rng rng(0xbeefcafe);
  for (int iter = 0; iter < 300; ++iter) {
    const bool v6 = (iter & 1) != 0;
    const Transport transport =
        (iter & 2) != 0 ? Transport::kTcp : Transport::kUdp;
    const FrameSpec spec = random_spec(rng, v6, transport);
    const Bytes payload = rng.bytes(rng.below(400));
    check_roundtrip(spec, BytesView{payload});
  }
}

TEST(HeadersProperty, EmptyAndOddPayloads) {
  Rng rng(42);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{1473}}) {
    const Bytes payload = rng.bytes(len);
    check_roundtrip(random_spec(rng, false, Transport::kUdp),
                    BytesView{payload});
    check_roundtrip(random_spec(rng, true, Transport::kUdp),
                    BytesView{payload});
  }
}

TEST(HeadersProperty, UdpZeroChecksumSubstitution) {
  // Hunt a payload whose computed UDP checksum is zero; the frame must
  // carry 0xFFFF instead (RFC 768: zero means "no checksum").
  FrameSpec spec;
  spec.src = IpAddr::v4(10, 0, 0, 1);
  spec.dst = IpAddr::v4(10, 0, 0, 2);
  spec.src_port = 1000;
  spec.dst_port = 2000;
  spec.transport = Transport::kUdp;
  bool found = false;
  for (std::uint32_t u = 0; u <= 0xFFFF && !found; ++u) {
    const Bytes payload = {static_cast<std::uint8_t>(u >> 8),
                           static_cast<std::uint8_t>(u & 0xFF)};
    const Bytes frame = rtcc::net::build_frame(spec, BytesView{payload});
    const std::uint16_t stored =
        rtcc::util::load_be16(frame.data() + kEth + 20 + 6);
    if (stored == 0xFFFF) {
      EXPECT_EQ(expected_udp_checksum(spec, BytesView{frame}), 0xFFFF);
      check_roundtrip(spec, BytesView{payload});
      found = true;
    }
  }
  EXPECT_TRUE(found)
      << "no 2-byte payload produced the zero-checksum substitution";
}

TEST(HeadersProperty, DecodeRejectsTruncation) {
  Rng rng(7);
  const FrameSpec spec = random_spec(rng, false, Transport::kUdp);
  const Bytes payload = rng.bytes(32);
  const Bytes frame = rtcc::net::build_frame(spec, BytesView{payload});
  // Any strict prefix that cuts into the headers must be rejected, and
  // no truncation may crash (the pcap path feeds decode_frame raw).
  for (std::size_t len = 0; len < frame.size(); ++len)
    (void)rtcc::net::decode_frame(BytesView{frame.data(), len});
  for (std::size_t len = 0; len < kEth + 20 + 8; ++len)
    EXPECT_FALSE(
        rtcc::net::decode_frame(BytesView{frame.data(), len}).has_value())
        << "accepted a frame truncated to " << len << " bytes";
}

}  // namespace
