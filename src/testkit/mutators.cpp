#include "testkit/mutators.hpp"

#include <algorithm>

#include "proto/stun/stun.hpp"
#include "util/bytes.hpp"

namespace rtcc::testkit {

using rtcc::util::Bytes;
using rtcc::util::BytesView;
using rtcc::util::load_be16;
using rtcc::util::Rng;
using rtcc::util::store_be16;

namespace {

Bytes to_bytes(BytesView v) { return Bytes(v.begin(), v.end()); }

Bytes flip_bits(BytesView seed, Rng& rng, std::size_t max_flips) {
  Bytes out = to_bytes(seed);
  if (out.empty()) return out;
  const std::size_t flips = 1 + rng.below(max_flips);
  for (std::size_t i = 0; i < flips; ++i)
    out[rng.below(out.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
  return out;
}

Bytes truncate(BytesView seed, Rng& rng) {
  if (seed.empty()) return {};
  return to_bytes(seed.subspan(0, rng.below(seed.size())));
}

Bytes prefix(BytesView seed, Rng& rng) {
  // Proprietary-header shape: a handful of leading unknown bytes ahead
  // of the (possibly still valid) standard message.
  Bytes out = rng.bytes(1 + rng.below(24));
  out.insert(out.end(), seed.begin(), seed.end());
  return out;
}

Bytes splice(BytesView a, BytesView b, Rng& rng) {
  if (a.empty()) return to_bytes(b);
  if (b.empty()) return flip_bits(a, rng, 4);
  const std::size_t cut_a = rng.below(a.size() + 1);
  const std::size_t cut_b = rng.below(b.size() + 1);
  Bytes out(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(cut_a));
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(cut_b),
             b.end());
  return out;
}

/// Locates STUN attribute TLVs in a wire message: returns {offset,
/// padded_size} pairs within the attribute section. Walks the *actual*
/// bytes rather than trusting the declared header length, so it also
/// works on seeds whose length fields were already mutated.
std::vector<std::pair<std::size_t, std::size_t>> stun_tlvs(BytesView wire) {
  namespace stun = rtcc::proto::stun;
  std::vector<std::pair<std::size_t, std::size_t>> tlvs;
  if (wire.size() < stun::kHeaderSize) return tlvs;
  std::size_t pos = stun::kHeaderSize;
  while (pos + 4 <= wire.size()) {
    const std::uint16_t len = load_be16(wire.data() + pos + 2);
    const std::size_t padded = 4 + ((std::size_t{len} + 3) & ~std::size_t{3});
    if (pos + padded > wire.size()) break;
    tlvs.emplace_back(pos, padded);
    pos += padded;
  }
  return tlvs;
}

Bytes mutate_stun_tlv(BytesView seed, Rng& rng) {
  const auto tlvs = stun_tlvs(seed);
  if (tlvs.empty()) return flip_bits(seed, rng, 4);
  Bytes out = to_bytes(seed);
  const auto [off, size] = tlvs[rng.below(tlvs.size())];
  switch (rng.below(4)) {
    case 0: {  // duplicate the TLV at the section end (length not fixed up)
      Bytes dup(out.begin() + static_cast<std::ptrdiff_t>(off),
                out.begin() + static_cast<std::ptrdiff_t>(off + size));
      out.insert(out.end(), dup.begin(), dup.end());
      break;
    }
    case 1: {  // delete the TLV; optionally re-fix the declared length
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(off),
                out.begin() + static_cast<std::ptrdiff_t>(off + size));
      if (rng.chance(0.5) && out.size() >= 20) {
        const std::uint16_t declared = load_be16(out.data() + 2);
        if (declared >= size)
          store_be16(out.data() + 2,
                     static_cast<std::uint16_t>(declared - size));
      }
      break;
    }
    case 2: {  // swap two TLVs (order violations: FINGERPRINT not last)
      const auto [off2, size2] = tlvs[rng.below(tlvs.size())];
      if (off != off2 && size == size2) {
        for (std::size_t i = 0; i < size; ++i)
          std::swap(out[off + i], out[off2 + i]);
      } else {
        out[off] ^= 0x80;  // fall back to corrupting the attribute type
      }
      break;
    }
    default:  // cut mid-TLV
      out.resize(off + 1 + rng.below(std::max<std::size_t>(size, 2)));
      break;
  }
  return out;
}

Bytes mutate_stun_length(BytesView seed, Rng& rng) {
  Bytes out = to_bytes(seed);
  if (out.size() < 20) return flip_bits(seed, rng, 2);
  if (rng.chance(0.5)) {
    // Lie in the header's message length: off-by-small, non-multiple of
    // 4, or far beyond the buffer.
    const std::uint16_t declared = load_be16(out.data() + 2);
    const std::uint16_t lie = static_cast<std::uint16_t>(
        rng.chance(0.5) ? declared + 1 + rng.below(7)
                        : rng.next_u16());
    store_be16(out.data() + 2, lie);
  } else {
    // Lie in one attribute's value length.
    const auto tlvs = stun_tlvs(seed);
    if (tlvs.empty()) return flip_bits(seed, rng, 2);
    const auto [off, size] = tlvs[rng.below(tlvs.size())];
    (void)size;
    const std::uint16_t len = load_be16(out.data() + off + 2);
    store_be16(out.data() + off + 2,
               static_cast<std::uint16_t>(
                   rng.chance(0.5) ? len + 1 + rng.below(5)
                                   : rng.next_u16()));
  }
  return out;
}

Bytes mutate_rtp_extension(BytesView seed, Rng& rng) {
  Bytes out = to_bytes(seed);
  if (out.size() < 12 || (out[0] >> 6) != 2) return flip_bits(seed, rng, 3);
  const std::size_t cc = out[0] & 0x0F;
  const bool has_ext = (out[0] & 0x10) != 0;
  const std::size_t ext_off = 12 + cc * 4;
  switch (rng.below(has_ext && ext_off + 4 <= out.size() ? 5 : 3)) {
    case 0:  // flip the X bit without touching the extension bytes
      out[0] ^= 0x10;
      break;
    case 1:  // corrupt the CSRC count (header suddenly claims more words)
      out[0] = static_cast<std::uint8_t>((out[0] & 0xF0) |
                                         (1 + rng.below(15)));
      break;
    case 2:  // padding lie: set P and write an oversized/zero pad count
      out[0] |= 0x20;
      out.back() = static_cast<std::uint8_t>(
          rng.chance(0.5) ? 0 : 200 + rng.below(56));
      break;
    case 3: {  // corrupt the extension profile or declared word length
      if (rng.chance(0.5)) {
        store_be16(out.data() + ext_off, rng.next_u16());
      } else {
        store_be16(out.data() + ext_off + 2,
                   static_cast<std::uint16_t>(rng.below(0x100)));
      }
      break;
    }
    default: {  // corrupt element ID/length nibbles inside the block
      const std::uint16_t words = load_be16(out.data() + ext_off + 2);
      const std::size_t body = ext_off + 4;
      const std::size_t body_len =
          std::min(out.size() - body, std::size_t{words} * 4);
      if (body_len > 0)
        out[body + rng.below(body_len)] ^=
            static_cast<std::uint8_t>(0x0F << (rng.chance(0.5) ? 4 : 0));
      else
        out[0] ^= 0x10;
      break;
    }
  }
  return out;
}

/// Splits an RTCP compound at its declared packet boundaries. Like
/// stun_tlvs, walks actual bytes so it tolerates pre-damaged compounds.
std::vector<std::pair<std::size_t, std::size_t>> rtcp_packets(
    BytesView wire) {
  std::vector<std::pair<std::size_t, std::size_t>> pkts;
  std::size_t pos = 0;
  while (pos + 4 <= wire.size()) {
    if ((wire[pos] >> 6) != 2) break;
    const std::size_t len =
        4 + std::size_t{load_be16(wire.data() + pos + 2)} * 4;
    if (pos + len > wire.size()) break;
    pkts.emplace_back(pos, len);
    pos += len;
  }
  return pkts;
}

Bytes mutate_rtcp_reshuffle(BytesView seed, Rng& rng) {
  const auto pkts = rtcp_packets(seed);
  if (pkts.size() < 1) return flip_bits(seed, rng, 3);
  const std::size_t compound_end = pkts.back().first + pkts.back().second;
  std::vector<Bytes> parts;
  parts.reserve(pkts.size());
  for (const auto& [off, len] : pkts)
    parts.push_back(to_bytes(seed.subspan(off, len)));
  const Bytes tail = to_bytes(seed.subspan(compound_end));

  switch (rng.below(5)) {
    case 0:  // reorder (SR/RR-first rule violations)
      if (parts.size() >= 2) {
        const std::size_t i = rng.below(parts.size());
        const std::size_t j = rng.below(parts.size());
        std::swap(parts[i], parts[j]);
      } else {
        parts[0] = flip_bits(BytesView{parts[0]}, rng, 2);
      }
      break;
    case 1:  // duplicate one packet
      parts.push_back(parts[rng.below(parts.size())]);
      break;
    case 2:  // drop one packet
      parts.erase(parts.begin() +
                  static_cast<std::ptrdiff_t>(rng.below(parts.size())));
      break;
    case 3: {  // lie in one packet's length_words
      Bytes& p = parts[rng.below(parts.size())];
      store_be16(p.data() + 2,
                 static_cast<std::uint16_t>(
                     rng.chance(0.5) ? load_be16(p.data() + 2) + 1
                                     : rng.next_u16()));
      break;
    }
    default: {  // corrupt count/padding bits of one header
      Bytes& p = parts[rng.below(parts.size())];
      p[0] = static_cast<std::uint8_t>(0x80 | (rng.chance(0.3) ? 0x20 : 0) |
                                       rng.below(32));
      break;
    }
  }

  Bytes out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  out.insert(out.end(), tail.begin(), tail.end());
  if (rng.chance(0.2)) {  // grow/replace the trailing bytes (SRTCP-ish)
    const Bytes extra = rng.bytes(rng.below(40));
    out.insert(out.end(), extra.begin(), extra.end());
  }
  return out;
}

Bytes mutate_quic_header(BytesView seed, Rng& rng) {
  Bytes out = to_bytes(seed);
  if (out.empty()) return rng.bytes(8);
  const bool long_form = (out[0] & 0x80) != 0;
  switch (rng.below(long_form && out.size() >= 7 ? 5 : 2)) {
    case 0:  // first byte: form/fixed/type/reserved/pn-length bits
      out[0] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1:  // arbitrary flip further in (covers short-header DCIDs)
      out[rng.below(out.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 2:  // version bytes (incl. the all-zero negotiation pattern)
      out[1 + rng.below(4)] =
          static_cast<std::uint8_t>(rng.chance(0.3) ? 0 : rng.next_u8());
      break;
    case 3:  // DCID length byte: oversized or zero
      out[5] = static_cast<std::uint8_t>(rng.chance(0.5) ? rng.next_u8()
                                                         : 21 + rng.below(235));
      break;
    default: {  // SCID length byte (when the DCID fits)
      const std::size_t dcid_len = out[5];
      const std::size_t scid_at = 6 + dcid_len;
      if (scid_at < out.size())
        out[scid_at] = rng.next_u8();
      else
        out[out.size() - 1] ^= 0xFF;
      break;
    }
  }
  return out;
}

Bytes mutate_vendor_header(BytesView seed, Rng& rng) {
  Bytes out = to_bytes(seed);
  if (out.size() < 4) return flip_bits(seed, rng, 2);
  const bool facetime = out.size() >= 2 && out[0] == 0x60 && out[1] == 0x00;
  if (facetime) {
    switch (rng.below(3)) {
      case 0:  // declared length lies
        store_be16(out.data() + 2, rng.next_u16());
        break;
      case 1:  // damage the magic
        out[rng.below(2)] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      default:  // cut inside the opaque extra bytes
        out.resize(4 + rng.below(std::max<std::size_t>(out.size() - 4, 1)));
        break;
    }
    return out;
  }
  // Zoom 24/28-byte header: direction, media type, embedded length.
  switch (rng.below(out.size() >= 24 ? 4 : 2)) {
    case 0:
      out[0] = rng.next_u8();  // direction byte
      break;
    case 1:
      out[rng.below(out.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 2:
      out[16] = rng.next_u8();  // media type
      break;
    default:
      store_be16(out.data() + 18, rng.next_u16());  // embedded length
      break;
  }
  return out;
}

Bytes mutate_frame_header(BytesView seed, Rng& rng) {
  Bytes out = to_bytes(seed);
  // Ethernet + IPv4 header is 34 bytes; anything shorter has no frame
  // structure worth aiming at.
  if (out.size() < 34) return flip_bits(seed, rng, 4);
  switch (rng.below(5)) {
    case 0: {  // ethertype flips: IP versions, VLAN TPIDs, non-IP, junk
      static constexpr std::uint16_t kTypes[] = {0x0800, 0x86DD, 0x8100,
                                                 0x88A8, 0x9100, 0x0806};
      store_be16(out.data() + 12,
                 rng.chance(0.8) ? kTypes[rng.below(std::size(kTypes))]
                                 : rng.next_u16());
      break;
    }
    case 1:  // IPv4 flags/fragment-offset randomization (MF, DF, offset)
      store_be16(out.data() + 14 + 6,
                 static_cast<std::uint16_t>(
                     rng.next_u16() & (rng.chance(0.5) ? 0x3FFF : 0xFFFF)));
      break;
    case 2: {  // insert a VLAN tag between the MACs and the ethertype
      std::uint8_t tag[4] = {0x81, 0x00, rng.next_u8(), rng.next_u8()};
      if (rng.chance(0.3)) {
        tag[0] = 0x88;
        tag[1] = 0xA8;
      }
      out.insert(out.begin() + 12, tag, tag + 4);
      break;
    }
    case 3:  // IP identification flip (reassembly keying)
      store_be16(out.data() + 14 + 4, rng.next_u16());
      break;
    default:  // IHL nibble or total-length lies
      if (rng.chance(0.5))
        out[14] = static_cast<std::uint8_t>(0x40 | rng.below(16));
      else
        store_be16(out.data() + 14 + 2, rng.next_u16());
      break;
  }
  return out;
}

}  // namespace

std::string to_string(MutatorFamily f) {
  switch (f) {
    case MutatorFamily::kStunTlvSplice:
      return "stun-tlv-splice";
    case MutatorFamily::kStunLengthLie:
      return "stun-length-lie";
    case MutatorFamily::kRtpExtension:
      return "rtp-extension";
    case MutatorFamily::kRtcpReshuffle:
      return "rtcp-reshuffle";
    case MutatorFamily::kQuicHeaderFlip:
      return "quic-header-flip";
    case MutatorFamily::kVendorHeaderFlip:
      return "vendor-header-flip";
    case MutatorFamily::kFrameHeaderFlip:
      return "frame-header-flip";
    case MutatorFamily::kGenericBitFlip:
      return "generic-bit-flip";
    case MutatorFamily::kGenericTruncate:
      return "generic-truncate";
    case MutatorFamily::kGenericPrefix:
      return "generic-prefix";
    case MutatorFamily::kGenericSplice:
      return "generic-splice";
  }
  return "?";
}

const std::vector<MutatorFamily>& all_mutator_families() {
  static const std::vector<MutatorFamily> kAll = {
      MutatorFamily::kStunTlvSplice, MutatorFamily::kStunLengthLie,
      MutatorFamily::kRtpExtension,  MutatorFamily::kRtcpReshuffle,
      MutatorFamily::kQuicHeaderFlip, MutatorFamily::kVendorHeaderFlip,
      MutatorFamily::kFrameHeaderFlip,
      MutatorFamily::kGenericBitFlip, MutatorFamily::kGenericTruncate,
      MutatorFamily::kGenericPrefix,  MutatorFamily::kGenericSplice,
  };
  return kAll;
}

Bytes mutate(MutatorFamily family, BytesView seed, BytesView other,
             Rng& rng) {
  switch (family) {
    case MutatorFamily::kStunTlvSplice:
      return mutate_stun_tlv(seed, rng);
    case MutatorFamily::kStunLengthLie:
      return mutate_stun_length(seed, rng);
    case MutatorFamily::kRtpExtension:
      return mutate_rtp_extension(seed, rng);
    case MutatorFamily::kRtcpReshuffle:
      return mutate_rtcp_reshuffle(seed, rng);
    case MutatorFamily::kQuicHeaderFlip:
      return mutate_quic_header(seed, rng);
    case MutatorFamily::kVendorHeaderFlip:
      return mutate_vendor_header(seed, rng);
    case MutatorFamily::kFrameHeaderFlip:
      return mutate_frame_header(seed, rng);
    case MutatorFamily::kGenericBitFlip:
      return flip_bits(seed, rng, 8);
    case MutatorFamily::kGenericTruncate:
      return truncate(seed, rng);
    case MutatorFamily::kGenericPrefix:
      return prefix(seed, rng);
    case MutatorFamily::kGenericSplice:
      return splice(seed, other, rng);
  }
  return to_bytes(seed);
}

const std::vector<std::size_t>& batch_boundary_counts() {
  // 0/1 exercise the empty batch and a one-datagram vector;
  // 255/256/257 straddle the vector size (partial final
  // vector, exact fit, one-packet spill); 4095 is one short of the
  // kMaxAnchorBlocks * 64 staging ceiling on a single payload and, as
  // a datagram count, 16 vectors with a one-short final vector.
  static const std::vector<std::size_t> kCounts = {0, 1, 255, 256, 257, 4095};
  return kCounts;
}

std::vector<Bytes> mutate_batch_boundary(const std::vector<Bytes>& seed,
                                         std::size_t count, Rng& rng) {
  std::vector<Bytes> out;
  if (seed.empty() || count == 0) return out;
  out.reserve(count);
  const std::size_t start = rng.below(seed.size());
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(seed[(start + i) % seed.size()]);
  return out;
}

const std::vector<std::size_t>& stream_chunk_sizes() {
  // The sizes the stream-parity oracle's chunked-reader sweep actually
  // reads at (beyond the degenerate 1/7), so shaped record boundaries
  // land exactly on real read boundaries.
  static const std::vector<std::size_t> kSizes = {256, 4096};
  return kSizes;
}

std::vector<Bytes> mutate_stream_chunk_boundary(
    const std::vector<Bytes>& seed, std::size_t chunk_bytes, Rng& rng) {
  // Encoded size of one oracle frame before its UDP payload: 16-byte
  // pcap record header + 14 Ethernet + 20 IPv4 + 8 UDP. Must match
  // net::build_frame over oracle-style IPv4 specs.
  constexpr std::size_t kRecordOverhead = 16 + 14 + 20 + 8;
  constexpr std::size_t kGlobalHeader = 24;
  std::vector<Bytes> out;
  if (seed.empty() || chunk_bytes < 2) return out;
  static constexpr std::size_t kDeltas[] = {0, 1, 2};  // end at b-1, b, b+1
  const std::size_t start = rng.below(seed.size());
  std::size_t cum = kGlobalHeader;
  for (std::size_t i = 0; i < 9; ++i) {
    const Bytes& src = seed[(start + i) % seed.size()];
    // Aim the record end at the next read boundary that leaves room for
    // the fixed headers, offset by -1 / 0 / +1 bytes in turn.
    const std::size_t boundary =
        ((cum + kRecordOverhead) / chunk_bytes + 1) * chunk_bytes;
    const std::size_t len =
        boundary - 1 + kDeltas[i % 3] - cum - kRecordOverhead;
    Bytes d(len);
    for (std::size_t j = 0; j < len; ++j)
      d[j] = src.empty() ? rng.next_u8() : src[j % src.size()];
    cum += kRecordOverhead + d.size();
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace rtcc::testkit
