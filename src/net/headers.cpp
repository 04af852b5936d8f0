#include "net/headers.hpp"

#include <algorithm>
#include <cstring>

#include "util/bytes.hpp"

namespace rtcc::net {

using rtcc::util::ByteReader;
using rtcc::util::Bytes;
using rtcc::util::BytesView;
using rtcc::util::ByteWriter;

namespace {

constexpr std::uint16_t kEtherIpv4 = 0x0800;
constexpr std::uint16_t kEtherIpv6 = 0x86DD;
constexpr std::size_t kEthHeader = 14;

std::uint32_t sum16(BytesView data, std::uint32_t acc) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2)
    acc += rtcc::util::load_be16(data.data() + i);
  if (i < data.size()) acc += std::uint32_t{data[i]} << 8;
  return acc;
}

std::uint16_t fold(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xFFFF) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc);
}

}  // namespace

std::string to_string(Transport t) {
  switch (t) {
    case Transport::kUdp:
      return "UDP";
    case Transport::kTcp:
      return "TCP";
    case Transport::kOther:
      break;
  }
  return "OTHER";
}

std::uint16_t internet_checksum(BytesView data, std::uint32_t initial) {
  return fold(sum16(data, initial));
}

namespace {

constexpr std::uint16_t kTpidQ = 0x8100;           // 802.1Q
constexpr std::uint16_t kTpidQinQ = 0x88A8;        // 802.1ad service tag
constexpr std::uint16_t kTpidQinQLegacy = 0x9100;  // pre-standard QinQ

bool is_vlan_tpid(std::uint16_t et) {
  return et == kTpidQ || et == kTpidQinQ || et == kTpidQinQLegacy;
}

/// Decode outcome. Exactly one of these describes every frame; the
/// IngestStats accounting maps each to a single counter.
enum class Fail : std::uint8_t {
  kNone,
  kCorrupt,   // truncated / inconsistent headers
  kNonIp,     // non-IP ethertype or non-UDP/TCP protocol
  kFragment,  // IPv4 fragment (only FrameDecoder can deliver these)
  kUnsupportedLinktype,
};

/// IPv4 fragment geometry + reassembly key material.
struct FragInfo {
  bool is_fragment = false;
  bool more = false;            // MF bit
  std::uint32_t offset = 0;     // payload byte offset within the datagram
  std::uint16_t id = 0;         // IP identification field
  std::uint8_t proto = 0;
  rtcc::util::BytesView piece;  // this fragment's slice of the IP payload
};

/// L2 dispatch: resolve the ethertype and IP bytes for `linktype`,
/// stripping any 802.1Q/QinQ tag stack. kLinkNull/kLinkRaw carry no
/// ethertype; they synthesise the equivalent IP value.
Fail dispatch_l2(BytesView frame, std::uint32_t linktype,
                 std::uint16_t& ethertype, BytesView& ip, bool& vlan) {
  std::size_t l2 = 0;
  switch (linktype) {
    case kLinkEthernet:
      if (frame.size() < kEthHeader) return Fail::kCorrupt;
      ethertype = rtcc::util::load_be16(frame.data() + 12);
      l2 = kEthHeader;
      break;
    case kLinkLinuxSll:  // 16-byte cooked header, ethertype at the end
      if (frame.size() < 16) return Fail::kCorrupt;
      ethertype = rtcc::util::load_be16(frame.data() + 14);
      l2 = 16;
      break;
    case kLinkSll2:  // 20-byte cooked v2 header, ethertype first
      if (frame.size() < 20) return Fail::kCorrupt;
      ethertype = rtcc::util::load_be16(frame.data());
      l2 = 20;
      break;
    case kLinkNull: {
      // 4-byte address family in the *capturing* host's byte order; the
      // AF constants are < 256, so a value with high bytes set was
      // stored little-endian.
      if (frame.size() < 4) return Fail::kCorrupt;
      std::uint32_t af = rtcc::util::load_be32(frame.data());
      if (af >> 16) af >>= 24;
      if (af == 2) {
        ethertype = kEtherIpv4;  // AF_INET
      } else if (af == 10 || af == 24 || af == 28 || af == 30) {
        ethertype = kEtherIpv6;  // AF_INET6 across Linux/NetBSD/FreeBSD/Darwin
      } else {
        return Fail::kNonIp;
      }
      l2 = 4;
      break;
    }
    case kLinkRaw: {  // bare IP, version nibble selects the family
      if (frame.empty()) return Fail::kCorrupt;
      const std::uint8_t version = frame[0] >> 4;
      if (version == 4) {
        ethertype = kEtherIpv4;
      } else if (version == 6) {
        ethertype = kEtherIpv6;
      } else {
        return Fail::kNonIp;
      }
      break;
    }
    default:
      return Fail::kUnsupportedLinktype;
  }

  while (is_vlan_tpid(ethertype)) {
    if (l2 + 4 > frame.size()) return Fail::kCorrupt;
    ethertype = rtcc::util::load_be16(frame.data() + l2 + 2);
    l2 += 4;
    vlan = true;
  }
  ip = frame.subspan(l2);
  return Fail::kNone;
}

/// L2 + L3: fills addresses/family and the L4 slice + protocol, or the
/// fragment geometry when the frame is an IPv4 fragment.
Fail decode_l3(BytesView frame, std::uint32_t linktype, Decoded& out,
               std::uint8_t& proto, BytesView& l4, bool& vlan,
               FragInfo* frag) {
  std::uint16_t ethertype = 0;
  BytesView ip;
  if (Fail f = dispatch_l2(frame, linktype, ethertype, ip, vlan);
      f != Fail::kNone)
    return f;

  if (ethertype == kEtherIpv4) {
    if (ip.size() < 20) return Fail::kCorrupt;
    const std::uint8_t version = ip[0] >> 4;
    const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
    if (version != 4 || ihl < 20 || ip.size() < ihl) return Fail::kCorrupt;
    const std::uint16_t total_len = rtcc::util::load_be16(ip.data() + 2);
    if (total_len < ihl || total_len > ip.size()) return Fail::kCorrupt;
    proto = ip[9];
    out.src = IpAddr::v4(rtcc::util::load_be32(ip.data() + 12));
    out.dst = IpAddr::v4(rtcc::util::load_be32(ip.data() + 16));
    out.is_v6 = false;
    l4 = ip.subspan(ihl, total_len - ihl);
    // Fragment check BEFORE any L4 parse: a fragment's leading payload
    // bytes are datagram middle, not a UDP/TCP header. Only MF and the
    // 13-bit offset matter — DF (0x4000) is set on every synthetic
    // frame and does not make one.
    const std::uint16_t flags_frag = rtcc::util::load_be16(ip.data() + 6);
    const bool more = (flags_frag & 0x2000) != 0;
    const std::uint32_t frag_off = std::uint32_t{flags_frag & 0x1FFFu} * 8;
    if (more || frag_off != 0) {
      if (frag != nullptr) {
        frag->is_fragment = true;
        frag->more = more;
        frag->offset = frag_off;
        frag->id = rtcc::util::load_be16(ip.data() + 4);
        frag->proto = proto;
        frag->piece = l4;
      }
      return Fail::kFragment;
    }
  } else if (ethertype == kEtherIpv6) {
    if (ip.size() < 40) return Fail::kCorrupt;
    if ((ip[0] >> 4) != 6) return Fail::kCorrupt;
    const std::uint16_t payload_len = rtcc::util::load_be16(ip.data() + 4);
    if (std::size_t{payload_len} + 40 > ip.size()) return Fail::kCorrupt;
    proto = ip[6];  // next header; extension headers unsupported on purpose
    std::array<std::uint8_t, 16> src{}, dst{};
    std::copy_n(ip.data() + 8, 16, src.begin());
    std::copy_n(ip.data() + 24, 16, dst.begin());
    out.src = IpAddr::v6(src);
    out.dst = IpAddr::v6(dst);
    out.is_v6 = true;
    l4 = ip.subspan(40, payload_len);
  } else {
    return Fail::kNonIp;
  }
  return Fail::kNone;
}

/// UDP/TCP header parse over a complete L4 slice (frame-contained or
/// reassembled — same validation either way).
Fail parse_l4(std::uint8_t proto, BytesView l4, Decoded& out) {
  if (proto == 17) {
    if (l4.size() < 8) return Fail::kCorrupt;
    out.transport = Transport::kUdp;
    out.src_port = rtcc::util::load_be16(l4.data());
    out.dst_port = rtcc::util::load_be16(l4.data() + 2);
    const std::uint16_t udp_len = rtcc::util::load_be16(l4.data() + 4);
    if (udp_len < 8 || udp_len > l4.size()) return Fail::kCorrupt;
    out.payload = l4.subspan(8, udp_len - 8);
  } else if (proto == 6) {
    if (l4.size() < 20) return Fail::kCorrupt;
    out.transport = Transport::kTcp;
    out.src_port = rtcc::util::load_be16(l4.data());
    out.dst_port = rtcc::util::load_be16(l4.data() + 2);
    const std::size_t data_off = static_cast<std::size_t>(l4[12] >> 4) * 4;
    if (data_off < 20 || data_off > l4.size()) return Fail::kCorrupt;
    out.payload = l4.subspan(data_off);
  } else {
    return Fail::kNonIp;
  }
  return Fail::kNone;
}

}  // namespace

bool linktype_supported(std::uint32_t linktype) {
  switch (linktype) {
    case kLinkNull:
    case kLinkEthernet:
    case kLinkRaw:
    case kLinkLinuxSll:
    case kLinkSll2:
      return true;
    default:
      return false;
  }
}

std::string linktype_name(std::uint32_t linktype) {
  switch (linktype) {
    case kLinkNull:
      return "NULL";
    case kLinkEthernet:
      return "EN10MB";
    case kLinkRaw:
      return "RAW";
    case kLinkLinuxSll:
      return "LINUX_SLL";
    case kLinkSll2:
      return "LINUX_SLL2";
    default:
      return "LINKTYPE_" + std::to_string(linktype);
  }
}

std::optional<Decoded> decode_frame(BytesView frame, std::uint32_t linktype,
                                    IngestStats* stats) {
  Decoded out;
  std::uint8_t proto = 0;
  BytesView l4;
  bool vlan = false;
  Fail f = decode_l3(frame, linktype, out, proto, l4, vlan, nullptr);
  if (f == Fail::kNone) f = parse_l4(proto, l4, out);
  if (stats != nullptr) {
    if (vlan) ++stats->vlan_stripped;
    switch (f) {
      case Fail::kNone:
        ++stats->frames_decoded;
        break;
      case Fail::kCorrupt:
        ++stats->undecodable;
        break;
      case Fail::kNonIp:
        ++stats->non_ip;
        break;
      case Fail::kFragment:
        ++stats->fragments_seen;
        break;
      case Fail::kUnsupportedLinktype:
        ++stats->unsupported_linktype;
        break;
    }
  }
  if (f != Fail::kNone) return std::nullopt;
  return out;
}

std::optional<Decoded> decode_frame(BytesView frame) {
  return decode_frame(frame, kLinkEthernet, nullptr);
}

std::optional<Decoded> FrameDecoder::decode(BytesView frame, double ts,
                                            bool clipped) {
  clock_ = std::max(clock_, ts);
  expire_before(clock_ - kTimeoutS);

  Decoded out;
  std::uint8_t proto = 0;
  BytesView l4;
  bool vlan = false;
  FragInfo frag;
  Fail f = decode_l3(frame, linktype_, out, proto, l4, vlan, &frag);
  if (f == Fail::kNone) f = parse_l4(proto, l4, out);
  if (vlan) ++stats_.vlan_stripped;

  switch (f) {
    case Fail::kNone:
      ++stats_.frames_decoded;
      return out;
    case Fail::kCorrupt:
      ++(clipped ? stats_.clipped_undecodable : stats_.undecodable);
      return std::nullopt;
    case Fail::kNonIp:
      ++stats_.non_ip;
      return std::nullopt;
    case Fail::kUnsupportedLinktype:
      ++stats_.unsupported_linktype;
      return std::nullopt;
    case Fail::kFragment:
      break;
  }

  ++stats_.fragments_seen;
  // A clipped fragment's piece is not the full wire slice; splicing it
  // in would corrupt the datagram. Leave any partial state to expire.
  if (clipped) return std::nullopt;

  FragKey key{out.src, out.dst, frag.id, frag.proto};
  auto it = frags_.find(key);
  if (it == frags_.end()) {
    if (frags_.size() >= kMaxEntries) {
      // Evict the stalest datagram to stay bounded (deterministic:
      // oldest first_ts, map order breaking ties).
      auto oldest = frags_.begin();
      for (auto jt = frags_.begin(); jt != frags_.end(); ++jt)
        if (jt->second.first_ts < oldest->second.first_ts) oldest = jt;
      frags_.erase(oldest);
      ++stats_.fragments_expired;
    }
    it = frags_.emplace(key, Reassembly{}).first;
    it->second.first_ts = ts;
  }
  Reassembly& r = it->second;

  const std::uint64_t end = std::uint64_t{frag.offset} + frag.piece.size();
  if (end > kMaxDatagram ||                         // exceeds IPv4 max
      (r.total != 0 && end > r.total) ||            // beyond the known end
      (!frag.more && r.total != 0 && r.total != end)) {  // two distinct ends
    frags_.erase(it);
    ++stats_.fragments_expired;
    return std::nullopt;
  }
  if (!frag.more) r.total = static_cast<std::uint32_t>(end);
  if (r.data.size() < end) r.data.resize(end);
  std::copy(frag.piece.begin(), frag.piece.end(), r.data.begin() + frag.offset);

  // Merge [offset, end) into the sorted coverage list.
  r.have.emplace_back(frag.offset, static_cast<std::uint32_t>(end));
  std::sort(r.have.begin(), r.have.end());
  std::size_t w = 0;
  for (std::size_t i = 1; i < r.have.size(); ++i) {
    if (r.have[i].first <= r.have[w].second)
      r.have[w].second = std::max(r.have[w].second, r.have[i].second);
    else
      r.have[++w] = r.have[i];
  }
  r.have.resize(w + 1);

  const bool complete = r.total != 0 && r.have.size() == 1 &&
                        r.have[0].first == 0 && r.have[0].second >= r.total;
  if (!complete) return std::nullopt;

  completed_ = std::move(r.data);
  completed_.resize(r.total);
  frags_.erase(it);

  Decoded d;
  d.src = key.src;
  d.dst = key.dst;
  d.is_v6 = false;
  if (parse_l4(key.proto,
               BytesView{completed_.data(), completed_.size()},
               d) != Fail::kNone) {
    // Completed but unparseable (bad L4 header or non-UDP/TCP proto):
    // the datagram is never delivered, so it counts as a datagram loss.
    ++stats_.fragments_expired;
    return std::nullopt;
  }
  d.reassembled = true;
  ++stats_.frames_decoded;
  ++stats_.fragments_reassembled;
  return d;
}

void FrameDecoder::finish() {
  stats_.fragments_expired += frags_.size();
  frags_.clear();
}

void FrameDecoder::expire_before(double cutoff) {
  for (auto it = frags_.begin(); it != frags_.end();) {
    if (it->second.first_ts < cutoff) {
      it = frags_.erase(it);
      ++stats_.fragments_expired;
    } else {
      ++it;
    }
  }
}

namespace {

/// Writes the full frame into `out` (exactly frame_wire_size bytes).
/// Headers, payload and checksums are written in place — this is the
/// shared core of build_frame (owned buffer) and build_frame_arena
/// (slab), so both produce identical bytes by construction.
void write_frame(std::uint8_t* out, const FrameSpec& spec,
                 BytesView payload) {
  // Ethernet header with fixed synthetic locally administered MACs.
  constexpr std::uint8_t dst_mac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x02};
  constexpr std::uint8_t src_mac[6] = {0x02, 0x00, 0x00, 0x00, 0x00, 0x01};
  std::memcpy(out, dst_mac, 6);
  std::memcpy(out + 6, src_mac, 6);
  rtcc::util::store_be16(out + 12,
                         spec.src.is_v4() ? kEtherIpv4 : kEtherIpv6);

  const auto proto_num = static_cast<std::uint8_t>(spec.transport);
  const std::size_t ip_hdr = spec.src.is_v4() ? 20 : 40;
  const std::size_t l4_len =
      (spec.transport == Transport::kUdp ? 8 : 20) + payload.size();
  std::uint8_t* ip = out + kEthHeader;
  std::uint8_t* l4 = ip + ip_hdr;

  if (spec.transport == Transport::kUdp) {
    rtcc::util::store_be16(l4, spec.src_port);
    rtcc::util::store_be16(l4 + 2, spec.dst_port);
    rtcc::util::store_be16(l4 + 4,
                           static_cast<std::uint16_t>(8 + payload.size()));
    rtcc::util::store_be16(l4 + 6, 0);  // checksum patched below
    if (!payload.empty()) std::memcpy(l4 + 8, payload.data(), payload.size());
  } else {
    // Minimal TCP header: seq/ack zeroed, PSH+ACK, fixed window,
    // checksum left zero (the analysis pipeline never verifies it).
    rtcc::util::store_be16(l4, spec.src_port);
    rtcc::util::store_be16(l4 + 2, spec.dst_port);
    rtcc::util::store_be32(l4 + 4, 0);
    rtcc::util::store_be32(l4 + 8, 0);
    l4[12] = 0x50;  // data offset = 5 words
    l4[13] = 0x18;  // PSH|ACK
    rtcc::util::store_be16(l4 + 14, 65535);
    rtcc::util::store_be16(l4 + 16, 0);  // checksum
    rtcc::util::store_be16(l4 + 18, 0);  // urgent
    if (!payload.empty()) std::memcpy(l4 + 20, payload.data(), payload.size());
  }

  if (spec.src.is_v4()) {
    ip[0] = 0x45;
    ip[1] = 0;
    rtcc::util::store_be16(ip + 2, static_cast<std::uint16_t>(20 + l4_len));
    rtcc::util::store_be16(ip + 4, 0);       // id
    rtcc::util::store_be16(ip + 6, 0x4000);  // DF
    ip[8] = spec.ttl;
    ip[9] = proto_num;
    rtcc::util::store_be16(ip + 10, 0);  // header checksum placeholder
    rtcc::util::store_be32(ip + 12, spec.src.v4_value());
    rtcc::util::store_be32(ip + 16, spec.dst.v4_value());
    rtcc::util::store_be16(ip + 10, internet_checksum(BytesView{ip, 20}));

    if (spec.transport == Transport::kUdp) {
      // UDP checksum over the IPv4 pseudo-header.
      std::uint8_t pseudo[12];
      rtcc::util::store_be32(pseudo, spec.src.v4_value());
      rtcc::util::store_be32(pseudo + 4, spec.dst.v4_value());
      pseudo[8] = 0;
      pseudo[9] = proto_num;
      rtcc::util::store_be16(pseudo + 10, static_cast<std::uint16_t>(l4_len));
      std::uint32_t acc = sum16(BytesView{pseudo, sizeof pseudo}, 0);
      acc = sum16(BytesView{l4, l4_len}, acc);
      std::uint16_t csum = fold(acc);
      if (csum == 0) csum = 0xFFFF;
      rtcc::util::store_be16(l4 + 6, csum);
    }
  } else {
    rtcc::util::store_be32(ip, 0x60000000u);  // version 6, tc 0, flow 0
    rtcc::util::store_be16(ip + 4, static_cast<std::uint16_t>(l4_len));
    ip[6] = proto_num;
    ip[7] = spec.ttl;
    std::memcpy(ip + 8, spec.src.v6_bytes().data(), 16);
    std::memcpy(ip + 24, spec.dst.v6_bytes().data(), 16);

    if (spec.transport == Transport::kUdp) {
      std::uint8_t pseudo[40];
      std::memcpy(pseudo, spec.src.v6_bytes().data(), 16);
      std::memcpy(pseudo + 16, spec.dst.v6_bytes().data(), 16);
      rtcc::util::store_be32(pseudo + 32, static_cast<std::uint32_t>(l4_len));
      pseudo[36] = 0;
      pseudo[37] = 0;
      pseudo[38] = 0;
      pseudo[39] = proto_num;
      std::uint32_t acc = sum16(BytesView{pseudo, sizeof pseudo}, 0);
      acc = sum16(BytesView{l4, l4_len}, acc);
      std::uint16_t csum = fold(acc);
      if (csum == 0) csum = 0xFFFF;
      rtcc::util::store_be16(l4 + 6, csum);
    }
  }
}

}  // namespace

std::size_t frame_wire_size(const FrameSpec& spec, std::size_t payload_size) {
  return kEthHeader + (spec.src.is_v4() ? 20u : 40u) +
         (spec.transport == Transport::kUdp ? 8u : 20u) + payload_size;
}

Bytes build_frame(const FrameSpec& spec, BytesView payload) {
  Bytes out(frame_wire_size(spec, payload.size()));
  write_frame(out.data(), spec, payload);
  return out;
}

Frame build_frame_arena(FrameArena& arena, double ts, const FrameSpec& spec,
                        BytesView payload) {
  const std::size_t n = frame_wire_size(spec, payload.size());
  std::uint64_t off = 0;
  write_frame(arena.alloc(n, off), spec, payload);
  return Frame{ts, off, static_cast<std::uint32_t>(n)};
}

}  // namespace rtcc::net
