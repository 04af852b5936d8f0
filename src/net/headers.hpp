// Link/network/transport header encode + decode.
//
// The emulator synthesises full Ethernet/IPv4|IPv6/UDP|TCP frames and the
// analysis pipeline decodes them back — the same parsing path a real
// capture would take through our pcap reader. Decoding additionally
// understands what real captures contain: the non-Ethernet linktypes
// rvictl and `tcpdump -i any` emit, 802.1Q/QinQ VLAN tags, and IPv4
// fragmentation (stateless rejection in decode_frame, bounded
// reassembly in FrameDecoder).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "net/arena.hpp"
#include "net/ingest.hpp"
#include "util/bytes.hpp"

namespace rtcc::net {

enum class Transport : std::uint8_t { kUdp = 17, kTcp = 6, kOther = 0 };

[[nodiscard]] std::string to_string(Transport t);

// pcap LINKTYPE_* values the decoder dispatches on (per-linktype L2
// offset instead of a hard "want Ethernet" reject).
constexpr std::uint32_t kLinkNull = 0;        // BSD loopback: 4-byte AF header
constexpr std::uint32_t kLinkEthernet = 1;
constexpr std::uint32_t kLinkRaw = 101;       // raw IP, no L2 (rvictl-style)
constexpr std::uint32_t kLinkLinuxSll = 113;  // Linux cooked v1 (`tcpdump -i any`)
constexpr std::uint32_t kLinkSll2 = 276;      // Linux cooked v2

[[nodiscard]] bool linktype_supported(std::uint32_t linktype);
[[nodiscard]] std::string linktype_name(std::uint32_t linktype);

/// One captured frame: timestamp (seconds since experiment epoch) plus
/// raw Ethernet bytes, exactly what a pcap record stores. The bytes
/// live at [off, off+len) in the owning Trace's FrameArena — resolve
/// them through Trace::bytes(), never through these fields directly.
struct Frame {
  double ts = 0.0;
  std::uint64_t off = 0;  // arena offset
  std::uint32_t len = 0;  // stored (captured) length
  /// Original on-the-wire length (pcap orig_len); 0 means "same as the
  /// stored bytes". When larger than size(), the capture clipped the
  /// frame at its snaplen and decode rejects are clipping, not
  /// corruption.
  std::uint32_t orig_len = 0;

  [[nodiscard]] std::size_t size() const { return len; }
  [[nodiscard]] bool snaplen_clipped() const { return orig_len > size(); }
};

/// Decoded view over one frame. `payload` aliases the frame's bytes —
/// valid only while the owning Frame is alive (Core Guidelines: views
/// don't own; the Trace owns).
struct Decoded {
  IpAddr src;
  IpAddr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Transport transport = Transport::kOther;
  rtcc::util::BytesView payload;  // UDP payload or TCP segment payload
  bool is_v6 = false;
  /// True when `payload` views a FrameDecoder-owned reassembly buffer
  /// (valid until that decoder's next decode()) instead of the frame.
  bool reassembled = false;
};

/// Decodes L2 (per `linktype`, 802.1Q/QinQ tags stripped) → IPv4/IPv6 →
/// UDP/TCP. Returns nullopt for non-IP ethertypes, truncated headers,
/// unsupported transports, and IPv4 fragments — a fragment's 8 leading
/// payload bytes are NOT a UDP header, so stateless decoding rejects
/// both first and non-first fragments instead of misreading garbage
/// ports (use FrameDecoder for reassembly). When `stats` is non-null,
/// every call increments exactly one outcome counter (plus
/// vlan_stripped when tags were removed).
[[nodiscard]] std::optional<Decoded> decode_frame(rtcc::util::BytesView frame,
                                                  std::uint32_t linktype,
                                                  IngestStats* stats = nullptr);

/// Ethernet convenience overload (the historical signature).
[[nodiscard]] std::optional<Decoded> decode_frame(rtcc::util::BytesView frame);

/// Stateful frame decoder: everything decode_frame does, plus a small
/// bounded IPv4 reassembly map keyed (src, dst, id, proto). Fragments
/// return nullopt until the datagram completes; the completing fragment
/// returns a Decoded whose payload views decoder-owned storage (valid
/// until the next decode() call — consume immediately). State is
/// bounded by kMaxEntries / kMaxDatagram / kTimeoutS; evicted datagrams
/// are counted as fragments_expired. Deterministic: identical frame
/// sequences produce identical packets and stats.
class FrameDecoder {
 public:
  static constexpr std::size_t kMaxEntries = 64;     // concurrent datagrams
  static constexpr std::size_t kMaxDatagram = 65535; // IPv4 total-length cap
  static constexpr double kTimeoutS = 30.0;          // RFC 791 reassembly TTL

  explicit FrameDecoder(std::uint32_t linktype = kLinkEthernet)
      : linktype_(linktype) {}

  /// `clipped` marks frames whose capture record lost bytes to the
  /// snaplen; their corrupt-rejects count as clipped_undecodable.
  [[nodiscard]] std::optional<Decoded> decode(rtcc::util::BytesView frame,
                                              double ts = 0.0,
                                              bool clipped = false);

  /// Counts still-pending reassembly state as expired. Call once after
  /// the last frame.
  void finish();

  [[nodiscard]] const IngestStats& stats() const { return stats_; }
  [[nodiscard]] std::uint32_t linktype() const { return linktype_; }

 private:
  struct FragKey {
    IpAddr src;
    IpAddr dst;
    std::uint16_t id = 0;
    std::uint8_t proto = 0;
    auto operator<=>(const FragKey&) const = default;
  };
  struct Reassembly {
    rtcc::util::Bytes data;  // IP payload bytes as fragments land
    std::vector<std::pair<std::uint32_t, std::uint32_t>> have;  // merged [a,b)
    std::uint32_t total = 0;  // known once the MF=0 fragment arrives
    double first_ts = 0.0;
  };

  void expire_before(double ts);

  std::uint32_t linktype_;
  IngestStats stats_;
  std::map<FragKey, Reassembly> frags_;
  rtcc::util::Bytes completed_;  // last reassembled IP payload
  double clock_ = 0.0;
};

struct FrameSpec {
  IpAddr src;
  IpAddr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Transport transport = Transport::kUdp;
  std::uint8_t ttl = 64;
};

/// Exact wire size of the frame build_frame would synthesise.
[[nodiscard]] std::size_t frame_wire_size(const FrameSpec& spec,
                                          std::size_t payload_size);

/// Builds a full Ethernet frame (synthetic MACs) around `payload`.
/// IPv4/IPv6 selected by the address family of `spec.src` (both
/// endpoints must be the same family). UDP/IP checksums are computed.
[[nodiscard]] rtcc::util::Bytes build_frame(const FrameSpec& spec,
                                            rtcc::util::BytesView payload);

/// Arena variant: writes the frame straight into `arena` (headers,
/// checksums and payload in place — no temporary vectors) and returns
/// an arena-backed Frame. Byte-identical to build_frame.
[[nodiscard]] Frame build_frame_arena(FrameArena& arena, double ts,
                                      const FrameSpec& spec,
                                      rtcc::util::BytesView payload);

/// RFC 1071 internet checksum (IPv4 header / UDP pseudo-header sums).
[[nodiscard]] std::uint16_t internet_checksum(rtcc::util::BytesView data,
                                              std::uint32_t initial = 0);

}  // namespace rtcc::net
