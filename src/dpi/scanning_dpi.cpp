#include "dpi/scanning_dpi.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "dpi/anchor_scan.hpp"
#include "proto/stun/stun_registry.hpp"
#include "util/thread_pool.hpp"

namespace rtcc::dpi {

using rtcc::util::BytesView;

namespace {

// The emit helpers run once per anchored offset — ~25% of all scanned
// bytes on encrypted payloads — so a real call (argument spills plus
// materialising the optional sniff result) costs more than the sniff
// itself. Force-inline them into both extraction loops.
#if defined(__GNUC__) || defined(__clang__)
#define RTCC_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define RTCC_ALWAYS_INLINE inline
#endif

/// Demux-node unroll width: descriptors emitted per loop iteration.
/// Compile-time tunable (-DRTCC_DEMUX_UNROLL=2|4) for the ablation
/// sweep in EXPERIMENTS.md; the {2,4} x prefetch sweep showed no
/// significant separation, so 2 stays as the default. The
/// constant-trip inner loops below fully unroll at either width.
#ifndef RTCC_DEMUX_UNROLL
#define RTCC_DEMUX_UNROLL 2
#endif
constexpr std::size_t kDemuxUnroll = RTCC_DEMUX_UNROLL;
static_assert(kDemuxUnroll == 2 || kDemuxUnroll == 4,
              "demux unroll width must be 2 or 4");

namespace stun = rtcc::proto::stun;
namespace rtp = rtcc::proto::rtp;
namespace rtcp = rtcc::proto::rtcp;
namespace quic = rtcc::proto::quic;

/// Lightweight candidate: just what validation and the cover walk need;
/// the full (allocating) parse happens once per *accepted* candidate.
/// Extraction stores STUN, ChannelData, RTCP and QUIC hits this way, but
/// not RTP's: its header pattern matches ~25% of random offsets, nearly
/// all of them noise, so an RTP hit is kept only as its 8-byte packed
/// pair (ScanState::rtp_pairs), and phase 3 builds a Candidate from a
/// pair only when its SSRC is valid (every pair under validate = false).
struct Candidate {
  static constexpr std::uint8_t kValidated = 0x01;
  static constexpr std::uint8_t kQuicLong = 0x02;

  std::uint32_t datagram = 0;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;  // wire extent (RTP: to end of datagram)
  std::uint32_t ssrc = 0;    // RTP / RTCP first-packet SSRC
  std::uint16_t channel = 0;  // ChannelData
  MessageKind kind = MessageKind::kRtp;
  std::uint8_t flags = 0;

  [[nodiscard]] bool validated() const { return flags & kValidated; }
  [[nodiscard]] bool quic_long() const { return flags & kQuicLong; }
};

/// Phase 2 partitions the stream's RTP pairs by the SSRC's top byte.
/// An SSRC lives in exactly one partition and ascending partitions hold
/// ascending SSRCs, so grouping each partition on its own and joining
/// the results in partition order gives the stream-wide ascending
/// tables. A relay media stream's partition holds a few thousand
/// pairs, small enough to group in cache.
constexpr std::size_t kRtpPartitions = 256;

/// An RTP hit, packed into one u64: SSRC in bits 32-63 (its top byte,
/// bits 56-63, names the phase 2 partition), sequence number in bits
/// 16-31, scan offset in bits 0-15. Offsets fit because the scan stops
/// at kMaxScanOffset. Sorting the packed values groups by SSRC, then
/// orders by seq, which is all phase 2 reads.
static_assert(kMaxScanOffset <= 0xFFFF, "RTP pairs pack offsets in 16 bits");

std::uint64_t pack_rtp(std::uint32_t ssrc, std::uint16_t seq,
                       std::uint32_t offset) {
  return std::uint64_t{ssrc} << 32 | std::uint64_t{seq} << 16 | offset;
}
std::uint32_t pair_ssrc(std::uint64_t x) {
  return static_cast<std::uint32_t>(x >> 32);
}
std::uint16_t pair_seq(std::uint64_t x) {
  return static_cast<std::uint16_t>(x >> 16);
}
std::uint32_t pair_offset(std::uint64_t x) {
  return static_cast<std::uint16_t>(x);
}

/// Everything the extraction nodes append to: the non-RTP candidates,
/// the RTP pairs and the support tables (Algorithm 1's validation
/// inputs), one state per chunk. The tables are filled *at emission* —
/// the old separate walk over the candidate array to build them re-read
/// tens of MB per relay stream. RTP is the big one — the scan yields one
/// noise hit per ~25% of offsets with mostly-unique fake SSRCs — and is
/// kept flat: one packed pair per hit in emission order, the number of
/// hits in each datagram of the chunk (phase 3 finds a datagram's pairs
/// by it), and the pair count of each SSRC top byte, which lays out
/// phase 2's partitions and then becomes this chunk's scatter cursor
/// into them. A map of per-SSRC vectors here costs an allocation per
/// noise SSRC and dominates validation time. The small tables
/// (channels, RTCP SSRCs) stay hashed; they hold counts only, so the
/// stream's tables are the sums of its chunks'.
struct ScanState {
  std::vector<Candidate> candidates;     // STUN/ChannelData/RTCP/QUIC
  std::vector<std::uint64_t> rtp_pairs;  // pack_rtp, emission order
  std::vector<std::uint32_t> rtp_hits;   // per datagram of the chunk
  std::array<std::size_t, kRtpPartitions> rtp_partition_pairs{};
  std::unordered_map<std::uint16_t, int> channel_support;
  std::unordered_map<std::uint32_t, int> rtcp_ssrc_support;
  int quic_long_support = 0;
  PipelineCounters nodes;  // this chunk's demux / prefilter / scan tallies

  /// Ready the state for a fresh analyze_batch call while keeping the
  /// vectors' capacity and the hash tables' buckets warm.
  void reset() {
    candidates.clear();
    rtp_pairs.clear();
    rtp_hits.clear();
    rtp_partition_pairs.fill(0);
    channel_support.clear();
    rtcp_ssrc_support.clear();
    quic_long_support = 0;
    nodes = {};
  }
};

struct RtpSniff {
  std::size_t header_size = 0;
  std::uint8_t payload_type = 0;
  std::uint16_t seq = 0;
  std::uint32_t ssrc = 0;
};

/// Header-only RTP check: version 2, CSRC/extension fit in the bound.
RTCC_ALWAYS_INLINE std::optional<RtpSniff> sniff_rtp(BytesView d) {
  if (d.size() < 12) return std::nullopt;
  if ((d[0] >> 6) != 2) return std::nullopt;
  const std::size_t cc = d[0] & 0x0F;
  const bool ext = (d[0] & 0x10) != 0;
  std::size_t hdr = 12 + cc * 4;
  if (d.size() < hdr) return std::nullopt;
  if (ext) {
    if (d.size() < hdr + 4) return std::nullopt;
    const std::uint16_t words = rtcc::util::load_be16(d.data() + hdr + 2);
    hdr += 4 + std::size_t{words} * 4;
    if (d.size() < hdr) return std::nullopt;
  }
  if (d[0] & 0x20) {  // padding byte must fit
    const std::uint8_t pad = d[d.size() - 1];
    if (pad == 0 || hdr + pad > d.size()) return std::nullopt;
  }
  RtpSniff s;
  s.header_size = hdr;
  s.payload_type = d[1] & 0x7F;
  s.seq = rtcc::util::load_be16(d.data() + 2);
  s.ssrc = rtcc::util::load_be32(d.data() + 8);
  return s;
}

/// Header-only RTCP compound check.
struct RtcpSniff {
  std::size_t parsed = 0;    // bytes covered by well-formed packets
  std::size_t trailing = 0;  // leftover within the datagram
  std::uint8_t first_pt = 0;
  std::uint32_t first_ssrc = 0;
  std::size_t packets = 0;
};

RTCC_ALWAYS_INLINE std::optional<RtcpSniff> sniff_rtcp(BytesView d, std::size_t max_trailing) {
  if (d.size() < 8) return std::nullopt;
  RtcpSniff s;
  std::size_t pos = 0;
  while (pos + 4 <= d.size()) {
    const std::uint8_t b0 = d[pos];
    if ((b0 >> 6) != 2) break;
    const std::uint8_t pt = d[pos + 1];
    // Restrict to the assigned 200-207 block: the full 192-223 range
    // admits too many false positives when scanning mid-payload.
    if (pt < 200 || pt > 207) break;
    const std::size_t len =
        4 + std::size_t{rtcc::util::load_be16(d.data() + pos + 2)} * 4;
    if (pos + len > d.size()) break;
    if (s.packets == 0) {
      s.first_pt = pt;
      if (len >= 8) s.first_ssrc = rtcc::util::load_be32(d.data() + pos + 4);
    }
    ++s.packets;
    pos += len;
  }
  if (s.packets == 0) return std::nullopt;
  s.parsed = pos;
  s.trailing = d.size() - pos;
  if (s.trailing > max_trailing) return std::nullopt;
  return s;
}

std::uint16_t seq_distance(std::uint16_t a, std::uint16_t b) {
  const std::uint16_t d1 = static_cast<std::uint16_t>(a - b);
  const std::uint16_t d2 = static_cast<std::uint16_t>(b - a);
  return std::min(d1, d2);
}

/// Groups one partition's packed pairs by SSRC, ascending, in place;
/// `tmp` is scratch. Below kPartitionMinPairs a comparison sort is
/// cheapest. A larger partition shares its SSRC top byte (a stream with
/// fewer pairs is one partition, and a partition holds no more than its
/// stream), so two 12-bit LSD counting passes over the low 24 SSRC bits
/// (bits 32-55) group it, with a 4096-bucket table that stays in L1.
/// Pairs inside a group stay in pass order: the continuity walk sorts
/// the few groups that clear the support gate (real streams) and never
/// reads seq order inside noise groups.
void group_partition(std::uint64_t* v, std::size_t n,
                     std::vector<std::uint64_t>& tmp) {
  if (n < ScanningDpi::kPartitionMinPairs) {
    std::sort(v, v + n);
    return;
  }
  constexpr int kDigitBits = 12;
  constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
  if (tmp.size() < n) tmp.resize(n);
  std::uint64_t* src = v;
  std::uint64_t* dst = tmp.data();
  for (int shift = 32; shift < 56; shift += kDigitBits) {
    std::array<std::uint32_t, kDigitMask + 1> pos{};
    for (std::size_t i = 0; i < n; ++i) ++pos[(src[i] >> shift) & kDigitMask];
    std::uint32_t running = 0;
    for (std::uint32_t& c : pos) {
      const std::uint32_t k = c;
      c = running;
      running += k;
    }
    for (std::size_t i = 0; i < n; ++i)
      dst[pos[(src[i] >> shift) & kDigitMask]++] = src[i];
    std::swap(src, dst);
  }
  // Two passes: the grouped keys are back in `v`.
}

// ---- Candidate emission, one helper per protocol ----
//
// Each helper re-checks its full structural conditions, so it emits the
// same candidate whether invoked at every offset (naive oracle) or only
// at anchored offsets (prefilter): the anchors in anchor_scan.cpp are
// necessary conditions of these checks, never a replacement for them.

RTCC_ALWAYS_INLINE void emit_stun(BytesView at, std::uint32_t di, std::uint32_t off,
               ScanState& st) {
  if (at.size() < stun::kHeaderSize || (at[0] & 0xC0) != 0) return;
  const std::uint32_t cookie = rtcc::util::load_be32(at.data() + 4);
  const std::uint16_t dlen = rtcc::util::load_be16(at.data() + 2);
  const bool modern = cookie == stun::kMagicCookie;
  // Classic (RFC 3489) STUN has no cookie; to keep false positives
  // manageable we require a defined method and an exact datagram-tail
  // fit, which real classic stacks satisfy.
  const bool classic_fit =
      !modern &&
      stun::lookup_message_type(rtcc::util::load_be16(at.data())).source !=
          proto::SpecSource::kUndefined &&
      stun::kHeaderSize + std::size_t{dlen} == at.size();
  if (!modern && !classic_fit) return;
  stun::ParseOptions po;
  po.require_magic_cookie = modern;
  if (auto parsed = stun::parse(at, po)) {
    Candidate& c = st.candidates.emplace_back();
    c.kind = MessageKind::kStun;
    c.datagram = di;
    c.offset = off;
    c.length = static_cast<std::uint32_t>(parsed->consumed);
  }
}

RTCC_ALWAYS_INLINE void emit_channel_data(BytesView at, std::uint32_t di, std::uint32_t off,
                       ScanState& st) {
  // TURN ChannelData: first byte 0x40-0x4F.
  if (at.size() < 4 || at[0] < 0x40 || at[0] > 0x4F) return;
  const std::uint16_t clen = rtcc::util::load_be16(at.data() + 2);
  if (4 + std::size_t{clen} > at.size()) return;
  Candidate& c = st.candidates.emplace_back();
  c.kind = MessageKind::kChannelData;
  c.datagram = di;
  c.offset = off;
  // Extent includes trailing padding up to the 4-byte boundary only
  // when it reaches the datagram end (the FaceTime pattern); otherwise
  // exactly 4+len.
  std::size_t extent = 4 + std::size_t{clen};
  const std::size_t padded = (extent + 3) & ~std::size_t{3};
  if (padded == at.size()) extent = padded;
  c.length = static_cast<std::uint32_t>(extent);
  c.channel = rtcc::util::load_be16(at.data());
  ++st.channel_support[c.channel];
}

RTCC_ALWAYS_INLINE void emit_rtcp(BytesView at, std::uint32_t di, std::uint32_t off,
               std::size_t max_trailing, ScanState& st) {
  if (auto s = sniff_rtcp(at, max_trailing)) {
    Candidate& c = st.candidates.emplace_back();
    c.kind = MessageKind::kRtcp;
    c.datagram = di;
    c.offset = off;
    c.length = static_cast<std::uint32_t>(s->parsed + s->trailing);
    c.ssrc = s->first_ssrc;
    ++st.rtcp_ssrc_support[c.ssrc];
  }
}

RTCC_ALWAYS_INLINE void emit_quic(BytesView at, std::uint32_t di, std::uint32_t off,
               ScanState& st) {
  if (at.empty()) return;
  const std::uint8_t b0 = at[0];
  if ((b0 & 0xC0) == 0xC0) {  // long form + fixed bit
    if (auto h = quic::parse(at)) {
      // Only QUIC v1 long headers are scanned for: admitting the
      // all-zero version-negotiation pattern would match zero runs
      // inside opaque payloads.
      if (h->version == quic::kVersion1) {
        Candidate& c = st.candidates.emplace_back();
        c.kind = MessageKind::kQuic;
        c.datagram = di;
        c.offset = off;
        c.length = static_cast<std::uint32_t>(h->wire_size());
        c.flags = Candidate::kQuicLong;
        ++st.quic_long_support;
      }
    }
  } else if ((b0 & 0xC0) == 0x40 && off == 0) {
    // Short header: only meaningful at offset 0 and only if the stream
    // establishes a connection (checked in validation).
    Candidate& c = st.candidates.emplace_back();
    c.kind = MessageKind::kQuic;
    c.datagram = di;
    c.offset = 0;
    c.length = static_cast<std::uint32_t>(at.size());
  }
}

/// RTP stores its hit as a pair only; the caller counts the datagram's
/// hits from the growth of rtp_pairs.
RTCC_ALWAYS_INLINE void emit_rtp(BytesView at, std::uint32_t off,
                                 ScanState& st) {
  if (auto s = sniff_rtp(at)) {
    // Skip byte patterns that are really RTCP (PT 72-79 with the marker
    // bit corresponds to RTCP types 200-207). This also means no offset
    // holds both an RTP and an RTCP hit.
    const std::uint8_t pt_byte = at[1];
    if (pt_byte >= 0xC8 && pt_byte <= 0xCF) return;
    st.rtp_pairs.push_back(pack_rtp(s->ssrc, s->seq, off));
    ++st.rtp_partition_pairs[s->ssrc >> 24];
  }
}

/// One anchored offset: run the sniffs the anchor mask selects, in the
/// fixed per-offset protocol order (STUN, ChannelData, RTCP, QUIC, RTP)
/// that the naive oracle loop uses — the candidate list is identical,
/// not merely equal as a set.
RTCC_ALWAYS_INLINE void emit_at(BytesView payload, std::uint32_t di,
                                std::uint32_t off, std::uint8_t mask,
                                const ScanOptions& opts, ScanState& st) {
  const BytesView at = payload.subspan(off);
  if (mask == anchor::kRtp) {  // ~25% of offsets: keep it lean
    emit_rtp(at, off, st);
    return;
  }
  if (mask & anchor::kStun) emit_stun(at, di, off, st);
  if (mask & anchor::kChannelData) emit_channel_data(at, di, off, st);
  if (mask & anchor::kRtcp) emit_rtcp(at, di, off, opts.max_rtcp_trailing, st);
  if (mask & (anchor::kQuicLong | anchor::kQuicShort))
    emit_quic(at, di, off, st);
  if (mask & anchor::kRtp) emit_rtp(at, off, st);
}

/// Naive oracle extraction for one datagram: every protocol sniff at
/// every offset 0..k.
void extract_naive(BytesView payload, std::uint32_t di,
                   const ScanOptions& opts, ScanState& st) {
  const std::size_t limit = scan_limit(payload.size(), opts);
  for (std::size_t i = 0; i < limit; ++i) {
    const BytesView at = payload.subspan(i);
    const auto off = static_cast<std::uint32_t>(i);
    if (opts.scan_stun) {
      emit_stun(at, di, off, st);
      emit_channel_data(at, di, off, st);
    }
    if (opts.scan_rtcp) emit_rtcp(at, di, off, opts.max_rtcp_trailing, st);
    if (opts.scan_quic) emit_quic(at, di, off, st);
    if (opts.scan_rtp) emit_rtp(at, off, st);
  }
}


/// Scanned offsets per RTP pair, and per other candidate, the chunk
/// buffers are sized for (each plus one per datagram). Relay media
/// yields one RTP header look-alike per 9-11 scanned offsets, and well
/// under two other candidates per datagram; a denser stream grows its
/// buffers as usual.
constexpr std::size_t kOffsetsPerRtpPair = 8;
constexpr std::size_t kOffsetsPerCandidate = 64;

/// Per-vector scratch for the node graph, reused across vectors (and,
/// being thread_local at the call site, across calls) so the
/// steady-state inner loops are allocation-free.
struct BatchScratch {
  std::vector<std::uint32_t> scannable;   // demux output: packet indices
  std::vector<AnchorMasks> masks;         // prefilter output, whole vector
  std::vector<std::uint32_t> mask_begin;  // per scannable packet, +1 end
};

/// Phase 1, one chunk: candidate extraction (Algorithm 1, lines 5-13)
/// over datagrams [begin, end) into `st`, which starts empty. Emission
/// depends only on the datagram, so a chunk emits exactly the slice of
/// the whole-stream candidate list and pair sequence that covers its
/// datagrams, and its support tables hold that slice's counts.
void extract_chunk(const rtcc::net::PacketBatch& packets, std::size_t begin,
                   std::size_t end, const ScanOptions& opts, ScanState& st,
                   PipelineCounters* counters) {
  namespace net = rtcc::net;
  st.rtp_hits.assign(end - begin, 0);
  if (!opts.use_anchor_prefilter) {
    // Oracle path: every protocol sniff at every offset 0..k.
    for (std::size_t di = begin; di < end; ++di) {
      const std::size_t pairs = st.rtp_pairs.size();
      extract_naive(packets.payload(di), static_cast<std::uint32_t>(di), opts,
                    st);
      st.rtp_hits[di - begin] =
          static_cast<std::uint32_t>(st.rtp_pairs.size() - pairs);
    }
    return;
  }
  // Node graph: demux → prefilter → scan, one fixed-size vector at a
  // time. Each node runs its loop over the whole vector before the
  // next starts, so its code, tables and branch history stay hot for
  // bsz packets instead of being evicted every datagram.
  constexpr std::size_t bsz = net::kBatchSize;
  static thread_local BatchScratch batch_scratch;
  BatchScratch& scratch = batch_scratch;
  scratch.scannable.reserve(bsz);
  scratch.mask_begin.reserve(bsz + 1);
  const AnchorBlockFn kernel = anchor_block_fn();
  for (std::size_t base = begin; base < end; base += bsz) {
    const std::size_t stop = std::min(end, base + bsz);

    // Demux node: drop empty payloads (nothing to scan), prefetch
    // upcoming payload heads. Unrolled loop: kDemuxUnroll descriptors
    // per iteration keeps the loads' latencies overlapped. The width
    // is a compile-time ablation knob (-DRTCC_DEMUX_UNROLL=2|4, see
    // EXPERIMENTS.md); the emitted descriptor order is identical at
    // every width, so analyses stay byte-identical across the sweep.
    scratch.scannable.clear();
    std::size_t di = base;
    for (; di + kDemuxUnroll <= stop; di += kDemuxUnroll) {
      for (std::size_t u = 0; u < kDemuxUnroll; ++u)
        if (di + u + net::kPrefetchAhead < stop)
          net::prefetch(packets.data[di + u + net::kPrefetchAhead]);
      for (std::size_t u = 0; u < kDemuxUnroll; ++u)
        if (packets.len[di + u] != 0)
          scratch.scannable.push_back(static_cast<std::uint32_t>(di + u));
    }
    for (; di < stop; ++di)
      if (packets.len[di] != 0)
        scratch.scannable.push_back(static_cast<std::uint32_t>(di));
    if (counters != nullptr) {
      ++counters->demux.vectors;
      counters->demux.packets += stop - base;
      counters->demux.suspended += (stop - base) - scratch.scannable.size();
    }

    // Prefilter node: the pure SIMD pass. One kernel call per payload
    // writes the per-family hot-lane masks for its whole scan region
    // into the vector's mask buffer (32 bytes per 64 offsets — far
    // less traffic than an expanded hit list at media-payload hit
    // rates, and L1-resident at the default batch size). At the
    // scalar level there is no kernel and the node is a pass-through;
    // the scan node then runs the fused per-offset loop itself.
    scratch.masks.clear();
    scratch.mask_begin.clear();
    if (kernel != nullptr) {
      for (std::size_t si = 0; si < scratch.scannable.size(); ++si) {
        if (si + net::kPrefetchAhead < scratch.scannable.size())
          net::prefetch(
              packets.data[scratch.scannable[si + net::kPrefetchAhead]]);
        scratch.mask_begin.push_back(
            static_cast<std::uint32_t>(scratch.masks.size()));
        stage_anchor_masks(packets.payload(scratch.scannable[si]), opts,
                           kernel, scratch.masks);
      }
      scratch.mask_begin.push_back(
          static_cast<std::uint32_t>(scratch.masks.size()));
    }
    if (counters != nullptr) {
      ++counters->prefilter.vectors;
      counters->prefilter.packets += scratch.scannable.size();
      // Suspended = hot lanes staged for the scan node to re-test.
      std::uint64_t lanes = 0;
      for (const AnchorMasks& m : scratch.masks)
        lanes += static_cast<std::uint64_t>(__builtin_popcountll(m.any()));
      counters->prefilter.suspended += lanes;
    }

    // Scan node: walk the staged masks (applying the exact anchor
    // rules the approximate stun lanes still need) and run the full
    // protocol sniffs at each anchored offset.
    const std::size_t before = st.candidates.size() + st.rtp_pairs.size();
    for (std::size_t si = 0; si < scratch.scannable.size(); ++si) {
      const std::uint32_t d32 = scratch.scannable[si];
      const BytesView payload = packets.payload(d32);
      const std::size_t pairs = st.rtp_pairs.size();
      const auto emit = [&](std::uint32_t off, std::uint8_t mask) {
        emit_at(payload, d32, off, mask, opts, st);
      };
      if (kernel != nullptr)
        for_each_anchor_staged(payload, opts,
                               scratch.masks.data() + scratch.mask_begin[si],
                               emit);
      else
        for_each_anchor(payload, opts, emit);
      st.rtp_hits[d32 - begin] =
          static_cast<std::uint32_t>(st.rtp_pairs.size() - pairs);
    }
    if (counters != nullptr) {
      ++counters->scan.vectors;
      counters->scan.packets += scratch.scannable.size();
      counters->scan.suspended +=
          st.candidates.size() + st.rtp_pairs.size() - before;
    }
  }
}

/// Phase 2's output: the stream-level RTP tables. SSRCs with support
/// >= 2 and their support (for overlap dominance), and the validated
/// SSRCs (support + sequence-number continuity), ascending, probed with
/// binary search by every chunk. An SSRC seen once is left out — on
/// relay media that is nearly every noise SSRC — and support_of gives
/// it 1. That is exact: support_of is only asked about the SSRC of an
/// RTP pair.
struct RtpTables {
  std::vector<std::uint32_t> ssrcs, support, valid;

  [[nodiscard]] bool ssrc_valid(std::uint32_t ssrc) const {
    return std::binary_search(valid.begin(), valid.end(), ssrc);
  }
  [[nodiscard]] std::size_t support_of(std::uint32_t ssrc) const {
    const auto it = std::lower_bound(ssrcs.begin(), ssrcs.end(), ssrc);
    if (it == ssrcs.end() || *it != ssrc) return 1;
    return support[static_cast<std::size_t>(it - ssrcs.begin())];
  }

  void append(const RtpTables& slice) {
    ssrcs.insert(ssrcs.end(), slice.ssrcs.begin(), slice.ssrcs.end());
    support.insert(support.end(), slice.support.begin(), slice.support.end());
    valid.insert(valid.end(), slice.valid.begin(), slice.valid.end());
  }
};

/// Walks one grouped partition's SSRC groups into `t`, in ascending
/// SSRC order. Each group that clears the support gate has its pairs
/// sorted (equal-SSRC pairs order by seq, then offset) for the
/// continuity check.
void append_rtp_groups(std::uint64_t* v, std::size_t n,
                       std::size_t min_ssrc_support, RtpTables& t) {
  for (std::size_t lo = 0; lo < n;) {
    const std::uint32_t ssrc = pair_ssrc(v[lo]);
    std::size_t hi = lo + 1;
    while (hi < n && pair_ssrc(v[hi]) == ssrc) ++hi;
    const std::size_t support = hi - lo;
    if (support >= 2) {
      t.ssrcs.push_back(ssrc);
      t.support.push_back(static_cast<std::uint32_t>(support));
    }
    if (support >= min_ssrc_support) {
      std::sort(v + lo, v + hi);
      // Continuity: a healthy stream's sorted sequence numbers are
      // mostly adjacent; scanning noise produces uniformly random ones.
      // Constant proprietary-header bytes produce the opposite artifact
      // — the same fake (ssrc, seq) repeated verbatim — so genuine
      // streams must also show the sequence number actually advancing.
      // A lone pair never advances, so every valid SSRC is also in
      // `ssrcs`.
      std::size_t close = 0, distinct = 1;
      for (std::size_t i = lo + 1; i < hi; ++i) {
        const std::uint16_t seq = pair_seq(v[i]);
        const std::uint16_t prev = pair_seq(v[i - 1]);
        // A zero gap is a duplicate, not adjacency: constant header
        // bytes masquerading as RTP repeat the same few (ssrc, seq)
        // pairs, and duplicates must not count as continuity evidence.
        const std::uint16_t gap = seq_distance(seq, prev);
        if (gap >= 1 && gap <= 16) ++close;
        if (seq != prev) ++distinct;
      }
      const bool advancing = distinct >= std::max<std::size_t>(2, support / 4);
      if (advancing && close * 2 >= support - 1) t.valid.push_back(ssrc);
    }
    lo = hi;
  }
}

/// Phase 2, RTP half: builds the stream's RTP tables from the chunks'
/// pairs, on the same chunks and pool as phases 1 and 3.
///   1. Each chunk counted its pairs per SSRC top byte at emission. The
///      counts lay the partitions out in `pairs`, partition-major and
///      chunk-minor (one partition below kPartitionMinPairs pairs, so
///      a short flow never lays out 256 of them).
///   2. Each chunk scatters its pairs there, one task per chunk, and
///      keeps its own emission-order pairs for phase 3.
///   3. Each task groups a contiguous range of partitions, about equal
///      in pairs, in place and walks them into its slice of the tables.
///   4. The slices join in partition order.
/// `pairs` is the calling thread's stream-sized buffer; it only grows.
template <typename StateFn, typename RunFn>
RtpTables build_rtp_tables(std::size_t chunks, const StateFn& state,
                           const RunFn& run, std::size_t min_ssrc_support,
                           std::vector<std::uint64_t>& pairs) {
  std::size_t total = 0;
  for (std::size_t c = 0; c < chunks; ++c) total += state(c).rtp_pairs.size();
  const std::size_t parts =
      total < ScanningDpi::kPartitionMinPairs ? 1 : kRtpPartitions;
  const std::uint64_t part_mask = parts - 1;
  // part_begin[p] is partition p's first slot. Each chunk's count of
  // partition p becomes where its next pair of partition p goes.
  std::array<std::size_t, kRtpPartitions + 1> part_begin{};
  std::size_t running = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    part_begin[p] = running;
    for (std::size_t c = 0; c < chunks; ++c) {
      ScanState& st = state(c);
      std::size_t& slot = st.rtp_partition_pairs[p];
      const std::size_t n = parts == 1 ? st.rtp_pairs.size() : slot;
      slot = running;
      running += n;
    }
  }
  part_begin[parts] = running;
  if (pairs.size() < total) {
    std::vector<std::uint64_t>().swap(pairs);
    pairs.resize(total);
  }

  run(chunks, [&](std::size_t c) {
    ScanState& st = state(c);
    auto& cursor = st.rtp_partition_pairs;
    for (const std::uint64_t x : st.rtp_pairs)
      pairs[cursor[(x >> 56) & part_mask]++] = x;
  });

  // Task t groups partitions [task_begin[t], task_begin[t + 1]): the
  // first starts at or after pair t * total / tasks.
  const std::size_t tasks = std::min(chunks, parts);
  std::array<std::size_t, kRtpPartitions + 1> task_begin{};
  for (std::size_t t = 0, p = 0; t < tasks; ++t) {
    while (p < parts && part_begin[p] * tasks < t * total) ++p;
    task_begin[t] = p;
  }
  task_begin[tasks] = parts;
  RtpTables rtp;
  std::vector<RtpTables> rest(tasks - 1);
  run(tasks, [&](std::size_t t) {
    RtpTables& slice = t == 0 ? rtp : rest[t - 1];
    // Every SSRC the slice keeps holds at least two of its pairs.
    const std::size_t range_pairs =
        part_begin[task_begin[t + 1]] - part_begin[task_begin[t]];
    slice.ssrcs.reserve(range_pairs / 2);
    slice.support.reserve(range_pairs / 2);
    std::vector<std::uint64_t> tmp;
    for (std::size_t p = task_begin[t]; p < task_begin[t + 1]; ++p) {
      std::uint64_t* v = pairs.data() + part_begin[p];
      const std::size_t n = part_begin[p + 1] - part_begin[p];
      group_partition(v, n, tmp);
      append_rtp_groups(v, n, min_ssrc_support, slice);
    }
  });
  for (const RtpTables& slice : rest) rtp.append(slice);
  return rtp;
}

template <typename Table, typename Key>
int support_count(const Table& table, Key key) {
  const auto it = table.find(key);
  return it == table.end() ? 0 : it->second;
}

/// Phase 3, one chunk: validates the chunk's candidates and RTP pairs,
/// then resolves and parses datagrams [begin, end) into out[begin, end).
/// `stream` holds the summed support tables and `rtp` the phase-2 RTP
/// tables; both are shared by every chunk and only read here.
void resolve_chunk(const rtcc::net::PacketBatch& packets, std::size_t begin,
                   std::size_t end, const ScanState& chunk,
                   const ScanState& stream, const RtpTables& rtp,
                   const ScanOptions& opts,
                   std::vector<DatagramAnalysis>& out) {
  // Per-candidate accept/reject for the non-RTP kinds (Algorithm 1,
  // lines 14-19), applied inside the per-datagram merge below; an RTP
  // pair is accepted there when its SSRC is valid.
  const auto accepts = [&](const Candidate& c) {
    if (!opts.validate) return true;
    switch (c.kind) {
      case MessageKind::kStun:
        // Magic-cookie messages and exact-fit classic messages are
        // structurally sound. Transaction pairing raises confidence but
        // unanswered requests must still be extracted — they are the
        // non-compliance evidence (e.g. FaceTime §5.2.1).
        return true;
      case MessageKind::kChannelData: {
        // A genuine ChannelData message extends to the datagram end
        // (optionally via padding), and real TURN channels repeat the
        // same channel number stream-wide; requiring both keeps random
        // byte runs inside media payloads from matching.
        const std::size_t remaining = packets.len[c.datagram] - c.offset;
        return std::size_t{c.length} == remaining &&
               support_count(stream.channel_support, c.channel) >= 2;
      }
      case MessageKind::kRtcp: {
        // Cross-validate against known RTP streams, or require repeated
        // appearances of the same sender SSRC within this stream
        // (covers RTCP-only streams and Discord's SSRC=0 usage).
        const std::size_t remaining = packets.len[c.datagram] - c.offset;
        return std::size_t{c.length} == remaining &&
               (rtp.ssrc_valid(c.ssrc) ||
                support_count(stream.rtcp_ssrc_support, c.ssrc) >= 2);
      }
      case MessageKind::kQuic:
        // Long headers validate on version+structure; short headers
        // require the stream to have completed a long-header handshake.
        return c.quic_long() || stream.quic_long_support >= 2;
      case MessageKind::kRtp:
        break;  // RTP hits are pairs, never stored candidates
    }
    return false;
  };

  // ---- Overlap resolution + full parse of accepted candidates ----
  // Both extraction paths emit in (datagram, offset, kind-rank) order —
  // ascending offsets, and per offset the fixed STUN, ChannelData,
  // RTCP, QUIC, RTP sequence — so each datagram's candidates and its
  // pairs (rtp_hits of them) are contiguous runs, each in offset order.
  // Merging the two by offset, RTP last at an equal offset (no offset
  // can hold both: RTP and RTCP split on the PT byte, every other kind
  // on the first byte's top bits), rebuilds the emission order the
  // cover walk needs; no per-datagram sort or bucket vectors.
  const std::vector<Candidate>& candidates = chunk.candidates;
  const std::vector<std::uint64_t>& pairs = chunk.rtp_pairs;
  std::vector<Candidate> cands;  // scratch, reused across datagrams
  std::size_t ci = 0, pi = 0;

  for (std::size_t di = begin; di < end; ++di) {
    auto& anal = out[di];
    anal.payload_len = packets.len[di];
    std::size_t c_end = ci;
    while (c_end < candidates.size() && candidates[c_end].datagram == di)
      ++c_end;
    const std::size_t p_end = pi + chunk.rtp_hits[di - begin];
    anal.candidates = (c_end - ci) + (p_end - pi);
    cands.clear();
    while (ci < c_end || pi < p_end) {
      if (pi == p_end ||
          (ci < c_end && candidates[ci].offset <= pair_offset(pairs[pi]))) {
        const Candidate& c = candidates[ci++];
        if (accepts(c)) {
          cands.push_back(c);
          cands.back().flags |= Candidate::kValidated;
        }
        continue;
      }
      const std::uint64_t x = pairs[pi++];
      if (opts.validate && !rtp.ssrc_valid(pair_ssrc(x))) continue;
      Candidate& c = cands.emplace_back();
      c.kind = MessageKind::kRtp;
      c.datagram = static_cast<std::uint32_t>(di);
      c.offset = pair_offset(x);
      c.length = anal.payload_len - c.offset;
      c.ssrc = pair_ssrc(x);
      c.flags = Candidate::kValidated;
    }

    // Overlap dominance: misaligned RTP candidates can slip past the
    // SSRC-support gate when their fake SSRC bytes partially coincide
    // with a real stream's (e.g. the off-by-one alignment that blends a
    // timestamp byte with three real SSRC bytes). A candidate whose
    // SSRC has a small fraction of the support of an overlapping RTP
    // candidate is noise and must not shadow the genuine message.
    for (std::size_t i = 0; i < cands.size(); ++i) {
      Candidate& c = cands[i];
      if (c.kind != MessageKind::kRtp) continue;
      for (std::size_t j = 0; j < cands.size(); ++j) {
        const Candidate& n = cands[j];
        if (i == j || n.kind != MessageKind::kRtp) continue;
        // Two RTP candidates in one datagram always overlap: each spans
        // the datagram remainder (RTP carries no length field).
        if (rtp.support_of(n.ssrc) > 4 * rtp.support_of(c.ssrc)) {
          c.flags &= static_cast<std::uint8_t>(~Candidate::kValidated);
          break;
        }
      }
    }
    std::erase_if(cands, [](const Candidate& c) { return !c.validated(); });

    std::size_t covered_until = 0;
    for (std::size_t k = 0; k < cands.size(); ++k) {
      const Candidate& c = cands[k];
      if (c.offset < covered_until) continue;  // overlaps accepted msg

      std::size_t extent = c.length;
      if (c.kind == MessageKind::kRtp) {
        // RTP has no length field: by default it spans the datagram
        // remainder, but a later validated RTP candidate with the same
        // SSRC splits it (the Zoom two-RTP-messages-per-datagram
        // pattern, §5.3). Other candidate kinds never truncate RTP —
        // they are overwhelmingly scan noise inside the media payload.
        extent = anal.payload_len - c.offset;
        for (std::size_t j = k + 1; j < cands.size(); ++j) {
          const Candidate& n = cands[j];
          if (n.kind == MessageKind::kRtp && n.ssrc == c.ssrc &&
              n.offset > c.offset + 12) {
            extent = n.offset - c.offset;
            break;
          }
        }
      }

      const BytesView view = packets.payload(di).subspan(c.offset, extent);
      ExtractedMessage msg;
      msg.kind = c.kind;
      msg.offset = c.offset;
      msg.length = extent;
      bool ok = false;
      switch (c.kind) {
        case MessageKind::kStun: {
          stun::ParseOptions po;
          po.require_magic_cookie = false;
          if (auto p = stun::parse(view, po)) {
            msg.stun = std::move(p->message);
            msg.raw.assign(view.begin(),
                           view.begin() + static_cast<std::ptrdiff_t>(
                                              p->consumed));
            ok = true;
          }
          break;
        }
        case MessageKind::kChannelData:
          if (auto p = stun::parse_channel_data(view)) {
            msg.channel_data = std::move(*p);
            ok = true;
          }
          break;
        case MessageKind::kRtp:
          // Media bytes are opaque to the compliance layer; record the
          // length but skip copying them (~1 KiB per extracted packet).
          if (auto p = rtp::parse(view, rtp::ParseOptions{false})) {
            msg.rtp = std::move(p->packet);
            ok = true;
          }
          break;
        case MessageKind::kRtcp: {
          rtcp::ParseOptions po;
          po.max_trailing = opts.max_rtcp_trailing;
          if (auto p = rtcp::parse_compound(view, po)) {
            msg.rtcp = std::move(*p);
            ok = true;
          }
          break;
        }
        case MessageKind::kQuic: {
          quic::ParseOptions po;
          if (auto p = quic::parse(view, po)) {
            msg.quic = std::move(*p);
            ok = true;
          }
          break;
        }
      }
      if (!ok) continue;
      covered_until = c.offset + extent;
      anal.messages.push_back(std::move(msg));
    }

    if (anal.messages.empty()) {
      anal.klass = DatagramClass::kFullyProprietary;
    } else if (anal.messages.front().offset > 0) {
      anal.klass = DatagramClass::kProprietaryHeader;
      anal.proprietary_header_len = anal.messages.front().offset;
    } else {
      anal.klass = DatagramClass::kStandard;
    }
  }
}

}  // namespace

ScanningDpi::ScanningDpi(ScanOptions options) : options_(options) {}

std::vector<DatagramAnalysis> ScanningDpi::analyze_stream(
    const std::vector<StreamDatagram>& datagrams) const {
  rtcc::net::PacketBatch batch;
  batch.reserve(datagrams.size());
  for (const auto& d : datagrams) batch.push(d.payload, d.ts, d.dir);
  return analyze_batch(batch);
}

std::vector<DatagramAnalysis> ScanningDpi::analyze_batch(
    const rtcc::net::PacketBatch& packets, PipelineCounters* counters,
    std::size_t width) const {
  constexpr std::size_t bsz = rtcc::net::kBatchSize;
  const std::size_t n_packets = packets.size();
  const std::size_t vectors = (n_packets + bsz - 1) / bsz;
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min(width, vectors / kMinChunkVectors));
  // Chunk c covers whole vectors [c*V/W, (c+1)*V/W), in datagram order.
  const auto chunk_begin = [&](std::size_t c) {
    return std::min(n_packets, c * vectors / chunks * bsz);
  };
  // A single task runs on the calling thread, so width 1 never touches
  // (or creates) the shared pool.
  const auto run = [](std::size_t tasks, const auto& fn) {
    if (tasks == 1) {
      fn(std::size_t{0});
    } else {
      rtcc::util::ThreadPool::shared().parallel_for(tasks, fn);
    }
  };

  // Chunk 0's extraction state is thread_local: the candidate and pair
  // buffers reach a few MB on relay media streams, and re-growing (and
  // re-faulting) them every call costs more than the scan of a small
  // stream. Reset keeps capacity and hash-table buckets warm. The
  // other chunks' states live only for this call, so a wide call
  // leaves nothing behind. Tasks reach chunk 0's through `first`:
  // named inside a task, the thread_local would resolve to the
  // executing worker's instance.
  static thread_local ScanState first_state;
  ScanState& first = first_state;
  std::vector<ScanState> rest(chunks - 1);
  const auto state = [&](std::size_t c) -> ScanState& {
    return c == 0 ? first : rest[c - 1];
  };

  // Buffers are sized here, on the calling thread, from the scan
  // region: a worker that grew one by doubling would strand the
  // outgrown copies in its own malloc arena, where no other thread's
  // allocations reuse them. Reserved pages that are never written cost
  // no memory, so the estimate errs high.
  for (std::size_t c = 0; c < chunks; ++c) {
    ScanState& st = state(c);
    st.reset();
    const std::size_t begin = chunk_begin(c), end = chunk_begin(c + 1);
    std::size_t offsets = 0;
    for (std::size_t di = begin; di < end; ++di)
      offsets += scan_limit(packets.len[di], options_);
    const std::size_t pairs = offsets / kOffsetsPerRtpPair + (end - begin);
    const std::size_t cands = offsets / kOffsetsPerCandidate + (end - begin);
    if (st.rtp_pairs.capacity() < pairs) st.rtp_pairs.reserve(pairs);
    if (st.candidates.capacity() < cands) st.candidates.reserve(cands);
    if (st.rtp_hits.capacity() < end - begin) st.rtp_hits.reserve(end - begin);
  }

  // ---- Phase 1: candidate extraction, one chunk per task ----
  run(chunks, [&](std::size_t c) {
    ScanState& st = state(c);
    extract_chunk(packets, chunk_begin(c), chunk_begin(c + 1), options_, st,
                  counters != nullptr ? &st.nodes : nullptr);
  });
  if (counters != nullptr)
    for (std::size_t c = 0; c < chunks; ++c) counters->merge(state(c).nodes);

  // ---- Phase 2: stream-level validation tables ----
  // The small support tables are summed into chunk 0's, which becomes
  // the stream's; sums do not depend on how the stream was split. The
  // RTP tables are built from partitions on the pool. The partitioned
  // pair buffer is the calling thread's, like chunk 0's state, and
  // reached through a reference for the same reason.
  ScanState& stream = first;
  for (const ScanState& st : rest) {
    for (const auto& [channel, n] : st.channel_support)
      stream.channel_support[channel] += n;
    for (const auto& [ssrc, n] : st.rtcp_ssrc_support)
      stream.rtcp_ssrc_support[ssrc] += n;
    stream.quic_long_support += st.quic_long_support;
  }
  static thread_local std::vector<std::uint64_t> partitioned_pairs;
  const RtpTables rtp = build_rtp_tables(chunks, state, run,
                                         options_.min_ssrc_support,
                                         partitioned_pairs);

  // ---- Phase 3: validation + resolution, one chunk per task ----
  // Each chunk flags its own candidates and writes only its own
  // datagrams' slots; the stream tables are read-only here.
  std::vector<DatagramAnalysis> out(n_packets);
  run(chunks, [&](std::size_t c) {
    resolve_chunk(packets, chunk_begin(c), chunk_begin(c + 1),
                  state(c), stream, rtp, options_, out);
  });
  return out;
}

}  // namespace rtcc::dpi
