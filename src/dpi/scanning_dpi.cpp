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
/// RTP's header pattern matches ~25% of random offsets, so on a relay
/// media stream this array is by far the scan's largest data structure
/// — it is kept to 20 bytes by folding the per-protocol sniff details
/// (RTP seq) into the support tables at emission time instead of
/// carrying them per candidate.
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

/// Everything the extraction nodes append to: the candidate list plus
/// the support tables (Algorithm 1's validation inputs), one state per
/// chunk. The tables are filled *at emission* — the old separate walk
/// over the candidate array to build them re-read tens of MB per relay
/// stream. The RTP table is the big one — the scan yields one noise
/// candidate per ~25% of offsets with mostly-unique fake SSRCs — and is
/// kept flat: (ssrc, seq) packed into one u64, plus the pair count of
/// each SSRC top byte, which lays out phase 2's partitions and then
/// becomes this chunk's scatter cursor into them. A map of
/// per-SSRC vectors here costs an allocation per noise SSRC and
/// dominates validation time. The small tables (channels, RTCP SSRCs)
/// stay hashed; they hold counts only, so the stream's tables are the
/// sums of its chunks'.
struct ScanState {
  std::vector<Candidate> candidates;
  std::vector<std::uint64_t> rtp_pairs;  // ssrc << 16 | seq
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

/// Groups one partition's packed (ssrc << 16 | seq) keys by SSRC,
/// ascending, in place; `tmp` is scratch. Below kPartitionMinPairs a
/// comparison sort is cheapest. A larger partition shares its SSRC top
/// byte (a stream with fewer pairs is one partition, and a partition
/// holds no more than its stream), so two 12-bit LSD counting passes
/// over the low 24 SSRC bits group it, with a 4096-bucket table that
/// stays in L1. Sequence numbers inside a group stay in pass order: the
/// continuity walk sorts the few groups that clear the support gate
/// (real streams) and never reads seq order inside noise groups.
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
  for (int shift = 16; shift < 40; shift += kDigitBits) {
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

RTCC_ALWAYS_INLINE void emit_rtp(BytesView at, std::uint32_t di, std::uint32_t off,
              ScanState& st) {
  if (auto s = sniff_rtp(at)) {
    // Skip byte patterns that are really RTCP (PT 72-79 with the marker
    // bit corresponds to RTCP types 200-207).
    const std::uint8_t pt_byte = at[1];
    if (pt_byte >= 0xC8 && pt_byte <= 0xCF) return;
    Candidate& c = st.candidates.emplace_back();
    c.kind = MessageKind::kRtp;
    c.datagram = di;
    c.offset = off;
    c.length = static_cast<std::uint32_t>(at.size());
    c.ssrc = s->ssrc;
    st.rtp_pairs.push_back(std::uint64_t{s->ssrc} << 16 | s->seq);
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
    emit_rtp(at, di, off, st);
    return;
  }
  if (mask & anchor::kStun) emit_stun(at, di, off, st);
  if (mask & anchor::kChannelData) emit_channel_data(at, di, off, st);
  if (mask & anchor::kRtcp) emit_rtcp(at, di, off, opts.max_rtcp_trailing, st);
  if (mask & (anchor::kQuicLong | anchor::kQuicShort))
    emit_quic(at, di, off, st);
  if (mask & anchor::kRtp) emit_rtp(at, di, off, st);
}

/// Naive oracle extraction for one datagram: every protocol sniff at
/// every offset 0..k.
void extract_naive(BytesView payload, std::uint32_t di,
                   const ScanOptions& opts, ScanState& st) {
  const std::size_t limit = std::min(opts.max_offset + 1, payload.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const BytesView at = payload.subspan(i);
    const auto off = static_cast<std::uint32_t>(i);
    if (opts.scan_stun) {
      emit_stun(at, di, off, st);
      emit_channel_data(at, di, off, st);
    }
    if (opts.scan_rtcp) emit_rtcp(at, di, off, opts.max_rtcp_trailing, st);
    if (opts.scan_quic) emit_quic(at, di, off, st);
    if (opts.scan_rtp) emit_rtp(at, di, off, st);
  }
}


/// Scanned offsets per candidate the buffers are sized for. Relay media
/// yields one candidate per 9-17 scanned offsets (nearly all of them
/// RTP header look-alikes); a denser stream grows its buffers as usual.
constexpr std::size_t kOffsetsPerCandidate = 8;

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
  if (!opts.use_anchor_prefilter) {
    // Oracle path: every protocol sniff at every offset 0..k.
    for (std::size_t di = begin; di < end; ++di)
      extract_naive(packets.payload(di), static_cast<std::uint32_t>(di), opts,
                    st);
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
    const std::size_t before = st.candidates.size();
    for (std::size_t si = 0; si < scratch.scannable.size(); ++si) {
      const std::uint32_t d32 = scratch.scannable[si];
      const BytesView payload = packets.payload(d32);
      const auto emit = [&](std::uint32_t off, std::uint8_t mask) {
        emit_at(payload, d32, off, mask, opts, st);
      };
      if (kernel != nullptr)
        for_each_anchor_staged(payload, opts,
                               scratch.masks.data() + scratch.mask_begin[si],
                               emit);
      else
        for_each_anchor(payload, opts, emit);
    }
    if (counters != nullptr) {
      ++counters->scan.vectors;
      counters->scan.packets += scratch.scannable.size();
      counters->scan.suspended += st.candidates.size() - before;
    }
  }
}

/// Phase 2's output: the stream-level RTP tables. SSRCs with support
/// >= 2 and their support (for overlap dominance), and the validated
/// SSRCs (support + sequence-number continuity), ascending, probed with
/// binary search by every chunk. An SSRC seen once is left out — on
/// relay media that is nearly every noise SSRC — and support_of gives
/// it 1. That is exact: support_of is only asked about the SSRC of an
/// emitted RTP candidate, and every such candidate pushed a pair.
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
/// SSRC order. Each group that clears the support gate has its keys
/// sorted (equal-SSRC keys order by their low 16 bits, i.e. by seq)
/// for the continuity check.
void append_rtp_groups(std::uint64_t* v, std::size_t n,
                       std::size_t min_ssrc_support, RtpTables& t) {
  for (std::size_t lo = 0; lo < n;) {
    const auto ssrc = static_cast<std::uint32_t>(v[lo] >> 16);
    std::size_t hi = lo + 1;
    while (hi < n && (v[hi] >> 16) == ssrc) ++hi;
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
        const auto seq = static_cast<std::uint16_t>(v[i]);
        const auto prev = static_cast<std::uint16_t>(v[i - 1]);
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
///   2. Each chunk scatters its pairs there, one task per chunk.
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
      pairs[cursor[(x >> 40) & part_mask]++] = x;
    // Chunk 0's buffer is the calling thread's, kept warm for the next
    // call; the others are done.
    if (c != 0) std::vector<std::uint64_t>().swap(st.rtp_pairs);
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

/// Phase 3, one chunk: validates the chunk's candidates in place, then
/// resolves and parses datagrams [begin, end) into out[begin, end).
/// `stream` holds the summed support tables and `rtp` the phase-2 RTP
/// tables; both are shared by every chunk and only read here.
void resolve_chunk(const rtcc::net::PacketBatch& packets, std::size_t begin,
                   std::size_t end, std::vector<Candidate>& candidates,
                   const ScanState& stream, const RtpTables& rtp,
                   const ScanOptions& opts,
                   std::vector<DatagramAnalysis>& out) {
  // Per-candidate accept/reject (Algorithm 1, lines 14-19), applied
  // inside the per-datagram range walk below (fused with the filter:
  // the candidate array exceeds L2 on relay-scale batches, so a
  // separate flag pass would stream the whole array through the cache
  // twice).
  const auto validate_candidate = [&](Candidate& c) {
    if (!opts.validate) {
      c.flags |= Candidate::kValidated;
      return;
    }
    switch (c.kind) {
      case MessageKind::kStun:
        // Magic-cookie messages and exact-fit classic messages are
        // structurally sound. Transaction pairing raises confidence but
        // unanswered requests must still be extracted — they are the
        // non-compliance evidence (e.g. FaceTime §5.2.1).
        c.flags |= Candidate::kValidated;
        break;
      case MessageKind::kChannelData: {
        // A genuine ChannelData message extends to the datagram end
        // (optionally via padding), and real TURN channels repeat the
        // same channel number stream-wide; requiring both keeps random
        // byte runs inside media payloads from matching.
        const std::size_t remaining = packets.len[c.datagram] - c.offset;
        if (std::size_t{c.length} == remaining &&
            support_count(stream.channel_support, c.channel) >= 2)
          c.flags |= Candidate::kValidated;
        break;
      }
      case MessageKind::kRtp:
        if (rtp.ssrc_valid(c.ssrc)) c.flags |= Candidate::kValidated;
        break;
      case MessageKind::kRtcp: {
        // Cross-validate against known RTP streams, or require repeated
        // appearances of the same sender SSRC within this stream
        // (covers RTCP-only streams and Discord's SSRC=0 usage).
        const std::size_t remaining = packets.len[c.datagram] - c.offset;
        const bool extent_ok = std::size_t{c.length} == remaining;
        if (extent_ok && (rtp.ssrc_valid(c.ssrc) ||
                          support_count(stream.rtcp_ssrc_support, c.ssrc) >= 2))
          c.flags |= Candidate::kValidated;
        break;
      }
      case MessageKind::kQuic:
        // Long headers validate on version+structure; short headers
        // require the stream to have completed a long-header handshake.
        if (c.quic_long() || stream.quic_long_support >= 2)
          c.flags |= Candidate::kValidated;
        break;
    }
  };

  // ---- Overlap resolution + full parse of accepted candidates ----
  // Both extraction paths emit candidates in (datagram, offset,
  // kind-rank) order — ascending offsets, and per offset the fixed
  // STUN, ChannelData, RTCP, QUIC, RTP sequence — so the per-datagram
  // groups below are contiguous ranges of `candidates`, already in the
  // order the cover walk needs; no per-datagram sort or bucket vectors.
  std::vector<Candidate*> cands;  // scratch, reused across datagrams
  std::size_t range_begin = 0;

  for (std::size_t di = begin; di < end; ++di) {
    auto& anal = out[di];
    anal.payload_len = packets.len[di];
    std::size_t range_end = range_begin;
    while (range_end < candidates.size() &&
           candidates[range_end].datagram == di)
      ++range_end;
    anal.candidates = range_end - range_begin;
    cands.clear();
    for (std::size_t i = range_begin; i < range_end; ++i) {
      validate_candidate(candidates[i]);
      if (candidates[i].validated()) cands.push_back(&candidates[i]);
    }
    range_begin = range_end;

    // Overlap dominance: misaligned RTP candidates can slip past the
    // SSRC-support gate when their fake SSRC bytes partially coincide
    // with a real stream's (e.g. the off-by-one alignment that blends a
    // timestamp byte with three real SSRC bytes). A candidate whose
    // SSRC has a small fraction of the support of an overlapping RTP
    // candidate is noise and must not shadow the genuine message.
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      Candidate* c = cands[ci];
      if (c->kind != MessageKind::kRtp) continue;
      for (std::size_t cj = 0; cj < cands.size(); ++cj) {
        const Candidate* n = cands[cj];
        if (ci == cj || n->kind != MessageKind::kRtp) continue;
        // Two RTP candidates in one datagram always overlap: each spans
        // the datagram remainder (RTP carries no length field).
        if (rtp.support_of(n->ssrc) > 4 * rtp.support_of(c->ssrc)) {
          c->flags &= static_cast<std::uint8_t>(~Candidate::kValidated);
          break;
        }
      }
    }
    std::erase_if(cands, [](const Candidate* c) { return !c->validated(); });

    std::size_t covered_until = 0;
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      Candidate* c = cands[ci];
      if (c->offset < covered_until) continue;  // overlaps accepted msg

      std::size_t extent = c->length;
      if (c->kind == MessageKind::kRtp) {
        // RTP has no length field: by default it spans the datagram
        // remainder, but a later validated RTP candidate with the same
        // SSRC splits it (the Zoom two-RTP-messages-per-datagram
        // pattern, §5.3). Other candidate kinds never truncate RTP —
        // they are overwhelmingly scan noise inside the media payload.
        extent = anal.payload_len - c->offset;
        for (std::size_t cj = ci + 1; cj < cands.size(); ++cj) {
          const Candidate* n = cands[cj];
          if (n->kind == MessageKind::kRtp && n->ssrc == c->ssrc &&
              n->offset > c->offset + 12) {
            extent = n->offset - c->offset;
            break;
          }
        }
      }

      const BytesView view = packets.payload(di).subspan(c->offset, extent);
      ExtractedMessage msg;
      msg.kind = c->kind;
      msg.offset = c->offset;
      msg.length = extent;
      bool ok = false;
      switch (c->kind) {
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
      covered_until = c->offset + extent;
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
  const auto size_hint = [&](std::size_t begin, std::size_t end) {
    std::size_t offsets = 0;
    for (std::size_t di = begin; di < end; ++di)
      offsets += std::min<std::size_t>(packets.len[di],
                                       options_.max_offset + 1);
    return offsets / kOffsetsPerCandidate + (end - begin);
  };
  for (std::size_t c = 0; c < chunks; ++c) {
    ScanState& st = state(c);
    st.reset();
    const std::size_t hint = size_hint(chunk_begin(c), chunk_begin(c + 1));
    if (st.candidates.capacity() < hint) st.candidates.reserve(hint);
    if (st.rtp_pairs.capacity() < hint) st.rtp_pairs.reserve(hint);
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
                  state(c).candidates, stream, rtp, options_, out);
  });
  return out;
}

}  // namespace rtcc::dpi
