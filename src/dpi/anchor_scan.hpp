// Single-pass anchor prefilter for the scanning DPI (Algorithm 1).
//
// The naive candidate-extraction loop attempts every protocol sniff at
// every offset 0..k, even though almost all offsets can be rejected
// from one or two bytes. This scanner walks each datagram once and
// reports, per offset, which protocols' cheap byte anchors match:
//
//   STUN        top two bits 00 + (magic cookie 0x2112A442 at offset+4
//               OR classic-STUN exact tail-fit length at offset+2)
//   ChannelData first byte 0x40-0x4F (TURN channel range) + the 4-byte
//               header and 16-bit length fit the datagram remainder
//   RTP/RTCP    version bits 10; the PT byte splits the two (RTCP owns
//               the assigned 200-207 block, RTP everything else); RTP
//               additionally requires its full header — 12 + 4*CSRC,
//               plus, when the extension bit is set, the 4-byte
//               extension header and its 32-bit-word length field — to
//               fit the remainder
//   QUIC long   form+fixed bits 11 + version 1 at offset+1
//   QUIC short  form+fixed bits 01 at offset 0
//
// The two length fits are anchors in their own right: on encrypted
// payloads they reject the majority of byte-class matches (a random
// 16-bit length rarely fits the remainder), and they vectorise as
// 16-bit compares against an offset ramp, so the SIMD kernels resolve
// them without any scalar work.
//
// Every anchor is a *necessary* condition of the corresponding full
// sniff in ScanningDpi::analyze_stream, so running the sniffs only at
// anchored offsets produces a byte-identical candidate set (enforced by
// the equivalence sweep in tests/test_determinism.cpp).
//
// The per-offset tests are additionally evaluated 64 offsets at a time
// by a runtime-dispatched SIMD kernel (dpi/simd_dispatch.hpp — scalar /
// SSE2 / AVX2 / NEON, selected by cpuid and the RTCC_SIMD knob); only
// flagged lanes fall back to the scalar test. The vector tests are the
// same necessary conditions, never a replacement, so every level is
// interchangeable and yields byte-identical anchors.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dpi/scanning_dpi.hpp"
#include "dpi/simd_dispatch.hpp"
#include "proto/quic/quic.hpp"
#include "proto/stun/stun.hpp"
#include "util/bytes.hpp"

namespace rtcc::dpi {

namespace anchor {
constexpr std::uint8_t kStun = 0x01;
constexpr std::uint8_t kChannelData = 0x02;
constexpr std::uint8_t kRtcp = 0x04;
constexpr std::uint8_t kQuicLong = 0x08;
constexpr std::uint8_t kQuicShort = 0x10;
constexpr std::uint8_t kRtp = 0x20;
}  // namespace anchor

/// One anchored offset and the protocols whose anchors matched there.
struct AnchorHit {
  std::uint32_t offset = 0;
  std::uint8_t mask = 0;
};

/// Scan-region geometry shared by the fused walk (for_each_anchor) and
/// the staged prefilter/scan node pair: both must agree byte-for-byte
/// on which offsets the kernel covers and which fall to scalar code.
struct AnchorPlan {
  std::size_t limit = 0;     ///< scan end (exclusive): scan_limit(n, opts)
  std::size_t fast_end = 0;  ///< bound-check-free end: >= 20 bytes remain
  std::size_t blocks = 0;    ///< 64-offset kernel blocks, starting at offset 1
};

/// Kernel eligibility bound: the kernels evaluate the RTP header fit
/// and ChannelData length fit with 16-bit saturating adds, which is
/// exact whenever offset + 76 (the largest RTP header need) cannot
/// exceed 65535. Payloads beyond this — larger than any UDP datagram —
/// take the scalar loop so every level stays byte-identical.
constexpr std::size_t kMaxKernelPayload = 0xFFFF - 56;

[[nodiscard]] inline AnchorPlan anchor_plan(std::size_t n,
                                            const ScanOptions& opts) {
  AnchorPlan pl;
  pl.limit = scan_limit(n, opts);
  pl.fast_end = std::min(
      pl.limit, n >= rtcc::proto::stun::kHeaderSize
                    ? n - rtcc::proto::stun::kHeaderSize + 1
                    : std::size_t{0});
  // Offset 0 is always handled by scalar code (the QUIC short anchor
  // lives there), so kernel blocks start at offset 1.
  pl.blocks = pl.fast_end > 1 && n <= kMaxKernelPayload
                  ? (pl.fast_end - 1) / 64
                  : 0;
  return pl;
}

[[nodiscard]] inline unsigned anchor_gates(const ScanOptions& opts) {
  unsigned gates = 0;
  if (opts.scan_rtp) gates |= gate::kRtp;
  if (opts.scan_rtcp) gates |= gate::kRtcp;
  if (opts.scan_stun) gates |= gate::kStun;
  if (opts.scan_quic) gates |= gate::kQuic;
  return gates;
}

/// Exact RTP header fit — the length half of the RTP anchor: the fixed
/// header and CSRC list, plus (when the extension bit is set) the
/// 4-byte extension header and its 32-bit-word length, must fit the
/// datagram remainder. These are precisely sniff_rtp's structural
/// length checks, so the anchor stays a necessary condition while
/// rejecting the bulk of byte-class matches on encrypted payloads (a
/// random 16-bit word count almost never fits). The extension length
/// read is guarded by the fit of the extension header itself.
[[nodiscard]] inline bool rtp_header_fits(const std::uint8_t* p,
                                          std::size_t i, std::size_t n) {
  const std::uint8_t b0 = p[i];
  std::size_t need = 12 + 4 * (b0 & 0x0F);
  const std::size_t rem = n - i;
  if ((b0 & 0x10) != 0) {
    need += 4;
    if (need > rem) return false;
    need += 4 * std::size_t{rtcc::util::load_be16(p + i + need - 2)};
  }
  return need <= rem;
}

/// Walks one 64-offset block's kernel masks in ascending offset order,
/// invoking fn(offset, anchor-mask) for each hot lane. The family masks
/// are disjoint (first-byte class, plus the PT-byte RTP/RTCP split done
/// in the kernel), so each hot lane belongs to exactly one family and
/// the walker classifies without re-reading payload bytes. The kernels
/// already applied the per-protocol scan gates and the cheap length
/// preconditions; only stun lanes (approximate in the kernel) re-run
/// the exact cookie/tail-fit test here.
template <typename Fn>
inline void walk_anchor_masks(const std::uint8_t* p, std::size_t n,
                              std::size_t base, const AnchorMasks& m,
                              Fn&& fn) {
  namespace stun = rtcc::proto::stun;
  std::uint64_t bits = m.any();
  while (bits) {
    const unsigned k = static_cast<unsigned>(__builtin_ctzll(bits));
    bits &= bits - 1;
    const std::size_t i = base + k;
    const std::uint64_t bit = std::uint64_t{1} << k;
    if (m.rtp & bit) {
      fn(static_cast<std::uint32_t>(i), anchor::kRtp);
    } else if (m.rtcp & bit) {
      fn(static_cast<std::uint32_t>(i), anchor::kRtcp);
    } else if (m.stun & bit) {  // approximate: re-run the exact test.
      const bool modern =
          rtcc::util::load_be32(p + i + 4) == stun::kMagicCookie;
      const bool classic_fit =
          stun::kHeaderSize + std::size_t{rtcc::util::load_be16(p + i + 2)} ==
          n - i;
      if (modern || classic_fit)
        fn(static_cast<std::uint32_t>(i), anchor::kStun);
    } else if (m.channel_data & bit) {
      fn(static_cast<std::uint32_t>(i), anchor::kChannelData);
    } else {  // long form + fixed bit + version 1.
      fn(static_cast<std::uint32_t>(i), anchor::kQuicLong);
    }
  }
}

/// Visitor form of the scan: invokes fn(offset, mask) for each anchored
/// offset of `payload`, in increasing offset order, scanning offsets
/// [0, scan_limit(payload.size(), opts)). Honours the per-protocol
/// scan_* switches in `opts`. The hot path in ScanningDpi uses this
/// directly — on media payloads a sizeable fraction of offsets anchor
/// as RTP, so materialising a hit list would cost more than the sniffs
/// it saves.
template <typename Fn>
void for_each_anchor_impl(rtcc::util::BytesView payload,
                          const ScanOptions& opts,
                          const AnchorMasks* staged, Fn&& fn) {
  namespace stun = rtcc::proto::stun;
  namespace quic = rtcc::proto::quic;

  const std::size_t n = payload.size();
  const std::uint8_t* p = payload.data();
  const bool scan_stun = opts.scan_stun;
  const bool scan_rtp = opts.scan_rtp;
  const bool scan_rtcp = opts.scan_rtcp;
  const bool scan_quic = opts.scan_quic;

  // Main region: every per-protocol remainder bound holds whenever at
  // least kHeaderSize (20, the largest bound) bytes remain, so the body
  // below carries no length checks; the short tail loop at the end
  // repeats the tests with the bounds restored.
  const AnchorPlan pl = anchor_plan(n, opts);
  const std::size_t limit = pl.limit;
  const std::size_t fast_end = pl.fast_end;

  const auto scan_at = [&](std::size_t i) {
    const std::uint8_t b0 = p[i];
    const unsigned cls = b0 >> 6;
    if (cls == 2) {  // RTP/RTCP version 2; the PT byte splits the two.
      const std::uint8_t pt = p[i + 1];
      const bool rtcp_pt = pt >= 200 && pt <= 207;
      if (scan_rtp && !rtcp_pt && rtp_header_fits(p, i, n))
        fn(static_cast<std::uint32_t>(i), anchor::kRtp);
      else if (scan_rtcp && rtcp_pt)
        fn(static_cast<std::uint32_t>(i), anchor::kRtcp);
    } else if (cls == 0) {  // STUN: top two bits clear.
      if (scan_stun) {
        const bool modern =
            rtcc::util::load_be32(p + i + 4) == stun::kMagicCookie;
        // Classic (RFC 3489) STUN has no cookie; its anchor is the
        // exact datagram-tail fit of the length field (the registry
        // method check stays in the sniff stage).
        const bool classic_fit =
            stun::kHeaderSize + std::size_t{rtcc::util::load_be16(p + i + 2)} ==
            n - i;
        if (modern || classic_fit)
          fn(static_cast<std::uint32_t>(i), anchor::kStun);
      }
    } else if (cls == 1) {  // ChannelData prefix / QUIC short at 0.
      std::uint8_t mask = 0;
      if (scan_stun && b0 <= 0x4F &&
          4 + std::size_t{rtcc::util::load_be16(p + i + 2)} <= n - i)
        mask |= anchor::kChannelData;
      if (scan_quic && i == 0) mask |= anchor::kQuicShort;
      if (mask) fn(static_cast<std::uint32_t>(i), mask);
    } else {  // QUIC long form + fixed bit; only v1 is scanned for.
      if (scan_quic && rtcc::util::load_be32(p + i + 1) == quic::kVersion1)
        fn(static_cast<std::uint32_t>(i), anchor::kQuicLong);
    }
  };

  std::size_t i = 0;
  // Vector pre-pass: the dispatched kernel evaluates the anchor
  // conditions for 64 offsets at a time, split per protocol family, and
  // only flagged lanes reach scalar code (walk_anchor_masks). When the
  // caller staged the kernel's masks earlier (the batched prefilter
  // node), they are replayed here instead of re-running the kernel.
  // At the scalar level (no kernel, nothing staged) the plain
  // per-offset loop below covers everything.
  if (pl.blocks != 0) {
    const AnchorBlockFn kernel = staged != nullptr ? nullptr : anchor_block_fn();
    if (staged != nullptr || kernel != nullptr) {
      scan_at(i);  // offset 0 separately: the QUIC short anchor lives there
      ++i;
      if (staged != nullptr) {
        for (std::size_t b = 0; b < pl.blocks; ++b, i += 64)
          walk_anchor_masks(p, n, i, staged[b], fn);
      } else {
        const unsigned gates = anchor_gates(opts);
        AnchorMasks masks[kMaxAnchorBlocks];
        std::size_t b = 0;
        while (b < pl.blocks) {
          const std::size_t nb = std::min(pl.blocks - b, kMaxAnchorBlocks);
          kernel(p, i, nb, n, gates, masks);
          for (std::size_t j = 0; j < nb; ++j, i += 64)
            walk_anchor_masks(p, n, i, masks[j], fn);
          b += nb;
        }
      }
    }
  }
  for (; i < fast_end; ++i) scan_at(i);

  // Tail: fewer than kHeaderSize bytes remain; re-instate the bounds.
  for (; i < limit; ++i) {
    const std::uint8_t b0 = p[i];
    const std::size_t rem = n - i;
    switch (b0 >> 6) {
      case 2: {
        const std::uint8_t pt = rem >= 2 ? p[i + 1] : 0;
        const bool rtcp_pt = pt >= 200 && pt <= 207;
        if (scan_rtp && !rtcp_pt && rtp_header_fits(p, i, n))
          fn(static_cast<std::uint32_t>(i), anchor::kRtp);
        else if (scan_rtcp && rtcp_pt && rem >= 8)
          fn(static_cast<std::uint32_t>(i), anchor::kRtcp);
        break;
      }
      case 0:
        if (scan_stun && rem >= stun::kHeaderSize) {
          const bool modern =
              rtcc::util::load_be32(p + i + 4) == stun::kMagicCookie;
          const bool classic_fit =
              stun::kHeaderSize +
                  std::size_t{rtcc::util::load_be16(p + i + 2)} ==
              rem;
          if (modern || classic_fit)
            fn(static_cast<std::uint32_t>(i), anchor::kStun);
        }
        break;
      case 1: {
        std::uint8_t mask = 0;
        if (scan_stun && b0 <= 0x4F && rem >= 4 &&
            4 + std::size_t{rtcc::util::load_be16(p + i + 2)} <= rem)
          mask |= anchor::kChannelData;
        if (scan_quic && i == 0) mask |= anchor::kQuicShort;
        if (mask) fn(static_cast<std::uint32_t>(i), mask);
        break;
      }
      case 3:
        if (scan_quic && rem >= 5 &&
            rtcc::util::load_be32(p + i + 1) == quic::kVersion1)
          fn(static_cast<std::uint32_t>(i), anchor::kQuicLong);
        break;
    }
  }
}

template <typename Fn>
void for_each_anchor(rtcc::util::BytesView payload, const ScanOptions& opts,
                     Fn&& fn) {
  for_each_anchor_impl(payload, opts, nullptr, std::forward<Fn>(fn));
}

/// Scan-node replay: identical to for_each_anchor, but consumes the
/// mask sets previously staged by stage_anchor_masks for this payload
/// (same ScanOptions) instead of re-running the kernel. `staged` must
/// point at anchor_plan(payload.size(), opts).blocks entries; it is
/// not dereferenced when that plan has no kernel blocks.
template <typename Fn>
void for_each_anchor_staged(rtcc::util::BytesView payload,
                            const ScanOptions& opts,
                            const AnchorMasks* staged, Fn&& fn) {
  for_each_anchor_impl(payload, opts, staged, std::forward<Fn>(fn));
}

/// Prefilter-node kernel pass: runs only the vector kernel over
/// `payload`, appending anchor_plan(...).blocks mask sets to `out`
/// (not cleared — callers accumulate a whole batch into one buffer).
/// Returns the number of mask sets appended. `kernel` must be
/// non-null; at the scalar level callers skip staging and use
/// for_each_anchor directly.
inline std::size_t stage_anchor_masks(rtcc::util::BytesView payload,
                                      const ScanOptions& opts,
                                      AnchorBlockFn kernel,
                                      std::vector<AnchorMasks>& out) {
  const std::size_t n = payload.size();
  const AnchorPlan pl = anchor_plan(n, opts);
  if (pl.blocks == 0) return 0;
  const unsigned gates = anchor_gates(opts);
  const std::size_t start = out.size();
  out.resize(start + pl.blocks);
  const std::uint8_t* p = payload.data();
  std::size_t i = 1, b = 0;
  while (b < pl.blocks) {
    const std::size_t nb = std::min(pl.blocks - b, kMaxAnchorBlocks);
    kernel(p, i, nb, n, gates, out.data() + start + b);
    b += nb;
    i += nb * 64;
  }
  return pl.blocks;
}

/// Appends hits for `payload` to `out` in increasing offset order.
/// `out` is not cleared so callers can reuse one buffer across
/// datagrams. Thin wrapper over for_each_anchor, kept for callers that
/// want the hit list itself.
void scan_anchors(rtcc::util::BytesView payload, const ScanOptions& opts,
                  std::vector<AnchorHit>& out);

}  // namespace rtcc::dpi
