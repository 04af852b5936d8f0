// The paper's custom two-stage DPI (Algorithm 1, §4.1): offset-shifting
// candidate extraction followed by protocol-specific, stream-contextual
// validation.
//
// Works on one UDP stream at a time because the validation heuristics
// are stream-level (RTP sequence continuity, STUN transaction pairing,
// RTCP SSRC cross-validation against RTP, QUIC DCID consistency).
//
// Candidate extraction runs as a vector-processing node graph
// (DESIGN.md §6): packets flow through demux → anchor prefilter → scan
// in fixed-size batches (net::kBatchSize), each node looping over the
// whole vector before the next starts. The naive all-offsets scan
// (ScanOptions::use_anchor_prefilter = false) stays as the equivalence
// oracle — both emit a byte-identical candidate list, so validation
// and classification cannot diverge.
//
// One stream can use several cores: analyze_batch splits it into
// contiguous chunks of whole vectors that extract and resolve in
// parallel, and builds the stream-level validation tables from SSRC
// partitions on the same pool in between, with output byte-identical
// at every width (DESIGN.md §6, "Intra-stream chunks").
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "dpi/message.hpp"
#include "dpi/pipeline_stats.hpp"
#include "net/packet_batch.hpp"

namespace rtcc::dpi {

struct ScanOptions {
  /// Maximum candidate-extraction offset k (§4.1.1; the paper found
  /// k = 200 reproduces full-payload extraction on their dataset). The
  /// scan never goes past kMaxScanOffset, whatever this asks.
  std::size_t max_offset = 200;
  /// Which protocols to scan for. Defaults to all.
  bool scan_stun = true;
  bool scan_rtp = true;
  bool scan_rtcp = true;
  bool scan_quic = true;
  /// Disable stage-2 validation entirely (ablation: candidates become
  /// the output, false positives included).
  bool validate = true;
  /// RTP validation: minimum messages sharing an SSRC in a stream for
  /// that SSRC to be considered a genuine RTP stream.
  std::size_t min_ssrc_support = 3;
  /// RTCP trailing bytes tolerated after the last compound packet
  /// (covers SRTCP trailers and small proprietary trailers).
  std::size_t max_rtcp_trailing = 32;
  /// Single-pass byte-anchor prefilter (anchor_scan.hpp): run the full
  /// protocol sniffs only at offsets whose cheap anchors match, instead
  /// of at every offset 0..k. Off = the naive loop, kept as the oracle;
  /// both produce byte-identical output (tests/test_determinism.cpp).
  bool use_anchor_prefilter = true;
};

/// Largest offset the scan visits. Scan offsets are below the payload
/// length and a UDP payload is at most 65,535 bytes, so the clamp
/// changes nothing a capture can carry; it lets the scan pack a hit's
/// offset into 16 bits (DESIGN.md §6, "Intra-stream chunks").
inline constexpr std::size_t kMaxScanOffset = 0xFFFF;

/// End (exclusive) of an n-byte payload's scanned offsets:
/// min(min(max_offset, kMaxScanOffset) + 1, n).
[[nodiscard]] inline std::size_t scan_limit(std::size_t n,
                                            const ScanOptions& opts) {
  return std::min(std::min(opts.max_offset, kMaxScanOffset) + 1, n);
}

/// One datagram handed to the DPI: payload bytes plus stream-relative
/// metadata used by validation.
struct StreamDatagram {
  rtcc::util::BytesView payload;
  double ts = 0.0;
  /// Direction within the bidirectional stream (0 = A→B, 1 = B→A);
  /// transaction pairing and counters are per-direction.
  int dir = 0;
};

class ScanningDpi {
 public:
  explicit ScanningDpi(ScanOptions options = {});

  /// Runs Algorithm 1 over one UDP stream: candidate extraction per
  /// datagram, then stream-level validation, then per-datagram overlap
  /// resolution and proprietary classification. Results are index-
  /// aligned with `datagrams`.
  [[nodiscard]] std::vector<DatagramAnalysis> analyze_stream(
      const std::vector<StreamDatagram>& datagrams) const;

  /// Same analysis over a descriptor batch (the pipeline hot path —
  /// analyze_stream converts and delegates here). Extraction runs the
  /// demux → prefilter → scan node graph in net::kBatchSize vectors;
  /// when `counters` is non-null each node adds its vectors / packets /
  /// suspended tallies. Results are index-aligned with `packets`.
  ///
  /// `width` caps the chunks the batch is split into: min(width,
  /// vectors / kMinChunkVectors), at least one. Chunks extract, build
  /// the stream's RTP tables from SSRC partitions, and resolve on
  /// util::ThreadPool::shared() (the caller takes part); one chunk runs
  /// on the calling thread alone. Analyses and counters are identical
  /// at every width.
  [[nodiscard]] std::vector<DatagramAnalysis> analyze_batch(
      const rtcc::net::PacketBatch& packets,
      PipelineCounters* counters = nullptr, std::size_t width = 1) const;

  /// Fewest whole vectors one chunk scans: a stream shorter than twice
  /// this is one chunk at any width, so small streams never pay the
  /// pool round trip.
  static constexpr std::size_t kMinChunkVectors = 2;

  /// Fewest RTP hits (one packed (ssrc, seq, offset) pair each) for
  /// which the stream-level validation step partitions the pairs by
  /// SSRC top byte; a stream with fewer keeps them in one partition.
  static constexpr std::size_t kPartitionMinPairs = 512;

  [[nodiscard]] const ScanOptions& options() const { return options_; }

 private:
  ScanOptions options_;
};

}  // namespace rtcc::dpi
