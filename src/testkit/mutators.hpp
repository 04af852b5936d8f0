// Structure-aware wire-format mutators.
//
// Each mutator understands just enough of its format to damage a
// *specific* structural invariant (a TLV boundary, a declared length, a
// compound-packet header) rather than hoping random bit flips land
// there. Mutated buffers are frequently still parseable — that is the
// point: the interesting bugs live where a parser accepts a damaged
// structure and a downstream layer trusts its fields.
//
// All mutators are total: on inputs too short or too damaged to carry
// their structure they fall back to generic byte-level mutations, so a
// driver can pipe any seed through any family.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet_batch.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace rtcc::testkit {

enum class MutatorFamily : std::uint8_t {
  kStunTlvSplice,    // reorder / duplicate / delete / cut STUN attributes
  kStunLengthLie,    // header or attribute length fields vs actual bytes
  kRtpExtension,     // RFC 8285 extension block + header-flag corruption
  kRtcpReshuffle,    // compound-packet reorder / dup / drop / length lies
  kQuicHeaderFlip,   // long-header field flips: version, CID lens, varints
  kVendorHeaderFlip, // Zoom / FaceTime envelope field flips
  kFrameHeaderFlip,  // L2/L3 damage: ethertype/TPID flips, VLAN tag
                     // insertion, IPv4 flags/frag-offset and id flips
  kGenericBitFlip,   // 1-8 random bit flips anywhere
  kGenericTruncate,  // random prefix of the seed
  kGenericPrefix,    // random proprietary-header-style prefix bytes
  kGenericSplice,    // head of one seed + tail of another
};

[[nodiscard]] std::string to_string(MutatorFamily f);
[[nodiscard]] const std::vector<MutatorFamily>& all_mutator_families();

/// Applies one mutation of `family` to `seed`. `other` feeds the splice
/// family (pass any second seed; ignored elsewhere). Deterministic in
/// `rng`; never returns the seed unchanged except on empty input.
[[nodiscard]] rtcc::util::Bytes mutate(MutatorFamily family,
                                       rtcc::util::BytesView seed,
                                       rtcc::util::BytesView other,
                                       rtcc::util::Rng& rng);

/// Datagram counts straddling the vector-pipeline batch edges (empty
/// stream, single datagram, kBatchSize ± 1 and the staging
/// buffer's offset ceiling). The batch-boundary mutator cycles these.
[[nodiscard]] const std::vector<std::size_t>& batch_boundary_counts();

/// Stream lengths at the pipeline's chunk edges — one short of, exactly
/// and one past a vector, and two full vectors plus a partial third —
/// for the scan, SIMD and node-counter tests.
inline constexpr std::array<std::size_t, 4> kChunkEdgeLengths = {
    rtcc::net::kBatchSize - 1, rtcc::net::kBatchSize,
    rtcc::net::kBatchSize + 1, 2 * rtcc::net::kBatchSize + 3};

/// Stream-level mutator: tiles / truncates `seed` to exactly `count`
/// datagrams (rotating the start so repeats differ across calls), so
/// the scan and SIMD parity oracles hit full-, partial- and zero-sized
/// final vectors. An empty seed yields an empty stream for any count.
[[nodiscard]] std::vector<rtcc::util::Bytes> mutate_batch_boundary(
    const std::vector<rtcc::util::Bytes>& seed, std::size_t count,
    rtcc::util::Rng& rng);

/// Chunked-reader read granularities the stream_chunk_boundary mutator
/// targets (a subset of the stream-parity oracle's sweep).
[[nodiscard]] const std::vector<std::size_t>& stream_chunk_sizes();

/// Stream-level mutator for the chunked pcap reader: emits datagrams
/// sized so that, once framed and pcap-encoded by the stream-parity
/// oracle, successive records end one byte before, exactly at, and one
/// byte after multiples of `chunk_bytes` — every record-header and
/// payload straddle the reader's carry-over path must handle. Payload
/// bytes tile the seed datagrams so protocol structure survives where
/// the resize allows. An empty seed yields an empty stream.
[[nodiscard]] std::vector<rtcc::util::Bytes> mutate_stream_chunk_boundary(
    const std::vector<rtcc::util::Bytes>& seed, std::size_t chunk_bytes,
    rtcc::util::Rng& rng);

}  // namespace rtcc::testkit
