// Fixed-size descriptor batches for the vector packet-processing path
// (DESIGN.md §6).
//
// The analysis hot loop historically advanced one datagram at a time
// through decode → demux → DPI → compliance. The VPP lesson is that the
// per-packet instruction stream then alternates between five different
// code/data working sets, evicting each other's branch and cache state
// every few hundred instructions. Instead, the pipeline moves whole
// *vectors* of packet descriptors through one node at a time: each node
// runs its loop over up to kBatchSize packets before the next node
// starts, so its code, lookup tables and branch history stay hot for
// the whole vector.
//
// A PacketBatch is the descriptor array itself — SoA {payload pointer,
// length, timestamp, direction} — mirroring the arena's flat
// {offset,len} frame layout: descriptors are 16+8+1 bytes of metadata
// per packet, so a 256-packet vector's descriptors fit in a few cache
// lines per lane and never touch the payload slabs until a node needs
// the bytes. Nodes prefetch the payload head of packet i+kPrefetchAhead
// while processing packet i (software pipelining; the prefetch distance
// covers roughly the per-packet node work).
//
// kBatchSize is the vector length: 256, the VPP frame size — big
// enough to amortize per-vector overhead, small enough that 256
// descriptors + staged per-vector state stay L2-resident.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace rtcc::net {

/// Pipeline vector length: every node loop runs over at most this
/// many packets.
constexpr std::size_t kBatchSize = 256;

/// Hint-prefetch the cache line at `p` (read intent, moderate locality).
/// No-op where the builtin is unavailable; never faults on any address.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 2);
#else
  (void)p;
#endif
}

/// How many packets ahead node loops prefetch payload heads.
/// Compile-time tunable (-DRTCC_PREFETCH_AHEAD=n) for the ablation
/// sweep in EXPERIMENTS.md; the {2,4,8,16} x unroll sweep moved the
/// macro scan < +-6% (within box noise), so 4 stays as the default.
#ifndef RTCC_PREFETCH_AHEAD
#define RTCC_PREFETCH_AHEAD 4
#endif
constexpr std::size_t kPrefetchAhead = RTCC_PREFETCH_AHEAD;

/// SoA descriptor vector for one stream's datagrams: parallel arrays
/// indexed by packet position. Payload bytes are *borrowed* (arena slab
/// or reassembly buffer) and must outlive the batch.
struct PacketBatch {
  std::vector<const std::uint8_t*> data;
  std::vector<std::uint32_t> len;
  std::vector<double> ts;
  std::vector<std::uint8_t> dir;  // 0 = A->B, 1 = B->A

  [[nodiscard]] std::size_t size() const { return data.size(); }
  [[nodiscard]] bool empty() const { return data.empty(); }

  void clear() {
    data.clear();
    len.clear();
    ts.clear();
    dir.clear();
  }

  void reserve(std::size_t n) {
    data.reserve(n);
    len.reserve(n);
    ts.reserve(n);
    dir.reserve(n);
  }

  void push(rtcc::util::BytesView payload, double timestamp, int direction) {
    data.push_back(payload.data());
    len.push_back(static_cast<std::uint32_t>(payload.size()));
    ts.push_back(timestamp);
    dir.push_back(static_cast<std::uint8_t>(direction));
  }

  [[nodiscard]] rtcc::util::BytesView payload(std::size_t i) const {
    return {data[i], len[i]};
  }
};

}  // namespace rtcc::net
