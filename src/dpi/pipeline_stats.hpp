// Per-node counters for the vector packet-processing graph
// (DESIGN.md §6): decode → demux → anchor prefilter → scanning DPI →
// compliance.
//
// Counter semantics follow the VPP convention — vectors is the number
// of times the node ran over a (possibly partial) batch, packets the
// number of descriptors it processed, and suspended the packets the
// node parked instead of handing downstream in full:
//   decode     suspended = datagrams resolved through reassembly
//   demux      suspended = empty-payload datagrams dropped from scan
//   prefilter  suspended = anchored offsets staged for the scan node
//   scan       suspended = candidates parked for stream validation
//   compliance suspended = messages observed, awaiting finalize()
// packets/vectors therefore also expose the achieved average vector
// occupancy (packets / vectors), the main VPP health metric.
//
// The counters are *diagnostic*, not part of the compliance verdict:
// they depend on the extraction path (the naive all-offsets oracle
// books no demux / prefilter / scan vectors), so the metamorphic
// signatures exclude them (testkit::meta::compliance_signature), while
// the report JSON surfaces them under "nodes".
#pragma once

#include <cstdint>

namespace rtcc::dpi {

struct NodeCounters {
  std::uint64_t vectors = 0;
  std::uint64_t packets = 0;
  std::uint64_t suspended = 0;

  void merge(const NodeCounters& o) {
    vectors += o.vectors;
    packets += o.packets;
    suspended += o.suspended;
  }

  [[nodiscard]] bool any() const {
    return vectors != 0 || packets != 0 || suspended != 0;
  }

  bool operator==(const NodeCounters&) const = default;
};

struct PipelineCounters {
  NodeCounters decode;
  NodeCounters demux;
  NodeCounters prefilter;
  NodeCounters scan;
  NodeCounters compliance;

  void merge(const PipelineCounters& o) {
    decode.merge(o.decode);
    demux.merge(o.demux);
    prefilter.merge(o.prefilter);
    scan.merge(o.scan);
    compliance.merge(o.compliance);
  }

  [[nodiscard]] bool any() const {
    return decode.any() || demux.any() || prefilter.any() || scan.any() ||
           compliance.any();
  }

  bool operator==(const PipelineCounters&) const = default;
};

}  // namespace rtcc::dpi
