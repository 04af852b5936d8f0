#include "report/json_export.hpp"

#include "util/json.hpp"

namespace rtcc::report {

using rtcc::util::JsonWriter;

namespace {

void write_stage(JsonWriter& w, const char* name,
                 const rtcc::filter::StageStats& s) {
  w.key(name).begin_object();
  w.key("streams").value(static_cast<std::uint64_t>(s.streams));
  w.key("packets").value(s.packets);
  w.end_object();
}

void write_node(JsonWriter& w, const char* name,
                const rtcc::dpi::NodeCounters& n) {
  w.key(name).begin_object();
  w.key("vectors").value(n.vectors);
  w.key("packets").value(n.packets);
  w.key("suspended").value(n.suspended);
  w.end_object();
}

void write_analysis(JsonWriter& w, const CallAnalysis& a) {
  w.begin_object();

  w.key("traffic").begin_object();
  w.key("raw_bytes").value(a.raw_bytes);
  w.key("raw_udp_streams").value(a.raw_udp_streams);
  w.key("raw_udp_datagrams").value(a.raw_udp_datagrams);
  w.key("raw_tcp_streams").value(a.raw_tcp_streams);
  w.key("raw_tcp_segments").value(a.raw_tcp_segments);
  write_stage(w, "stage1_udp", a.stage1_udp);
  write_stage(w, "stage2_udp", a.stage2_udp);
  write_stage(w, "stage1_tcp", a.stage1_tcp);
  write_stage(w, "stage2_tcp", a.stage2_tcp);
  write_stage(w, "rtc_udp", a.rtc_udp);
  write_stage(w, "rtc_tcp", a.rtc_tcp);
  w.end_object();

  w.key("datagram_classes").begin_object();
  w.key("standard").value(a.dgram_standard);
  w.key("proprietary_header").value(a.dgram_prop_header);
  w.key("fully_proprietary").value(a.dgram_fully_prop);
  w.end_object();

  w.key("dpi").begin_object();
  w.key("candidates").value(a.dpi_candidates);
  w.key("messages").value(a.dpi_messages);
  w.end_object();

  // Vector-pipeline diagnostics (DESIGN.md §6). Omitted while all-zero
  // (e.g. analyses predating the node graph merged from JSON).
  if (a.nodes.any()) {
    w.key("nodes").begin_object();
    write_node(w, "decode", a.nodes.decode);
    write_node(w, "demux", a.nodes.demux);
    write_node(w, "prefilter", a.nodes.prefilter);
    write_node(w, "scan", a.nodes.scan);
    write_node(w, "compliance", a.nodes.compliance);
    w.end_object();
  }

  // Flow-sharding diagnostics (DESIGN.md §6c): one row per shard
  // worker. Present only when the streaming engine's sharded hand-off
  // ran — the split depends on the width, so parity signatures exclude
  // it and batch reports (the goldens among them) never contain it.
  if (!a.shards.empty()) {
    w.key("shards").begin_array();
    for (const auto& s : a.shards) {
      w.begin_object();
      w.key("streams").value(s.streams);
      w.key("handoff_vectors").value(s.handoff_vectors);
      w.key("datagrams").value(s.datagrams);
      w.key("payload_bytes").value(s.payload_bytes);
      w.key("messages").value(s.messages);
      w.end_object();
    }
    w.end_array();
  }

  // Streaming-engine flow-table diagnostics (DESIGN.md §6c): present
  // only on the RTCC_STREAM path. Knob-dependent like "nodes" and
  // "shards", so parity signatures strip it and goldens (produced with
  // streaming pinned off) never contain it.
  if (a.flows.any()) {
    w.key("flows").begin_object();
    w.key("flows_seen").value(a.flows.flows_seen);
    w.key("flows_live").value(a.flows.flows_live);
    w.key("evictions").value(a.flows.evictions);
    w.key("finalized").value(a.flows.finalized);
    w.key("flows_rekeyed").value(a.flows.flows_rekeyed);
    w.key("live_peak_bytes").value(a.flows.live_peak_bytes);
    w.end_object();
  }

  // Emitted only for real captures (the synthetic corpus never sets
  // capture-layer counters), keeping the golden matrix byte-identical.
  if (a.ingest.from_capture()) {
    const auto& in = a.ingest;
    w.key("ingest").begin_object();
    w.key("frames_seen").value(in.frames_seen);
    w.key("frames_decoded").value(in.frames_decoded);
    w.key("torn_tail").value(in.torn_tail);
    w.key("snaplen_clipped").value(in.snaplen_clipped);
    w.key("bad_usec").value(in.bad_usec);
    w.key("vlan_stripped").value(in.vlan_stripped);
    w.key("fragments_seen").value(in.fragments_seen);
    w.key("fragments_reassembled").value(in.fragments_reassembled);
    w.key("fragments_expired").value(in.fragments_expired);
    w.key("non_ip").value(in.non_ip);
    w.key("clipped_undecodable").value(in.clipped_undecodable);
    w.key("undecodable").value(in.undecodable);
    w.key("unsupported_linktype").value(in.unsupported_linktype);
    w.key("loss_events").value(in.loss_events());
    w.end_object();
  }

  w.key("protocols").begin_object();
  for (const auto& [proto_id, stats] : a.protocols) {
    w.key(rtcc::proto::to_string(proto_id)).begin_object();
    w.key("messages").value(stats.messages);
    w.key("compliant_messages").value(stats.compliant);
    w.key("types").begin_object();
    for (const auto& [label, t] : stats.types) {
      w.key(label).begin_object();
      w.key("total").value(t.total);
      w.key("compliant").value(t.compliant);
      w.key("type_compliant").value(t.type_compliant());
      if (!t.criterion_failures.empty()) {
        w.key("criterion_failures").begin_object();
        for (const auto& [criterion, count] : t.criterion_failures)
          w.key(criterion).value(count);
        w.end_object();
      }
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();

  w.end_object();
}

}  // namespace

std::string to_json(const CallAnalysis& analysis) {
  JsonWriter w;
  write_analysis(w, analysis);
  return std::move(w).str();
}

std::string to_json(const AppResults& results) {
  JsonWriter w;
  w.begin_object();
  for (const auto& [app, analysis] : results) {
    w.key(rtcc::emul::to_string(app));
    write_analysis(w, analysis);
  }
  w.end_object();
  return std::move(w).str();
}

std::string to_json(const std::vector<Finding>& findings) {
  JsonWriter w;
  w.begin_array();
  for (const auto& f : findings) {
    w.begin_object();
    w.key("id").value(f.id);
    w.key("summary").value(f.summary);
    w.key("stats").begin_object();
    for (const auto& [key, value] : f.stats) w.key(key).value(value);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  return std::move(w).str();
}

}  // namespace rtcc::report
