#include "filter/pipeline.hpp"

#include <algorithm>

namespace rtcc::filter {

std::size_t ThreeTupleHash::operator()(const ThreeTuple& t) const noexcept {
  std::size_t h = rtcc::net::IpAddrHash{}(t.ip);
  h ^= (std::size_t{t.port} << 8 | static_cast<std::size_t>(t.transport)) +
       0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

using rtcc::net::IpAddr;
using rtcc::net::Stream;
using rtcc::net::StreamTable;
using rtcc::net::Trace;
using rtcc::net::Transport;

namespace {

bool is_device(const IpAddr& ip, const FilterConfig& cfg) {
  return std::find(cfg.device_ips.begin(), cfg.device_ips.end(), ip) !=
         cfg.device_ips.end();
}

void account(StageStats& stats, const Stream& s) {
  ++stats.streams;
  stats.packets += s.packets.size();
}

}  // namespace

FilterReport run_pipeline(const Trace& trace, const StreamTable& table,
                          const FilterConfig& cfg) {
  FilterReport report;
  report.ingest = table.ingest;
  report.dispositions.assign(table.streams.size(), Disposition::kKept);

  // ---- Stage 1: timespan enclosure --------------------------------------
  std::vector<bool> removed_stage1(table.streams.size(), false);
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    if (!enclosed_in_window(table.streams[i], cfg.schedule)) {
      removed_stage1[i] = true;
      report.dispositions[i] = Disposition::kStage1Timespan;
    }
  }

  // ---- Stage 2: intra-call heuristics ------------------------------------
  const auto outside_tuples = collect_outside_tuples(table, cfg, removed_stage1);
  auto tuple_outside = [&](const IpAddr& ip, std::uint16_t port,
                           Transport transport) {
    return std::binary_search(outside_tuples.begin(), outside_tuples.end(),
                              ThreeTuple{ip, port, transport});
  };

  // Local-IP filter precomputation: IP pairs of streams active before
  // the call window ("pre-call background capture", §3.2.2).
  std::vector<std::pair<IpAddr, IpAddr>> precall_pairs;
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    const Stream& s = table.streams[i];
    if (s.first_ts < cfg.schedule.window_begin())
      precall_pairs.emplace_back(s.key.a, s.key.b);
  }
  std::sort(precall_pairs.begin(), precall_pairs.end());
  precall_pairs.erase(
      std::unique(precall_pairs.begin(), precall_pairs.end()),
      precall_pairs.end());

  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    if (report.dispositions[i] != Disposition::kKept) continue;
    const Stream& s = table.streams[i];

    // 2a — 3-tuple timing: remote endpoint active outside the window.
    const bool a_is_device = is_device(s.key.a, cfg);
    const bool b_is_device = is_device(s.key.b, cfg);
    if ((!a_is_device &&
         tuple_outside(s.key.a, s.key.a_port, s.key.transport)) ||
        (!b_is_device &&
         tuple_outside(s.key.b, s.key.b_port, s.key.transport))) {
      report.dispositions[i] = Disposition::kStage2ThreeTuple;
      continue;
    }

    // 2b — TLS SNI blocklist (TCP only; UDP QUIC SNI is out of scope,
    // as in the paper).
    if (s.key.transport == Transport::kTcp) {
      if (auto sni = stream_sni(trace, table, s)) {
        if (sni_blocked(*sni, cfg.sni_blocklist)) {
          report.dispositions[i] = Disposition::kStage2Sni;
          continue;
        }
      }
    }

    // 2c — local-IP scope: LAN chatter whose IP pair also appeared in
    // the pre-call capture. The monitored devices themselves always sit
    // in private ranges on Wi-Fi, so only a local-scope *remote*
    // endpoint marks LAN management traffic; the device pair itself
    // (P2P media) and device↔server flows are preserved.
    const bool remote_local = (!a_is_device && s.key.a.is_local_scope()) ||
                              (!b_is_device && s.key.b.is_local_scope());
    if (remote_local) {
      const bool seen_precall = std::binary_search(
          precall_pairs.begin(), precall_pairs.end(),
          std::make_pair(s.key.a, s.key.b));
      if (seen_precall) {
        report.dispositions[i] = Disposition::kStage2LocalIp;
        continue;
      }
    }

    // 2d — port-based exclusion (IANA non-RTC services).
    if (cfg.excluded_ports.count(s.key.a_port) > 0 ||
        cfg.excluded_ports.count(s.key.b_port) > 0) {
      report.dispositions[i] = Disposition::kStage2Port;
      continue;
    }
  }

  // ---- Accounting (Table 1 shape) ----------------------------------------
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    const Stream& s = table.streams[i];
    const bool udp = s.key.transport == Transport::kUdp;
    const Disposition d = report.dispositions[i];
    if (d == Disposition::kStage1Timespan) {
      account(udp ? report.stage1_udp : report.stage1_tcp, s);
    } else if (is_stage2(d)) {
      account(udp ? report.stage2_udp : report.stage2_tcp, s);
    } else {
      account(udp ? report.rtc_udp : report.rtc_tcp, s);
      if (udp) report.rtc_udp_streams.push_back(i);
    }
  }
  return report;
}

std::vector<std::size_t> kept_frame_indices(const StreamTable& table,
                                            const FilterReport& report) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < table.streams.size(); ++i) {
    if (report.dispositions[i] != Disposition::kKept) continue;
    for (const auto& pkt : table.streams[i].packets)
      indices.push_back(pkt.frame_index);
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

}  // namespace rtcc::filter
