// The paper's two-stage unrelated-traffic filter (§3.2):
//   stage 1 — stream-timespan alignment with the (±2 s expanded) call
//             window;
//   stage 2 — intra-call heuristics: 3-tuple timing, TLS SNI blocklist,
//             local-IP scope, and IANA port-based exclusion.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "net/stream_table.hpp"

namespace rtcc::filter {

/// Experiment phase boundaries (§3.1.2): 60 s pre-call, 5 min call,
/// 60 s post-call, all in trace-relative seconds.
struct CallSchedule {
  double capture_start = 0.0;
  double call_start = 60.0;
  double call_end = 360.0;
  double capture_end = 420.0;
  /// §3.2.1: the call window is expanded by this slack on both sides
  /// before the enclosure test.
  double slack = 2.0;

  [[nodiscard]] double window_begin() const { return call_start - slack; }
  [[nodiscard]] double window_end() const { return call_end + slack; }
};

struct FilterConfig {
  CallSchedule schedule;
  /// Known non-RTC domains (suffix match against extracted SNI).
  std::vector<std::string> sni_blocklist;
  /// The monitored devices' own addresses; the endpoint that is not a
  /// device is the "destination side" for the 3-tuple filter, and the
  /// device pair itself is exempt from the local-IP filter (P2P media).
  std::vector<rtcc::net::IpAddr> device_ips;
  /// Transport ports of known non-RTC services (IANA registry, §3.2.2).
  std::set<std::uint16_t> excluded_ports;
};

/// The built-in port list: DNS, DHCP(v4/v6), NTP, NetBIOS, mDNS, SSDP.
[[nodiscard]] std::set<std::uint16_t> default_excluded_ports();

/// Why a stream was removed (kKept == survived into the RTC dataset).
enum class Disposition : std::uint8_t {
  kKept,
  kStage1Timespan,
  kStage2ThreeTuple,
  kStage2Sni,
  kStage2LocalIp,
  kStage2Port,
};

[[nodiscard]] std::string to_string(Disposition d);
[[nodiscard]] inline bool is_stage2(Disposition d) {
  return d == Disposition::kStage2ThreeTuple || d == Disposition::kStage2Sni ||
         d == Disposition::kStage2LocalIp || d == Disposition::kStage2Port;
}

struct StageStats {
  std::size_t streams = 0;
  std::uint64_t packets = 0;
};

/// Filtering outcome in Table 1's shape, split UDP/TCP per stage.
struct FilterReport {
  std::vector<Disposition> dispositions;  // indexed like table.streams
  StageStats stage1_udp, stage2_udp, stage1_tcp, stage2_tcp;
  StageStats rtc_udp, rtc_tcp;
  /// Indices of surviving UDP streams — the compliance-analysis input.
  std::vector<std::size_t> rtc_udp_streams;
  /// Ingestion diagnostics carried from the stream table so every
  /// downstream compliance number travels with its loss accounting.
  rtcc::net::IngestStats ingest;
};

[[nodiscard]] FilterReport run_pipeline(const rtcc::net::Trace& trace,
                                        const rtcc::net::StreamTable& table,
                                        const FilterConfig& cfg);

/// Frame indices (ascending) of every packet belonging to a kept
/// stream. Because each stage only *removes* streams and the stage-2
/// heuristics draw their evidence (3-tuples, pre-call IP pairs)
/// exclusively from removed streams, re-running the pipeline on just
/// these frames must keep every stream again — the filter is idempotent
/// over its own output. testkit::meta asserts this; note the guarantee
/// is per-frame, so it covers traces without IPv4 fragmentation (a
/// reassembled packet has no single home frame).
[[nodiscard]] std::vector<std::size_t> kept_frame_indices(
    const rtcc::net::StreamTable& table, const FilterReport& report);

// ---- Individual stages (exposed for unit tests and ablations) ----------

/// Stage 1: true when the stream's active span is fully enclosed in the
/// expanded call window.
[[nodiscard]] bool enclosed_in_window(const rtcc::net::Stream& s,
                                      const CallSchedule& schedule);

/// Stage 2a helper: remote-endpoint 3-tuples (ip, port, proto) observed
/// outside the call window (from streams stage 1 removed).
struct ThreeTuple {
  rtcc::net::IpAddr ip;
  std::uint16_t port = 0;
  rtcc::net::Transport transport = rtcc::net::Transport::kUdp;
  auto operator<=>(const ThreeTuple&) const = default;
};

struct ThreeTupleHash {
  std::size_t operator()(const ThreeTuple& t) const noexcept;
};

[[nodiscard]] std::vector<ThreeTuple> collect_outside_tuples(
    const rtcc::net::StreamTable& table, const FilterConfig& cfg,
    const std::vector<bool>& removed_stage1);

/// Stage 2b: SNI of the stream's TLS ClientHello, if any (first packets
/// only — ClientHello is always at the front of a TCP stream). The
/// table resolves payloads of packets reassembled from IPv4 fragments.
[[nodiscard]] std::optional<std::string> stream_sni(
    const rtcc::net::Trace& trace, const rtcc::net::StreamTable& table,
    const rtcc::net::Stream& s);

/// Suffix match honoring label boundaries ("facebook.com" matches
/// "web.facebook.com" but not "notfacebook.com").
[[nodiscard]] bool sni_blocked(const std::string& sni,
                               const std::vector<std::string>& blocklist);

}  // namespace rtcc::filter
