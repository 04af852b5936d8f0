// Synthetic traffic models for the six RTC applications.
//
// The paper's input is live captures of real calls; offline we
// substitute deterministic per-application models that reproduce every
// wire-level behaviour §4/§5 documents (see DESIGN.md §1/§5). Each
// generated frame carries a ground-truth label that tests use to
// validate the filter and DPI — the analysis pipeline itself never
// sees the labels.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "filter/pipeline.hpp"
#include "net/pcap.hpp"
#include "util/rng.hpp"

namespace rtcc::emul {

enum class AppId : std::uint8_t {
  kZoom,
  kFaceTime,
  kWhatsApp,
  kMessenger,
  kDiscord,
  kGoogleMeet,
};

enum class NetworkSetup : std::uint8_t {
  kWifiP2p,    // Wi-Fi, UDP hole punching allowed
  kWifiRelay,  // Wi-Fi, hole punching blocked at the router
  kCellular,   // 4G; transmission mode is application-determined
};

enum class TransmissionMode : std::uint8_t { kP2p, kRelay };

[[nodiscard]] std::string to_string(AppId a);
[[nodiscard]] std::string to_string(NetworkSetup n);
[[nodiscard]] std::vector<AppId> all_apps();
[[nodiscard]] std::vector<NetworkSetup> all_networks();

struct CallConfig {
  AppId app = AppId::kZoom;
  NetworkSetup network = NetworkSetup::kWifiP2p;
  double pre_call_s = 60.0;
  double call_s = 300.0;
  double post_call_s = 60.0;
  /// Scales media packet rates; 1.0 approximates a real call's ~50 pps
  /// audio + ~120 pps video. Benches default lower to stay fast.
  double media_scale = 0.05;
  bool background = true;
  std::uint64_t seed = 1;
  /// Repeat number within an experiment; Zoom's deterministic SSRC
  /// reuse (§5.2.2) is observable across values of this field.
  int call_index = 0;
  /// Run the call over IPv6 (devices on a ULA prefix, servers on
  /// 2001:db8::/32). Background traffic stays IPv4, producing the
  /// dual-stack captures real phones generate.
  bool ipv6 = false;
};

struct Endpoints {
  rtcc::net::IpAddr device_a;
  rtcc::net::IpAddr device_b;
  rtcc::net::IpAddr relay;        // the app's TURN/SFU relay
  rtcc::net::IpAddr stun_server;  // in-call STUN server
  rtcc::net::IpAddr launch_server;  // pre-call infrastructure
};

/// Ground truth attached to each emitted frame (tests only).
enum class TruthKind : std::uint8_t { kRtc, kBackground };

/// A generated call: time-sorted frames + parallel truth labels.
struct EmulatedCall {
  rtcc::net::Trace trace;
  std::vector<TruthKind> truth;
  rtcc::filter::CallSchedule schedule;
  Endpoints endpoints;
  CallConfig config;
};

/// Emission context handed to app models and the background generator.
class CallContext {
 public:
  CallContext(const CallConfig& config, const Endpoints& endpoints,
              const rtcc::filter::CallSchedule& schedule,
              std::uint64_t seed);

  [[nodiscard]] const CallConfig& config() const { return config_; }
  [[nodiscard]] const Endpoints& ep() const { return endpoints_; }
  [[nodiscard]] const rtcc::filter::CallSchedule& schedule() const {
    return schedule_;
  }
  [[nodiscard]] rtcc::util::Rng& rng() { return rng_; }

  [[nodiscard]] double call_start() const { return schedule_.call_start; }
  [[nodiscard]] double call_end() const { return schedule_.call_end; }

  /// The mode the call starts in, per the application-dependent rules
  /// §3.1.1 reports; mode_at() additionally models the relay→P2P switch
  /// WhatsApp/Messenger/Meet perform ~30 s into cellular calls.
  [[nodiscard]] TransmissionMode initial_mode() const;
  [[nodiscard]] TransmissionMode mode_at(double ts) const;

  /// Ephemeral port draw, stable within the call.
  [[nodiscard]] std::uint16_t ephemeral_port();

  void emit_udp(double ts, const rtcc::net::IpAddr& src, std::uint16_t sport,
                const rtcc::net::IpAddr& dst, std::uint16_t dport,
                rtcc::util::BytesView payload, TruthKind kind);
  void emit_tcp(double ts, const rtcc::net::IpAddr& src, std::uint16_t sport,
                const rtcc::net::IpAddr& dst, std::uint16_t dport,
                rtcc::util::BytesView payload, TruthKind kind);

  /// Sorts emissions by timestamp and moves them out.
  [[nodiscard]] EmulatedCall take_call();

 private:
  struct Emission {
    double ts;
    rtcc::net::Frame frame;
    TruthKind kind;
  };

  void emit(double ts, const rtcc::net::FrameSpec& spec,
            rtcc::util::BytesView payload, TruthKind kind);

  CallConfig config_;
  Endpoints endpoints_;
  rtcc::filter::CallSchedule schedule_;
  rtcc::util::Rng rng_;
  /// Frames are written straight into this arena and only their
  /// 24-byte descriptors are sorted/moved by take_call; the arena
  /// itself transfers wholesale into the call's trace.
  rtcc::net::FrameArena arena_;
  std::vector<Emission> emissions_;
};

/// One application's traffic model.
class AppModel {
 public:
  virtual ~AppModel() = default;
  [[nodiscard]] virtual AppId id() const = 0;
  /// Emits this app's RTC traffic (and app-specific pre-call traffic).
  virtual void generate(CallContext& ctx) const = 0;
};

[[nodiscard]] const AppModel& model_for(AppId app);

/// Full single-call emulation: endpoints + app model + background.
[[nodiscard]] EmulatedCall emulate_call(const CallConfig& config);

/// The filter configuration matching an emulated call (device IPs,
/// schedule, SNI blocklist, default port exclusions).
[[nodiscard]] rtcc::filter::FilterConfig filter_config_for(
    const EmulatedCall& call);

// ---- Shared helpers for app models --------------------------------------

/// Poisson-ish packet timestamps at `pps * media_scale` over [start, end).
[[nodiscard]] std::vector<double> packet_times(rtcc::util::Rng& rng,
                                               double start, double end,
                                               double pps, double scale);

/// A bidirectional media leg: A-side and B-side addresses/ports for the
/// current mode (direct A<->B, or both legs hitting the relay).
struct MediaPath {
  rtcc::net::IpAddr a;
  std::uint16_t a_port = 0;
  rtcc::net::IpAddr b;
  std::uint16_t b_port = 0;
};

/// Resolves the media path for a mode: P2P = device A <-> device B;
/// relay = device <-> relay server (the "B side" becomes the relay).
[[nodiscard]] MediaPath media_path(CallContext& ctx, TransmissionMode mode,
                                   std::uint16_t a_port,
                                   std::uint16_t b_port,
                                   std::uint16_t relay_port);

}  // namespace rtcc::emul
