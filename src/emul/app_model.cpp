#include "emul/app_model.hpp"

#include <algorithm>

namespace rtcc::emul {

using rtcc::net::IpAddr;
using rtcc::util::BytesView;

std::string to_string(AppId a) {
  switch (a) {
    case AppId::kZoom:
      return "Zoom";
    case AppId::kFaceTime:
      return "FaceTime";
    case AppId::kWhatsApp:
      return "WhatsApp";
    case AppId::kMessenger:
      return "Messenger";
    case AppId::kDiscord:
      return "Discord";
    case AppId::kGoogleMeet:
      return "Google Meet";
  }
  return "?";
}

std::string to_string(NetworkSetup n) {
  switch (n) {
    case NetworkSetup::kWifiP2p:
      return "WiFi-P2P";
    case NetworkSetup::kWifiRelay:
      return "WiFi-Relay";
    case NetworkSetup::kCellular:
      return "Cellular";
  }
  return "?";
}

std::vector<AppId> all_apps() {
  return {AppId::kZoom,      AppId::kFaceTime, AppId::kWhatsApp,
          AppId::kMessenger, AppId::kDiscord,  AppId::kGoogleMeet};
}

std::vector<NetworkSetup> all_networks() {
  return {NetworkSetup::kWifiP2p, NetworkSetup::kWifiRelay,
          NetworkSetup::kCellular};
}

CallContext::CallContext(const CallConfig& config, const Endpoints& endpoints,
                         const rtcc::filter::CallSchedule& schedule,
                         std::uint64_t seed)
    : config_(config),
      endpoints_(endpoints),
      schedule_(schedule),
      rng_(seed) {}

TransmissionMode CallContext::initial_mode() const {
  switch (config_.network) {
    case NetworkSetup::kWifiP2p:
      return TransmissionMode::kP2p;
    case NetworkSetup::kWifiRelay:
      return TransmissionMode::kRelay;
    case NetworkSetup::kCellular:
      // §3.1.1: application-dependent. Zoom and Discord always relay;
      // FaceTime always P2P; the rest start on relay and switch.
      switch (config_.app) {
        case AppId::kFaceTime:
          return TransmissionMode::kP2p;
        case AppId::kZoom:
        case AppId::kDiscord:
        case AppId::kWhatsApp:
        case AppId::kMessenger:
        case AppId::kGoogleMeet:
          return TransmissionMode::kRelay;
      }
  }
  return TransmissionMode::kRelay;
}

TransmissionMode CallContext::mode_at(double ts) const {
  const TransmissionMode initial = initial_mode();
  if (config_.network != NetworkSetup::kCellular) return initial;
  const bool switches = config_.app == AppId::kWhatsApp ||
                        config_.app == AppId::kMessenger ||
                        config_.app == AppId::kGoogleMeet;
  if (switches && ts >= schedule_.call_start + 30.0)
    return TransmissionMode::kP2p;
  return initial;
}

std::uint16_t CallContext::ephemeral_port() {
  return static_cast<std::uint16_t>(20000 + rng_.below(40000));
}

void CallContext::emit(double ts, const rtcc::net::FrameSpec& spec,
                       BytesView payload, TruthKind kind) {
  emissions_.push_back(Emission{
      ts, rtcc::net::build_frame_arena(arena_, ts, spec, payload), kind});
}

void CallContext::emit_udp(double ts, const IpAddr& src, std::uint16_t sport,
                           const IpAddr& dst, std::uint16_t dport,
                           BytesView payload, TruthKind kind) {
  rtcc::net::FrameSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.transport = rtcc::net::Transport::kUdp;
  emit(ts, spec, payload, kind);
}

void CallContext::emit_tcp(double ts, const IpAddr& src, std::uint16_t sport,
                           const IpAddr& dst, std::uint16_t dport,
                           BytesView payload, TruthKind kind) {
  rtcc::net::FrameSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.transport = rtcc::net::Transport::kTcp;
  emit(ts, spec, payload, kind);
}

EmulatedCall CallContext::take_call() {
  std::stable_sort(
      emissions_.begin(), emissions_.end(),
      [](const Emission& a, const Emission& b) { return a.ts < b.ts; });
  EmulatedCall call;
  call.schedule = schedule_;
  call.endpoints = endpoints_;
  call.config = config_;
  call.trace.adopt_arena(std::move(arena_));
  call.trace.reserve(emissions_.size());
  call.truth.reserve(emissions_.size());
  for (auto& e : emissions_) {
    call.trace.add_frame(e.frame);
    call.truth.push_back(e.kind);
  }
  emissions_.clear();
  arena_ = rtcc::net::FrameArena();
  return call;
}

std::vector<double> packet_times(rtcc::util::Rng& rng, double start,
                                 double end, double pps, double scale) {
  std::vector<double> out;
  const double rate = pps * scale;
  if (rate <= 0 || end <= start) return out;
  double t = start + rng.exponential(1.0 / rate);
  while (t < end) {
    out.push_back(t);
    t += rng.exponential(1.0 / rate);
  }
  return out;
}

MediaPath media_path(CallContext& ctx, TransmissionMode mode,
                     std::uint16_t a_port, std::uint16_t b_port,
                     std::uint16_t relay_port) {
  MediaPath p;
  p.a = ctx.ep().device_a;
  p.a_port = a_port;
  if (mode == TransmissionMode::kP2p) {
    p.b = ctx.ep().device_b;
    p.b_port = b_port;
  } else {
    p.b = ctx.ep().relay;
    p.b_port = relay_port;
  }
  return p;
}

}  // namespace rtcc::emul
