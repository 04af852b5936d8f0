// Ablation for §4.1's motivation: a conventional offset-zero strict
// DPI (Peafowl-style) vs the paper's scanning DPI. Per application,
// summed over the three network setups, it prints the RTC datagrams,
// the messages each DPI extracts, the scanning DPI's raw candidate
// count (the validating DPI's DatagramAnalysis::candidates, so
// candidates minus messages is what stage-2 validation and overlap
// resolution discarded), and the strict DPI's messages as a share of
// the scanning DPI's.
#include <cstdio>

#include "dpi/strict_dpi.hpp"
#include "report/metrics.hpp"

using namespace rtcc;

namespace {

struct Counts {
  std::uint64_t datagrams = 0;
  std::uint64_t messages = 0;
  std::uint64_t candidates = 0;
  std::uint64_t fully_proprietary = 0;
};

template <typename Dpi>
Counts run_dpi(const Dpi& dpi, const emul::EmulatedCall& call) {
  Counts out;
  const auto table = net::group_streams(call.trace);
  const auto fr = filter::run_pipeline(call.trace, table,
                                       emul::filter_config_for(call));
  for (auto si : fr.rtc_udp_streams) {
    const auto& s = table.streams[si];
    std::vector<dpi::StreamDatagram> dgs;
    for (const auto& p : s.packets) {
      dpi::StreamDatagram d;
      d.payload = net::packet_payload(call.trace, p);
      d.ts = p.ts;
      d.dir = p.dir == net::Direction::kAtoB ? 0 : 1;
      dgs.push_back(d);
    }
    for (const auto& anal : dpi.analyze_stream(dgs)) {
      ++out.datagrams;
      out.messages += anal.messages.size();
      out.candidates += anal.candidates;
      if (anal.klass == dpi::DatagramClass::kFullyProprietary)
        ++out.fully_proprietary;
    }
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Ablation: strict (Peafowl-style) DPI vs scanning DPI "
              "===\n\n");
  auto base = report::experiment_config_from_env();

  std::printf("%-13s %12s | %10s | %10s %12s | %12s\n", "Application",
              "RTC dgrams", "strict", "scanning", "(candidates)",
              "recall ratio");
  std::printf("%s\n", std::string(86, '-').c_str());

  for (auto app : emul::all_apps()) {
    Counts strict_total, scan_total;
    for (auto network : emul::all_networks()) {
      emul::CallConfig cfg;
      cfg.app = app;
      cfg.network = network;
      cfg.media_scale = base.media_scale;
      cfg.seed = base.seed;
      const auto call = emul::emulate_call(cfg);

      const dpi::StrictDpi strict;
      const auto s = run_dpi(strict, call);
      strict_total.datagrams += s.datagrams;
      strict_total.messages += s.messages;

      const dpi::ScanningDpi scanning;
      const auto c = run_dpi(scanning, call);
      scan_total.datagrams += c.datagrams;
      scan_total.messages += c.messages;
      scan_total.candidates += c.candidates;
    }
    const double ratio =
        scan_total.messages
            ? static_cast<double>(strict_total.messages) /
                  static_cast<double>(scan_total.messages)
            : 0.0;
    std::printf("%-13s %12llu | %10llu | %10llu %12llu | %11.1f%%\n",
                emul::to_string(app).c_str(),
                static_cast<unsigned long long>(scan_total.datagrams),
                static_cast<unsigned long long>(strict_total.messages),
                static_cast<unsigned long long>(scan_total.messages),
                static_cast<unsigned long long>(scan_total.candidates),
                100.0 * ratio);
  }
  std::printf(
      "\npaper shape: the strict DPI recovers almost nothing from Zoom\n"
      "and FaceTime (proprietary headers defeat offset-zero matching and\n"
      "fixed payload-type lists) while the scanning DPI recovers all\n"
      "embedded messages; candidates >> messages shows how much stage-2\n"
      "validation filters.\n");
  return 0;
}
