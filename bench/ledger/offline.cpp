// Offline workloads: whole captures analyzed as a researcher does, one
// capture after another (closed loop, one client), each read_pcap ->
// analyze_trace -> to_json back to back, round-robin over the set.
//
//   offline-relay   6 apps x Wi-Fi relay, paper-rate media (scale 1.0),
//                   120 s calls with 10 s pre- and post-call phases.
//   offline-matrix  the 6x3 app x network matrix at scale 0.05 with
//                   background traffic, plus every scenario_catalogue()
//                   entry.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>

#include "emul/app_model.hpp"
#include "emul/scenario.hpp"
#include "layers.hpp"
#include "net/pcap.hpp"
#include "report/json_export.hpp"
#include "testkit/meta.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using rtcc::emul::AppId;
using rtcc::emul::NetworkSetup;

struct Capture {
  std::string name;
  std::string path;
  rtcc::filter::FilterConfig fcfg;
  std::uint64_t frames = 0;
  std::uint64_t file_bytes = 0;
  std::string signature;  // of the in-memory trace, before the file
};

std::string label(std::string s) {
  for (char& c : s)
    c = std::isalnum(static_cast<unsigned char>(c)) != 0
            ? static_cast<char>(std::tolower(static_cast<unsigned char>(c)))
            : '-';
  return s;
}

std::string signature_of(const rtcc::net::Trace& trace,
                         const rtcc::filter::FilterConfig& fcfg) {
  std::vector<rtcc::report::CallAnalysis> per_stream;
  const auto merged = rtcc::report::analyze_trace(trace, fcfg, {}, &per_stream);
  return rtcc::testkit::meta::compliance_signature(merged, per_stream);
}

/// A capture's filter config as text beside it (<capture>.cfg), so a
/// child process analyzes the capture exactly as the parent does.
bool save_filter_config(const std::string& path,
                        const rtcc::filter::FilterConfig& c) {
  std::ofstream out(path);
  out.precision(17);  // doubles round-trip
  const auto& s = c.schedule;
  out << "schedule " << s.capture_start << ' ' << s.call_start << ' '
      << s.call_end << ' ' << s.capture_end << ' ' << s.slack << '\n';
  for (const auto& domain : c.sni_blocklist) out << "sni " << domain << '\n';
  for (const auto& ip : c.device_ips) out << "device " << ip.to_string() << '\n';
  for (const auto port : c.excluded_ports) out << "port " << port << '\n';
  return static_cast<bool>(out);
}

std::optional<rtcc::filter::FilterConfig> load_filter_config(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  rtcc::filter::FilterConfig c;
  std::string key;
  while (in >> key) {
    if (key == "schedule") {
      auto& s = c.schedule;
      in >> s.capture_start >> s.call_start >> s.call_end >> s.capture_end >>
          s.slack;
    } else if (key == "sni") {
      c.sni_blocklist.emplace_back();
      in >> c.sni_blocklist.back();
    } else if (key == "device") {
      std::string text;
      in >> text;
      const auto ip = rtcc::net::IpAddr::parse(text);
      if (!ip) return std::nullopt;
      c.device_ips.push_back(*ip);
    } else if (key == "port") {
      std::uint16_t port = 0;
      in >> port;
      c.excluded_ports.insert(port);
    } else {
      return std::nullopt;
    }
  }
  return c;
}

/// Writes `trace` as capture `name` into `dir`, with its filter config.
Capture write_capture(const std::string& dir, const std::string& name,
                      const rtcc::net::Trace& trace,
                      rtcc::filter::FilterConfig fcfg, Result& res) {
  Capture c;
  c.name = name;
  c.path = dir + "/" + name + ".pcap";
  c.fcfg = std::move(fcfg);
  c.frames = trace.size();
  c.signature = signature_of(trace, c.fcfg);
  std::string error;
  if (!rtcc::net::write_pcap(c.path, trace, &error) ||
      !save_filter_config(c.path + ".cfg", c.fcfg))
    res.fail("write " + c.path + ": " + error);
  struct stat st {};
  if (::stat(c.path.c_str(), &st) == 0)
    c.file_bytes = static_cast<std::uint64_t>(st.st_size);
  return c;
}

rtcc::emul::CallConfig relay_call(AppId app, std::uint64_t seed) {
  rtcc::emul::CallConfig cfg;
  cfg.app = app;
  cfg.network = NetworkSetup::kWifiRelay;
  cfg.pre_call_s = 10.0;
  cfg.call_s = 120.0;
  cfg.post_call_s = 10.0;
  cfg.media_scale = 1.0;
  cfg.seed = seed;
  return cfg;
}

constexpr double kMatrixScale = 0.05;

/// The workload's captures, generated from `seed` and written to
/// `dir`, with the signature of each in-memory trace.
std::vector<Capture> make_captures(const std::string& workload,
                                   std::uint64_t seed, const std::string& dir,
                                   Result& res) {
  std::vector<Capture> out;
  if (workload == "offline-relay") {
    for (AppId app : rtcc::emul::all_apps()) {
      const auto call = rtcc::emul::emulate_call(relay_call(app, seed));
      out.push_back(write_capture(dir, label(rtcc::emul::to_string(app)),
                                  call.trace,
                                  rtcc::emul::filter_config_for(call), res));
    }
    return out;
  }
  for (AppId app : rtcc::emul::all_apps()) {
    for (NetworkSetup net : rtcc::emul::all_networks()) {
      rtcc::emul::CallConfig cfg;
      cfg.app = app;
      cfg.network = net;
      cfg.media_scale = kMatrixScale;
      cfg.seed = seed;
      const auto call = rtcc::emul::emulate_call(cfg);
      out.push_back(write_capture(
          dir,
          label(rtcc::emul::to_string(app) + "-" + rtcc::emul::to_string(net)),
          call.trace, rtcc::emul::filter_config_for(call), res));
    }
  }
  for (const auto& spec : rtcc::emul::scenario_catalogue()) {
    rtcc::emul::ScenarioOptions opts;
    opts.media_scale = kMatrixScale;
    opts.seed = seed;
    auto sc = spec.build(opts);
    out.push_back(write_capture(dir, label(spec.name), sc.trace,
                                std::move(sc.cfg), res));
  }
  return out;
}

/// The fixed warm-up capture setup_s times, for both offline workloads:
/// a 5 s paper-rate Zoom relay call, independent of the seed.
Capture write_warmup(const std::string& dir, Result& res) {
  rtcc::emul::CallConfig cfg = relay_call(AppId::kZoom, 7);
  cfg.pre_call_s = 1.0;
  cfg.call_s = 5.0;
  cfg.post_call_s = 1.0;
  const auto call = rtcc::emul::emulate_call(cfg);
  return write_capture(dir, "warmup", call.trace,
                       rtcc::emul::filter_config_for(call), res);
}

/// Checks one production pass against the capture's reference.
bool check_pass(const Capture& c, const ProductionRun& run, Result& res) {
  ++res.attempted;
  if (!run.ok) {
    res.fail(c.name + ": " + run.error);
    return false;
  }
  if (run.signature != c.signature) {
    res.fail(c.name + ": signature differs from the in-memory trace's");
    return false;
  }
  return true;
}

rtcc::util::Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Per-layer run: for each capture, the production path (timed with
/// tracing on), its serial decomposition, the streaming reference and
/// the instrumented streaming pass — every output checked against the
/// capture's reference signature. Rounds repeat until `seconds` pass.
void traced_rounds(const RunConfig& cfg, const std::vector<Capture>& caps,
                   Result& res) {
  LayerTotals t;
  Tracer tracer;
  // Each capture's quickest traced production pass, the statistic the
  // untraced run reports, so the two give the tracing overhead.
  std::vector<double> floor_ms(caps.size(), std::numeric_limits<double>::infinity());
  count_allocs(true);
  const auto start = Clock::now();
  std::uint64_t index = 0;
  for (bool first = true;; first = false) {
    for (std::size_t ci = 0; ci < caps.size(); ++ci) {
      const Capture& c = caps[ci];
      const ProductionRun run = run_production(c.path, c.fcfg);
      if (!check_pass(c, run, res)) continue;
      floor_ms[ci] = std::min(floor_ms[ci], run.total_ms);
      t.production_analyze_ns += run.analyze_ns;
      t.production_frames += run.frames;

      ++res.attempted;
      if (run_decomposition(c.path, c.fcfg, index, first, t, tracer) !=
          c.signature)
        res.fail(c.name + ": decomposition signature differs");
      ++res.attempted;
      if (run_streaming_reference(c.path, c.fcfg, t) != c.signature)
        res.fail(c.name + ": analyze_pcap_streaming signature differs");

      StreamPass pass;
      pass.fcfg = c.fcfg;
      pass.jsonl_path = cfg.workdir + "/stream.jsonl";
      const int fd = ::open(c.path.c_str(), O_RDONLY | O_CLOEXEC);
      const StreamPassResult sp = run_stream_pass(fd, pass, first, t, tracer);
      if (fd >= 0) ::close(fd);
      ++res.attempted;
      if (!sp.ok) {
        res.fail(c.name + ": stream pass: " + sp.error);
      } else {
        if (sp.signature != c.signature)
          res.fail(c.name + ": streaming pass signature differs");
        check_verdicts(sp.log, sp.final_report, sp.frames, c.name, res);
      }
      ++index;
    }
    if (seconds_between(start, Clock::now()) >= cfg.seconds) break;
  }
  count_allocs(false);
  for (const double ms : floor_ms)
    if (std::isfinite(ms)) t.traced_latency_ms.push_back(ms);
  t.render_us = measure_render_us(slurp(caps.front().path), cfg.workdir);
  emit_layer_metrics(t, res);
  res.note("traced_rounds", static_cast<double>(index / caps.size()));
  if (!cfg.spans_path.empty() && !tracer.write(cfg.spans_path))
    res.fail("cannot write spans to " + cfg.spans_path);
}

}  // namespace

Result run_offline(const RunConfig& cfg) {
  Result res;
  const std::vector<Capture> caps =
      make_captures(cfg.workload, cfg.seed, cfg.workdir, res);
  double capture_mb = 0.0;
  for (const Capture& c : caps) capture_mb += static_cast<double>(c.file_bytes) / 1e6;
  res.note("captures", static_cast<double>(caps.size()));
  res.note("capture_mb", capture_mb);

  // Untimed warm-up pass: fills the page cache (disk I/O is not what
  // this measures) and checks the file round trip against the
  // in-memory trace and the checked-in digests.
  const Expected expected(cfg.expected_dir, cfg.seed);
  for (const Capture& c : caps) {
    const ProductionRun run = run_production(c.path, c.fcfg);
    if (!check_pass(c, run, res)) continue;
    if (expected.contradicts(cfg.workload, c.name, c.frames, digest(c.signature)))
      res.fail(c.name + ": signature differs from expected/seed" +
               std::to_string(cfg.seed) + ".txt");
  }

  if (cfg.trace) {
    traced_rounds(cfg, caps, res);
    return res;
  }

  // Set-up and peak memory come from fresh child processes, one
  // analysis each: in this process the heap keeps whatever earlier
  // captures left in it.
  const Capture warmup = write_warmup(cfg.workdir, res);
  const double setup_s = median_setup_s({"--probe-capture", warmup.path}, res);
  double peak_mb = 0.0;
  for (const Capture& c : caps) {
    const auto probe = run_probe({"--probe-capture", c.path});
    ++res.attempted;
    if (probe.size() < 2) {
      res.fail(c.name + ": memory probe failed");
    } else {
      peak_mb = std::max(peak_mb, probe[1]);
    }
  }

  std::vector<double> floor_ms(caps.size(), std::numeric_limits<double>::infinity());
  std::size_t rounds = 0;
  const auto start = Clock::now();
  for (; rounds < 3 || seconds_between(start, Clock::now()) < cfg.seconds;
       ++rounds) {
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const ProductionRun run = run_production(caps[i].path, caps[i].fcfg);
      if (check_pass(caps[i], run, res))
        floor_ms[i] = std::min(floor_ms[i], run.total_ms);
    }
  }

  // Each capture's time is its quickest round: the analysis is
  // deterministic, and the shared host only ever adds time to it.
  double bytes = 0.0;
  double busy_ms = 0.0;
  std::vector<double> per_capture_ms;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (!std::isfinite(floor_ms[i])) continue;
    per_capture_ms.push_back(floor_ms[i]);
    bytes += static_cast<double>(caps[i].file_bytes);
    busy_ms += floor_ms[i];
  }
  res.metric("setup_s", setup_s, "s");
  res.metric("throughput_mb_s", bytes / 1e6 / (busy_ms / 1e3), "MB/s");
  res.metric("latency_ms_p50", quantile(per_capture_ms, 0.5), "ms");
  res.metric("latency_ms_p90", quantile(per_capture_ms, 0.9), "ms");
  res.metric("peak_rss_mb", peak_mb, "MB");
  res.note("rounds", static_cast<double>(rounds));
  res.note("latency_samples", static_cast<double>(per_capture_ms.size()));
  return res;
}

std::pair<double, double> probe_capture(const std::string& pcap) {
  const auto fcfg = load_filter_config(pcap + ".cfg");
  if (!fcfg) return {-1.0, 0.0};
  const double base = reset_peak_rss();
  const auto t0 = Clock::now();
  auto trace = rtcc::net::read_pcap(pcap);
  if (!trace) return {-1.0, 0.0};
  const auto analysis = rtcc::report::analyze_trace(*trace, *fcfg);
  const std::string json = rtcc::report::to_json(analysis);
  const auto t1 = Clock::now();
  return {json.empty() ? -1.0 : seconds_between(t0, t1), peak_rss_mb() - base};
}

bool write_expected_offline(const RunConfig& cfg, Expected& expected) {
  Result res;
  for (const std::string& workload : {std::string("offline-relay"),
                                      std::string("offline-matrix")}) {
    for (const Capture& c : make_captures(workload, cfg.seed, cfg.workdir, res)) {
      const ProductionRun run = run_production(c.path, c.fcfg);
      if (!check_pass(c, run, res)) continue;
      expected.record(workload, c.name, c.frames, digest(run.signature));
      std::remove(c.path.c_str());
    }
  }
  for (const auto& e : res.errors) std::fprintf(stderr, "perf_ledger: %s\n", e.c_str());
  return res.failed == 0;
}

}  // namespace ledger
