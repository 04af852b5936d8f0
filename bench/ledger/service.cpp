// Service workloads: rtccd as operators run it, fed over its unix
// socket by an open-loop generator while the bench reads the JSONL
// verdict stream from a FIFO and scrapes /metrics.
//
//   service-churn  3-packet 160-byte RTP flows with unique 5-tuples.
//   service-calls  many concurrent full-media relay calls, renumbered
//                  per call instance from emulator templates.
//
// A run has three phases, interleaved, each repeating a 2 s schedule on
// fresh daemons: sat (the hi schedule's frames sent as fast as the
// socket accepts) and lo / hi (fixed offered rates, each frame sent at
// its due time). Frame timestamps equal their due offsets, so the
// capture clock tracks the schedule.
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>

#include "emul/app_model.hpp"
#include "layers.hpp"
#include "net/headers.hpp"
#include "proto/rtp/rtp.hpp"
#include "service/daemon.hpp"
#include "stream/chunk_reader.hpp"
#include "stream/engine.hpp"
#include "testkit/meta.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ledger {

namespace {

using rtcc::net::IpAddr;
using rtcc::report::CallAnalysis;
using rtcc::util::Bytes;

// ---- Workload parameters ------------------------------------------------

struct ServiceParams {
  double idle_timeout_s;
  std::size_t max_flows;
  double epoch_s;
  // Offered rates, absolute frames/s: about 25% and 50% of the sat rate
  // the code reached on a 4-core box when they were set (README.md),
  // then frozen, so a later change is measured at the load the baseline
  // was.
  double lo_fps;
  double hi_fps;
};

ServiceParams params_for(const std::string& workload) {
  if (workload == "service-churn") return {0.5, 8192, 0.1, 52500, 105000};
  return {0.5, 8192, 0.1, 110000, 220000};
}

/// Relay call template length. Flows stay long next to the 0.1 s epoch
/// and churn's 3 packets; calls still end, and their verdicts arrive,
/// inside a phase.
constexpr double kCallLengthS = 2.0;

/// Length of one repetition's schedule.
constexpr double kRepetitionS = 2.0;

/// The late-p99 a generator self-check may show at `hi`.
constexpr double kMaxLateMs = 1.0;

// ---- Inputs and schedules ---------------------------------------------------

/// One relay call's decoded frames, relative to the call start.
struct CallTemplate {
  struct Frame {
    std::int64_t us;
    rtcc::net::FrameSpec spec;
    Bytes payload;
  };
  std::vector<Frame> frames;
  IpAddr device_a;
  IpAddr device_b;
};

std::vector<CallTemplate> call_templates(std::uint64_t seed) {
  std::vector<CallTemplate> out;
  for (auto app : rtcc::emul::all_apps()) {
    rtcc::emul::CallConfig cfg;
    cfg.app = app;
    cfg.network = rtcc::emul::NetworkSetup::kWifiRelay;
    cfg.pre_call_s = 0.0;
    cfg.call_s = kCallLengthS;
    cfg.post_call_s = 0.0;
    cfg.media_scale = 1.0;
    cfg.background = false;
    cfg.seed = seed;
    const auto call = rtcc::emul::emulate_call(cfg);
    CallTemplate t;
    t.device_a = call.endpoints.device_a;
    t.device_b = call.endpoints.device_b;
    for (std::size_t i = 0; i < call.trace.size(); ++i) {
      const double ts = call.trace.frames()[i].ts;
      if (ts < call.schedule.call_start || ts >= call.schedule.call_end)
        continue;
      const auto d = rtcc::net::decode_frame(call.trace.frame_bytes(i));
      if (!d) continue;  // IPv4 fragments are not renumbered
      CallTemplate::Frame f;
      f.us = std::llround((ts - call.schedule.call_start) * 1e6);
      f.spec.src = d->src;
      f.spec.dst = d->dst;
      f.spec.src_port = d->src_port;
      f.spec.dst_port = d->dst_port;
      f.spec.transport = d->transport;
      f.payload.assign(d->payload.begin(), d->payload.end());
      t.frames.push_back(std::move(f));
    }
    out.push_back(std::move(t));
  }
  return out;
}

/// One frame of a schedule: its due offset and what to render — flow
/// and packet (churn) or call instance and template frame (calls).
struct Event {
  std::int64_t us;
  std::uint32_t a;
  std::uint32_t b;
};

void put32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// The classic-pcap global header net::encode_pcap writes (little
/// endian, microseconds, Ethernet).
void put_pcap_header(Bytes& out) {
  put32(out, 0xA1B2C3D4);
  put32(out, 0x00040002);  // version 2.4
  put32(out, 0);           // thiszone
  put32(out, 0);           // sigfigs
  put32(out, 262144);      // snaplen
  put32(out, rtcc::net::kLinkEthernet);
}

std::uint32_t mix32(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>(x ^ (x >> 31));
}

struct Inputs;

/// A phase's input: its due frames in order. Frames are rendered to
/// pcap records only when sent — a phase of full-media calls would not
/// fit in memory as bytes.
struct Schedule {
  const Inputs* in = nullptr;
  std::vector<Event> events;

  [[nodiscard]] std::uint64_t frames() const { return events.size(); }
  /// How many frames are due before `limit_s`.
  [[nodiscard]] std::size_t frames_before(double limit_s) const {
    return static_cast<std::size_t>(
        std::lower_bound(events.begin(), events.end(),
                         static_cast<std::int64_t>(limit_s * 1e6),
                         [](const Event& e, std::int64_t us) { return e.us < us; }) -
        events.begin());
  }
  /// Appends frame i's pcap record.
  void render(std::size_t i, Bytes& out) const;
  /// The pcap byte stream of the first `n` frames.
  [[nodiscard]] Bytes render_prefix(std::size_t n) const {
    Bytes out;
    put_pcap_header(out);
    for (std::size_t i = 0; i < n; ++i) render(i, out);
    return out;
  }
};

/// Everything a workload's schedules are made from; the seed is its
/// only input.
struct Inputs {
  std::string workload;
  std::uint64_t seed = 0;
  ServiceParams params{};
  std::vector<CallTemplate> templates;  // service-calls

  /// The schedule offering `fps` for `duration_s`.
  [[nodiscard]] Schedule schedule(double fps, double duration_s) const {
    Schedule s;
    s.in = this;
    const auto limit = static_cast<std::int64_t>(duration_s * 1e6);
    if (workload == "service-churn") {
      // Flow f starts at f * 3 / fps; its 3 packets are 10 ms apart.
      for (std::uint32_t f = 0;; ++f) {
        const auto start = static_cast<std::int64_t>(std::llround(f * 3e6 / fps));
        if (start >= limit) break;
        for (std::uint32_t p = 0; p < 3; ++p)
          if (start + 10000 * p < limit) s.events.push_back({start + 10000 * p, f, p});
      }
    } else {
      // Enough concurrent instances to offer `fps`, staggered uniformly
      // over one call length so the phase opens in steady state.
      double per_call = 0.0;
      for (const auto& t : templates) per_call += static_cast<double>(t.frames.size());
      per_call /= static_cast<double>(templates.size());
      const double spacing_us = per_call / fps * 1e6;
      rtcc::util::Rng rng(seed);
      for (std::uint32_t k = 0;; ++k) {
        const auto start = static_cast<std::int64_t>(
            -kCallLengthS * 1e6 + (k + rng.uniform()) * spacing_us);
        if (start >= limit) break;
        const auto& t = templates[k % templates.size()];
        for (std::uint32_t i = 0; i < t.frames.size(); ++i) {
          const std::int64_t us = start + t.frames[i].us;
          if (us >= 0 && us < limit) s.events.push_back({us, k, i});
        }
      }
    }
    std::sort(s.events.begin(), s.events.end(), [](const Event& x, const Event& y) {
      if (x.us != y.us) return x.us < y.us;
      return x.a != y.a ? x.a < y.a : x.b < y.b;
    });
    return s;
  }

  /// Frame bytes for event `e`.
  [[nodiscard]] Bytes frame(const Event& e) const {
    rtcc::net::FrameSpec spec;
    if (workload == "service-churn") {
      const std::uint32_t ssrc = mix32(seed * 0x100000001ull + e.a);
      const Bytes rtp = rtcc::proto::rtp::PacketBuilder()
                            .payload_type(96)
                            .seq(static_cast<std::uint16_t>(ssrc + e.b))
                            .timestamp(ssrc ^ (e.b * 960))
                            .ssrc(ssrc)
                            .payload_fill(static_cast<std::uint8_t>(e.a), 148)
                            .build();
      const std::uint32_t host = e.a / 60000;
      spec.src = IpAddr::v4(10, static_cast<std::uint8_t>(host >> 8),
                            static_cast<std::uint8_t>(host), 1);
      spec.src_port = static_cast<std::uint16_t>(1024 + e.a % 60000);
      spec.dst = IpAddr::v4(203, 0, 113, static_cast<std::uint8_t>(1 + seed % 250));
      spec.dst_port = 5004;
      return rtcc::net::build_frame(spec, rtp);
    }
    // Call instance e.a: its two devices get addresses of their own.
    const auto& t = templates[e.a % templates.size()];
    const auto& f = t.frames[e.b];
    const auto renumber = [&](const IpAddr& ip) {
      const std::uint8_t hi = static_cast<std::uint8_t>((e.a >> 16) & 63);
      if (ip == t.device_a)
        return IpAddr::v4(10, static_cast<std::uint8_t>(64 + hi),
                          static_cast<std::uint8_t>(e.a >> 8),
                          static_cast<std::uint8_t>(e.a));
      if (ip == t.device_b)
        return IpAddr::v4(10, static_cast<std::uint8_t>(128 + hi),
                          static_cast<std::uint8_t>(e.a >> 8),
                          static_cast<std::uint8_t>(e.a));
      return ip;
    };
    spec = f.spec;
    spec.src = renumber(spec.src);
    spec.dst = renumber(spec.dst);
    return rtcc::net::build_frame(spec, f.payload);
  }
};

void Schedule::render(std::size_t i, Bytes& out) const {
  const Event& e = events[i];
  const Bytes frame = in->frame(e);
  put32(out, static_cast<std::uint32_t>(e.us / 1000000));
  put32(out, static_cast<std::uint32_t>(e.us % 1000000));
  put32(out, static_cast<std::uint32_t>(frame.size()));
  put32(out, static_cast<std::uint32_t>(frame.size()));
  out.insert(out.end(), frame.begin(), frame.end());
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.params = params_for(workload);
  if (workload == "service-calls") in.templates = call_templates(seed);
  return in;
}

/// A schedule's pcap byte stream, rendered as it is read.
class RenderSource final : public rtcc::stream::ChunkSource {
 public:
  explicit RenderSource(const Schedule& s) : s_(s) { put_pcap_header(buf_); }

  std::size_t read(std::uint8_t* dst, std::size_t max) override {
    while (buf_.size() - pos_ < max && next_ < s_.frames()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
      pos_ = 0;
      for (std::size_t end = std::min(s_.frames(), next_ + 1024); next_ < end; ++next_)
        s_.render(next_, buf_);
    }
    const std::size_t n = std::min(max, buf_.size() - pos_);
    std::memcpy(dst, buf_.data() + pos_, n);
    pos_ += n;
    return n;
  }

 private:
  const Schedule& s_;
  Bytes buf_;
  std::size_t pos_ = 0;
  std::size_t next_ = 0;
};

rtcc::stream::StreamOptions stream_options(const ServiceParams& p) {
  rtcc::stream::StreamOptions o;
  o.max_flows = p.max_flows;
  o.idle_timeout_s = p.idle_timeout_s;
  return o;
}

/// The phase's merged result as an in-process engine computes it — the
/// reference the checked-in digests record.
std::string reference_signature(const Schedule& s, const ServiceParams& p) {
  RenderSource source(s);
  rtcc::stream::StreamingAnalyzer engine(rtcc::net::kLinkEthernet,
                                         rtcc::service::keep_all_filter_config(),
                                         {}, stream_options(p));
  if (!rtcc::stream::stream_pcap(source, engine, std::size_t{1} << 20))
    return {};
  return rtcc::testkit::meta::compliance_signature(engine.finish(), {});
}

// ---- Load generator -------------------------------------------------------

struct PaceResult {
  Clock::time_point t0{};
  std::vector<double> late_ms;  // per frame, paced phases only
  std::int64_t blocked_ns = 0;  // time inside write()
  std::uint64_t bytes = 0;      // sent, pcap header included
  double elapsed_s = 0.0;
  bool ok = true;
};

/// Sends `s` into `fd` on its schedule: each frame at t0 + its due
/// offset, rendered just before it goes out; all frames due by the time
/// the pacer wakes leave in one write. Frames due at or after `limit_s`
/// are not sent (the self-check's prefix).
PaceResult pace(int fd, const Schedule& s,
                double limit_s = std::numeric_limits<double>::infinity()) {
  PaceResult r;
  const std::size_t n =
      std::isfinite(limit_s) ? s.frames_before(limit_s) : s.frames();
  r.late_ms.reserve(n);
  Bytes batch;
  put_pcap_header(batch);
  r.t0 = Clock::now();
  std::size_t i = 0;
  while (r.ok) {
    std::size_t j = i;
    if (i < n) {
      const std::int64_t now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                                      Clock::now() - r.t0)
                                      .count();
      while (j < n && s.events[j].us <= now_us) ++j;
      if (j == i) {
        std::this_thread::sleep_until(r.t0 + std::chrono::microseconds(s.events[i].us));
        continue;
      }
      for (std::size_t k = i; k < j; ++k) s.render(k, batch);
    }
    const auto a = Clock::now();
    const std::int64_t sent_us =
        std::chrono::duration_cast<std::chrono::microseconds>(a - r.t0).count();
    for (std::size_t k = i; k < j; ++k)
      r.late_ms.push_back(static_cast<double>(sent_us - s.events[k].us) / 1e3);
    r.ok = write_all(fd, batch.data(), batch.size());
    r.blocked_ns += ns_between(a, Clock::now());
    r.bytes += batch.size();
    batch.clear();
    if (j >= n) break;
    i = j;
  }
  r.elapsed_s = seconds_between(r.t0, Clock::now());
  return r;
}

/// Sends `s` as fast as the socket accepts, rendering frames in batches
/// just before they go out.
PaceResult blast(int fd, const Schedule& s) {
  PaceResult r;
  Bytes batch;
  put_pcap_header(batch);
  r.t0 = Clock::now();
  std::size_t i = 0;
  do {
    const std::size_t j = std::min<std::size_t>(s.frames(), i + 1024);
    for (std::size_t k = i; k < j; ++k) s.render(k, batch);
    const auto a = Clock::now();
    r.ok = write_all(fd, batch.data(), batch.size());
    r.blocked_ns += ns_between(a, Clock::now());
    r.bytes += batch.size();
    batch.clear();
    i = j;
  } while (r.ok && i < s.frames());
  r.elapsed_s = seconds_between(r.t0, Clock::now());
  return r;
}

/// Paces the first second of `s` into a socketpair whose reader only
/// drains, so the generator's own lateness shows without the daemon.
PaceResult self_check(const Schedule& s) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    PaceResult bad;
    bad.ok = false;
    return bad;
  }
  std::thread drain([fd = sv[1]] {
    std::vector<char> buf(std::size_t{1} << 18);
    while (::read(fd, buf.data(), buf.size()) > 0) {
    }
  });
  PaceResult r = pace(sv[0], s, 1.0);
  ::close(sv[0]);
  drain.join();
  ::close(sv[1]);
  return r;
}

// ---- JSONL verdict stream -------------------------------------------------

/// The raw token after "key": in a flat JSON object line.
std::string_view field(std::string_view line, std::string_view key) {
  std::size_t pos = 0;
  while ((pos = line.find(key, pos)) != std::string_view::npos) {
    const std::size_t after = pos + key.size();
    if (pos > 0 && line[pos - 1] == '"' && after + 1 < line.size() &&
        line[after] == '"' && line[after + 1] == ':') {
      const std::string_view v = line.substr(after + 2);
      return v.substr(0, v.find_first_of(",}"));
    }
    pos = after;
  }
  return {};
}

std::uint64_t to_u64(std::string_view v) {
  return std::strtoull(std::string(v).c_str(), nullptr, 10);
}
double to_double(std::string_view v) {
  return std::strtod(std::string(v).c_str(), nullptr);
}

void parse_line(std::string_view line, Clock::time_point seen,
                VerdictLog& log) {
  const std::string_view type = field(line, "type");
  if (type == "\"epoch\"") {
    log.epochs.push_back({to_u64(field(line, "epoch")),
                          to_double(field(line, "clock_end")),
                          to_u64(field(line, "frames")),
                          field(line, "final") == "true"});
  } else if (type == "\"verdict\"") {
    VerdictRec v;
    v.epoch = to_u64(field(line, "epoch"));
    v.ordinal = to_u64(field(line, "ordinal"));
    v.last_ts = to_double(field(line, "last_ts"));
    v.amends = field(line, "amends") == "true";
    v.final_pass = field(line, "final") == "true";
    v.kept = field(line, "disposition") == "\"kept\"";
    v.messages = to_u64(field(line, "messages"));
    v.compliant = to_u64(field(line, "compliant"));
    v.seen = seen;
    log.verdicts.push_back(v);
  }
}

/// Reads the daemon's JSONL stream to EOF, stamping each line with the
/// time its read() returned. Returns the EOF time.
Clock::time_point read_jsonl(int fd, VerdictLog& log) {
  std::vector<char> buf(std::size_t{1} << 16);
  std::string carry;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    const auto now = Clock::now();
    carry.append(buf.data(), static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = carry.find('\n', start)) != std::string::npos;
         start = nl + 1)
      parse_line(std::string_view(carry).substr(start, nl - start), now, log);
    carry.erase(0, start);
  }
  return Clock::now();
}

// ---- One phase on a fresh daemon ------------------------------------------

struct PhaseOutcome {
  PaceResult pace;
  VerdictLog log;
  Clock::time_point eof{};
  std::optional<CallAnalysis> final_report;
  std::vector<double> scrape_ms;
  std::uint64_t scrapes = 0;
  std::uint64_t scrape_failures = 0;
  double peak_mb = 0.0;
};

/// Starts a daemon (JSONL into a FIFO the bench reads), lets `send`
/// feed one ingest connection, scrapes /metrics at 10 Hz while it runs
/// if `scrape`, then drains the daemon.
PhaseOutcome run_daemon_phase(const ServiceParams& p,
                              const std::function<PaceResult(int)>& send,
                              bool scrape, const std::string& workdir,
                              Result& res) {
  PhaseOutcome out;
  const std::string sock = workdir + "/ingest.sock";
  const std::string fifo = workdir + "/verdicts.fifo";
  ::unlink(fifo.c_str());
  if (::mkfifo(fifo.c_str(), 0600) != 0) {
    res.fail("mkfifo " + fifo + ": " + std::strerror(errno));
    return out;
  }
  // Open the read side first (non-blocking, so it needs no writer yet);
  // the daemon's VerdictWriter then opens the write side in start().
  const int rfd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (rfd >= 0) ::fcntl(rfd, F_SETPIPE_SZ, 1 << 20);

  rtcc::service::DaemonOptions o;
  o.socket_path = sock;
  o.jsonl_path = fifo;
  o.epoch_s = p.epoch_s;
  o.poll_ms = 1;
  o.stream = stream_options(p);
  rtcc::service::Daemon daemon(o);
  std::string error;
  if (rfd < 0 || !daemon.start(&error)) {
    res.fail("daemon start: " + error);
    if (rfd >= 0) ::close(rfd);
    ::unlink(fifo.c_str());
    return out;
  }
  ::fcntl(rfd, F_SETFL, ::fcntl(rfd, F_GETFL) & ~O_NONBLOCK);

  std::thread runner([&] { daemon.run(); });
  std::thread reader([&] { out.eof = read_jsonl(rfd, out.log); });
  ++res.attempted;
  if (http_get(daemon.metrics_port(), "/healthz", 1000).status != 200)
    res.fail("daemon /healthz not 200");

  std::atomic<bool> scraping{scrape};
  std::thread scraper([&] {
    while (scraping.load()) {
      const auto at = Clock::now();
      const HttpReply r = http_get(daemon.metrics_port(), "/metrics", 1000);
      ++out.scrapes;
      if (r.status == 200) {
        out.scrape_ms.push_back(r.ms);
      } else {
        ++out.scrape_failures;
      }
      std::this_thread::sleep_until(at + std::chrono::milliseconds(100));
    }
  });

  const double rss_base = reset_peak_rss();
  const int cfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof addr.sun_path - 1);
  const bool connected =
      cfd >= 0 &&
      ::connect(cfd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  if (connected) {
    out.pace = send(cfd);
    if (!out.pace.ok) res.fail("ingest write failed");
  } else {
    res.fail("cannot connect to " + sock);
  }
  if (cfd >= 0) ::close(cfd);
  scraping.store(false);

  // Stop only once the daemon has counted the stream; an earlier stop
  // could end run() before it accepts the connection.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (connected && Clock::now() < deadline &&
         daemon.metrics().get("rtcc_service_socket_streams") +
                 daemon.metrics().get("rtcc_service_socket_failed") <
             1)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  daemon.request_stop();
  runner.join();
  reader.join();
  scraper.join();
  out.peak_mb = peak_rss_mb() - rss_base;
  ::close(rfd);
  ::unlink(fifo.c_str());
  out.final_report = daemon.final_report();
  return out;
}

/// Checks shared by the daemon phases and the traced in-process phase:
/// every frame decoded, verdict conservation, and the checked-in digest
/// where this seed has one.
void check_phase(const std::string& workload, const std::string& phase,
                 std::uint64_t frames, const VerdictLog& log,
                 const CallAnalysis& final_report, const Expected& expected,
                 Result& res) {
  res.attempted += frames;
  const std::uint64_t decoded = final_report.ingest.frames_decoded;
  if (decoded != frames)
    res.fail(phase + ": daemon decoded " + std::to_string(decoded) + " of " +
                 std::to_string(frames) + " frames",
             decoded < frames ? frames - decoded : 1);
  check_verdicts(log, final_report, frames, phase, res);
  const std::string sha =
      digest(rtcc::testkit::meta::compliance_signature(final_report, {}));
  if (expected.contradicts(workload, phase, frames, sha))
    res.fail(phase + ": signature differs from the expected digest");
}

/// Runs the generator self-check (up to three tries: the box is shared)
/// and notes its late p99; over kMaxLateMs at `hi` invalidates the run.
void checked_generator(const Schedule& s, const std::string& phase,
                       bool enforce, Result& res) {
  double late = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < 3 && late > kMaxLateMs; ++attempt) {
    const PaceResult r = self_check(s);
    if (r.ok) late = std::min(late, quantile(r.late_ms, 0.99));
  }
  res.note("gen.selfcheck_late_ms_p99." + phase, late);
  if (enforce && !(late <= kMaxLateMs)) {
    res.valid = false;
    res.errors.push_back("generator self-check late p99 " +
                         std::to_string(late) + " ms at " + phase);
  }
}

/// How late the generator ran and how long it sat blocked in write()
/// (the daemon's backpressure), per repetition; noted as medians.
struct GeneratorLog {
  std::vector<double> late_p99;
  std::vector<double> blocked;

  void add(const PaceResult& r) {
    if (!r.late_ms.empty()) late_p99.push_back(quantile(r.late_ms, 0.99));
    if (r.elapsed_s > 0)
      blocked.push_back(static_cast<double>(r.blocked_ns) / 1e9 / r.elapsed_s);
  }
  void note(const std::string& phase, Result& res) const {
    if (!late_p99.empty())
      res.note("gen.late_ms_p99." + phase, quantile(late_p99, 0.5));
    res.note("gen.blocked_share." + phase, quantile(blocked, 0.5));
  }
};

// ---- Traced run -------------------------------------------------------

/// The `lo` phase on in-process StreamingAnalyzers fed over a socketpair
/// by the same pacer, repeated as the untraced run repeats it; then the
/// batch layers on the same traffic written as a capture.
void traced_run(const RunConfig& cfg, const Inputs& in, Result& res) {
  const ServiceParams& p = in.params;
  const Schedule lo = in.schedule(p.lo_fps, kRepetitionS);
  checked_generator(lo, "lo", false, res);
  const Expected expected(cfg.expected_dir, cfg.seed);

  LayerTotals t;
  Tracer tracer;
  count_allocs(true);
  StreamPass pass;
  pass.fcfg = rtcc::service::keep_all_filter_config();
  pass.sopts = stream_options(p);
  pass.epoch_s = p.epoch_s;
  pass.jsonl_path = cfg.workdir + "/traced.jsonl";
  GeneratorLog gen;
  const auto start = Clock::now();
  for (int rep = 0; rep < 2 || seconds_between(start, Clock::now()) < 0.75 * cfg.seconds;
       ++rep) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      res.fail("socketpair failed");
      break;
    }
    PaceResult paced;
    std::thread pacer([&] {
      paced = pace(sv[0], lo);
      ::close(sv[0]);
    });
    const StreamPassResult sp = run_stream_pass(sv[1], pass, rep == 0, t, tracer);
    ::close(sv[1]);  // a pass that stopped early must not leave the pacer blocked
    pacer.join();
    gen.add(paced);
    if (!sp.ok) {
      res.fail("traced lo: " + sp.error);
      break;
    }
    check_phase(cfg.workload, "lo", lo.frames(), sp.log, sp.final_report,
                expected, res);
    const auto lat = verdict_latencies_ms(sp.log, paced.t0, p.idle_timeout_s);
    t.traced_latency_ms.insert(t.traced_latency_ms.end(), lat.begin(), lat.end());
  }
  gen.note("lo", res);

  // The batch layers on the first second of the same traffic (keep-
  // everything filter); the whole phase would not fit in memory as one
  // capture.
  const Bytes capture = lo.render_prefix(lo.frames_before(1.0));
  const std::string path = cfg.workdir + "/lo.pcap";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(capture.data()),
            static_cast<std::streamsize>(capture.size()));
  }
  const auto fcfg = rtcc::service::keep_all_filter_config();
  const ProductionRun run = run_production(path, fcfg);
  res.attempted += 3;
  if (!run.ok) {
    res.fail("lo capture: " + run.error);
  } else {
    t.production_analyze_ns += run.analyze_ns;
    t.production_frames += run.frames;
    if (run_decomposition(path, fcfg, 0, true, t, tracer) != run.signature)
      res.fail("lo capture: decomposition signature differs");
    if (run_streaming_reference(path, fcfg, t) != run.signature)
      res.fail("lo capture: analyze_pcap_streaming signature differs");
  }
  count_allocs(false);
  std::remove(path.c_str());
  t.render_us = measure_render_us(capture, cfg.workdir);
  emit_layer_metrics(t, res);
  if (!cfg.spans_path.empty() && !tracer.write(cfg.spans_path))
    res.fail("cannot write spans to " + cfg.spans_path);
}

}  // namespace

Result run_service(const RunConfig& cfg) {
  Result res;
  const Inputs in = make_inputs(cfg.workload, cfg.seed);
  if (cfg.trace) {
    traced_run(cfg, in, res);
    return res;
  }
  const ServiceParams& p = in.params;
  const double setup_s =
      median_setup_s({"--probe-daemon", "--workdir", cfg.workdir}, res);
  const Expected expected(cfg.expected_dir, cfg.seed);
  const Schedule lo = in.schedule(p.lo_fps, kRepetitionS);
  const Schedule hi = in.schedule(p.hi_fps, kRepetitionS);
  checked_generator(lo, "lo", false, res);
  checked_generator(hi, "hi", true, res);

  // What one phase's repetitions add up to. sat sends the hi schedule's
  // frames as fast as the socket accepts.
  struct Phase {
    Phase(std::string n, const Schedule& s, bool p)
        : name(std::move(n)), schedule(&s), paced(p) {}
    std::string name;
    const Schedule* schedule;
    bool paced;
    std::size_t reps = 0;
    double bytes = 0.0;
    double secs = 0.0;  // first write to last verdict line read
    std::vector<double> lat;
    std::vector<double> scrape_ms;
    std::vector<double> peak_mb;
    GeneratorLog gen;
  };
  Phase phases[] = {{"sat", hi, false}, {"lo", lo, true}, {"hi", hi, true}};

  // One repetition of a phase on a fresh daemon, checked; false if the
  // daemon gave no result.
  const auto run_once = [&](Phase& ph) {
    const Schedule& s = *ph.schedule;
    const PhaseOutcome o = run_daemon_phase(
        p, [&](int fd) { return ph.paced ? pace(fd, s) : blast(fd, s); },
        ph.paced, cfg.workdir, res);
    if (!o.final_report) {
      res.fail(ph.name + ": daemon produced no final report");
      return false;
    }
    check_phase(cfg.workload, ph.name, s.frames(), o.log, *o.final_report,
                expected, res);
    res.attempted += o.scrapes;
    if (o.scrape_failures > 0)
      res.fail(ph.name + ": " + std::to_string(o.scrape_failures) +
                   " /metrics scrapes not 200 within 1 s",
               o.scrape_failures);
    ph.bytes += static_cast<double>(o.pace.bytes);
    ph.secs += seconds_between(o.pace.t0, o.eof);
    if (ph.paced) {
      const auto l = verdict_latencies_ms(o.log, o.pace.t0, p.idle_timeout_s);
      ph.lat.insert(ph.lat.end(), l.begin(), l.end());
    }
    ph.scrape_ms.insert(ph.scrape_ms.end(), o.scrape_ms.begin(), o.scrape_ms.end());
    ph.peak_mb.push_back(o.peak_mb);
    ph.gen.add(o.pace);
    ++ph.reps;
    return true;
  };

  // Cycles of one repetition per phase, at least two, while time is
  // left. Interleaved, every phase samples the whole run rather than one
  // stretch of the shared host's weather. A repetition's fixed schedule
  // keeps its work the same: a daemon's flow records grow with every
  // flow it has seen.
  const auto start = Clock::now();
  for (int n = 0; n < 2 || seconds_between(start, Clock::now()) < cfg.seconds; ++n) {
    bool ok = true;
    for (Phase& ph : phases) ok = ok && run_once(ph);
    if (!ok) break;
  }

  double peak_mb = 0.0;  // the heaviest phase's median repetition
  for (const Phase& ph : phases) {
    res.note(ph.name + ".repetitions", static_cast<double>(ph.reps));
    if (ph.paced) {
      res.note(ph.name + ".offered_kfps",
               static_cast<double>(ph.schedule->frames()) / 1e3 / kRepetitionS);
      res.note(ph.name + ".verdicts_timed", static_cast<double>(ph.lat.size()));
      res.note(ph.name + ".verdict_ms_p50", quantile(ph.lat, 0.5));
      res.note(ph.name + ".verdict_ms_p90", quantile(ph.lat, 0.9));
      res.note(ph.name + ".scrape_ms_p90", quantile(ph.scrape_ms, 0.9));
    } else {
      res.note(ph.name + ".ingest_kfps",
               static_cast<double>(ph.reps * ph.schedule->frames()) / 1e3 /
                   ph.secs);
    }
    ph.gen.note(ph.name, res);
    if (!ph.peak_mb.empty()) peak_mb = std::max(peak_mb, quantile(ph.peak_mb, 0.5));
  }
  // Latency at lo: at hi the daemon is close enough to saturation on
  // this host that queueing multiplies the host's own noise.
  const Phase& sat = phases[0];
  const Phase& lo_phase = phases[1];
  res.metric("setup_s", setup_s, "s");
  res.metric("throughput_mb_s", sat.bytes / 1e6 / sat.secs, "MB/s");
  res.metric("latency_ms_p50", quantile(lo_phase.lat, 0.5), "ms");
  res.metric("latency_ms_p90", quantile(lo_phase.lat, 0.9), "ms");
  res.metric("peak_rss_mb", peak_mb, "MB");
  return res;
}

double probe_daemon(const std::string& workdir) {
  const std::string tag = std::to_string(::getpid());
  rtcc::service::DaemonOptions o;
  o.socket_path = workdir + "/setup-" + tag + ".sock";
  o.jsonl_path = workdir + "/setup-" + tag + ".jsonl";
  const auto t0 = Clock::now();
  double secs = -1.0;
  {
    rtcc::service::Daemon daemon(o);
    if (daemon.start() &&
        http_get(daemon.metrics_port(), "/healthz", 1000).status == 200)
      secs = seconds_between(t0, Clock::now());
  }
  std::remove(o.jsonl_path.c_str());
  return secs;
}

bool write_expected_service(const RunConfig& cfg, Expected& expected) {
  bool ok = true;
  for (const std::string workload : {"service-churn", "service-calls"}) {
    const Inputs in = make_inputs(workload, cfg.seed);
    const ServiceParams& p = in.params;
    const std::pair<std::string, Schedule> phases[] = {
        {"sat", in.schedule(p.hi_fps, kRepetitionS)},
        {"lo", in.schedule(p.lo_fps, kRepetitionS)},
        {"hi", in.schedule(p.hi_fps, kRepetitionS)}};
    for (const auto& [phase, s] : phases) {
      const std::string sig = reference_signature(s, p);
      ok = ok && !sig.empty();
      expected.record(workload, phase, s.frames(), digest(sig));
    }
  }
  return ok;
}

}  // namespace ledger
