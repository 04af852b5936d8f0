// End-to-end rtccd service tests (service/daemon.hpp): a real daemon
// over a temp watch folder and a unix ingest socket, with the batch
// pipeline over the same bytes as the equivalence oracle. Under test:
//   * watch-dir ingest: the drop file is processed, renamed .done, and
//     the merged final report is byte-identical (modulo shard/flow
//     diagnostics) to read_pcap + analyze_trace on the same file;
//   * the JSONL verdict stream reconciles with the batch report —
//     exactly-once ordinals, frame conservation, kept-UDP and message
//     totals;
//   * /metrics serves the engine's ingest ledger (equal to the batch
//     ledger) and /healthz flips 200 -> 503 on drain;
//   * SIGTERM through the real handler drains with exit code 0;
//   * socket ingest feeds the same engine (one connection = one pcap);
//   * a JSONL reader that goes away costs counted write errors, not the
//     daemon (SIGPIPE ignored, ingest carries on, clean drain);
//   * the exporter outlasts a silent scraper and one that hangs up
//     mid-response;
//   * RTCC_SERVICE_EPOCH knob parses strictly with fallback.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "emul/group_call.hpp"
#include "net/pcap.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "service/daemon.hpp"
#include "service/http_exporter.hpp"

namespace {

namespace emul = rtcc::emul;
namespace net = rtcc::net;
namespace report = rtcc::report;
namespace service = rtcc::service;
namespace fs = std::filesystem;

std::string stripped_json(report::CallAnalysis a) {
  a.shards.clear();
  a.flows = {};
  return report::to_json(a);
}

emul::GroupCall fixture_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 6;
  cfg.call_s = 30.0;
  cfg.media_scale = 0.02;
  return emul::emulate_group_call(cfg);
}

std::string make_temp_dir() {
  std::string tmpl = fs::temp_directory_path() / "rtcc_service_XXXXXX";
  char* dir = ::mkdtemp(tmpl.data());
  return dir == nullptr ? std::string() : std::string(dir);
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 30000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// TCP connection to the exporter on loopback; -1 on failure.
int connect_exporter(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking HTTP/1.0 GET against the exporter; returns the full
/// response (status line + headers + body), empty on connect failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = connect_exporter(port);
  if (fd < 0) return {};
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, req.data(), req.size());
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

/// Value of an exact series name in a Prometheus exposition body.
std::optional<double> metric_value(const std::string& body,
                                   const std::string& name) {
  const std::string anchor = "\n" + name + " ";
  const auto pos = body.find(anchor);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(body.c_str() + pos + anchor.size(), nullptr);
}

// Line-local JSONL field extractors (the writer emits flat objects).
std::optional<double> json_num(const std::string& line,
                               const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  if (pos == std::string::npos) return std::nullopt;
  return std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
}

std::optional<std::string> json_str(const std::string& line,
                                    const std::string& key) {
  const std::string anchor = "\"" + key + "\":\"";
  const auto pos = line.find(anchor);
  if (pos == std::string::npos) return std::nullopt;
  const auto end = line.find('"', pos + anchor.size());
  if (end == std::string::npos) return std::nullopt;
  return line.substr(pos + anchor.size(), end - pos - anchor.size());
}

struct JsonlSummary {
  std::uint64_t epoch_lines = 0;
  std::uint64_t frames = 0;  // sum over epoch lines
  std::uint64_t bytes = 0;
  bool saw_final_epoch = false;
  std::map<std::uint64_t, std::string> last_disposition;  // ordinal -> last
  std::map<std::uint64_t, std::string> transport;
  std::map<std::uint64_t, std::uint64_t> messages;  // from kept verdicts
  std::map<std::uint64_t, std::uint64_t> first_emissions;  // amends==false
};

JsonlSummary read_jsonl(const std::string& path) {
  JsonlSummary s;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto type = json_str(line, "type");
    if (!type) continue;
    if (*type == "epoch") {
      ++s.epoch_lines;
      s.frames += static_cast<std::uint64_t>(json_num(line, "frames").value());
      s.bytes += static_cast<std::uint64_t>(json_num(line, "bytes").value());
      if (line.find("\"final\":true") != std::string::npos)
        s.saw_final_epoch = true;
    } else if (*type == "verdict") {
      const auto ordinal =
          static_cast<std::uint64_t>(json_num(line, "ordinal").value());
      s.last_disposition[ordinal] = json_str(line, "disposition").value();
      s.transport[ordinal] = json_str(line, "transport").value();
      if (line.find("\"amends\":false") != std::string::npos)
        ++s.first_emissions[ordinal];
      if (const auto m = json_num(line, "messages"))
        s.messages[ordinal] = static_cast<std::uint64_t>(*m);
      else if (s.last_disposition[ordinal] != "kept")
        s.messages.erase(ordinal);  // amendment overturned the kept verdict
    }
  }
  return s;
}

TEST(Service, WatchDirReconcilesWithBatchServesMetricsAndDrainsOnSigterm) {
  const auto call = fixture_call();
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  const std::string pcap = dir + "/capture.pcap";
  std::string err;
  ASSERT_TRUE(net::write_pcap(pcap, call.trace, &err)) << err;

  // Batch oracle over the very same bytes (same capture-layer ledger).
  const auto trace = net::read_pcap(pcap, &err);
  ASSERT_TRUE(trace.has_value()) << err;
  const auto batch =
      report::analyze_trace(*trace, emul::group_filter_config(call));

  service::DaemonOptions opts;
  opts.watch_dir = dir;
  opts.jsonl_path = dir + "/verdicts.jsonl";
  opts.epoch_s = 0.5;  // capture-clock seconds: many epochs over 150 s
  opts.poll_ms = 5;
  opts.fcfg = emul::group_filter_config(call);
  service::Daemon daemon(opts);
  service::Daemon::install_signal_handlers(&daemon);
  ASSERT_TRUE(daemon.start(&err)) << err;
  ASSERT_NE(daemon.metrics_port(), 0);

  std::atomic<int> exit_code{-1};
  std::thread runner([&] { exit_code.store(daemon.run()); });

  ASSERT_TRUE(wait_until([&] {
    return daemon.metrics().get("rtcc_service_files_processed") >= 1.0;
  })) << "daemon never processed the drop file";
  EXPECT_TRUE(fs::exists(pcap + ".done"));
  EXPECT_FALSE(fs::exists(pcap));

  // Live endpoints: /healthz is up, /metrics serves the ingest ledger
  // and it matches the batch pipeline's ledger over the same file.
  EXPECT_NE(http_get(daemon.metrics_port(), "/healthz").find("200 OK"),
            std::string::npos);
  const std::string body = http_get(daemon.metrics_port(), "/metrics");
  const auto expect_metric = [&](const std::string& name, double want) {
    const auto got = metric_value(body, name);
    ASSERT_TRUE(got.has_value()) << name << " missing from /metrics";
    EXPECT_EQ(*got, want) << name;
  };
  expect_metric("rtcc_ingest_frames_seen",
                static_cast<double>(batch.ingest.frames_seen));
  expect_metric("rtcc_ingest_frames_decoded",
                static_cast<double>(batch.ingest.frames_decoded));
  expect_metric("rtcc_ingest_torn_tail",
                static_cast<double>(batch.ingest.torn_tail));
  expect_metric("rtcc_ingest_non_ip", static_cast<double>(batch.ingest.non_ip));
  expect_metric("rtcc_service_files_processed", 1.0);
  expect_metric("rtcc_service_files_failed", 0.0);
  EXPECT_GT(metric_value(body, "rtcc_service_epochs").value_or(0), 1.0);
  EXPECT_GT(metric_value(body, "rtcc_flows_seen").value_or(0), 0.0);

  // SIGTERM through the installed handler: drain, exit 0, 503 while
  // the registry stays queryable in-process after shutdown.
  ASSERT_EQ(std::raise(SIGTERM), 0);
  runner.join();
  EXPECT_EQ(exit_code.load(), 0);

  // The drained engine's merged report is the batch report (shard/flow
  // diagnostics aside).
  ASSERT_TRUE(daemon.final_report().has_value());
  EXPECT_EQ(stripped_json(*daemon.final_report()), stripped_json(batch));

  // JSONL reconciliation: exactly-once ordinals, frame/byte
  // conservation, kept-UDP stream count and message totals all equal
  // the batch report's.
  const auto jsonl = read_jsonl(opts.jsonl_path);
  EXPECT_TRUE(jsonl.saw_final_epoch);
  EXPECT_GT(jsonl.epoch_lines, 1u);
  EXPECT_EQ(jsonl.frames, batch.ingest.frames_seen);
  EXPECT_EQ(jsonl.last_disposition.size(), jsonl.first_emissions.size());
  for (const auto& [ordinal, count] : jsonl.first_emissions)
    EXPECT_EQ(count, 1u) << "ordinal " << ordinal
                         << " emitted amends=false more than once";
  std::size_t kept_udp = 0;
  std::uint64_t messages = 0;
  for (const auto& [ordinal, disposition] : jsonl.last_disposition) {
    if (disposition != "kept") continue;
    if (jsonl.transport.at(ordinal) == "udp") ++kept_udp;
    const auto it = jsonl.messages.find(ordinal);
    if (it != jsonl.messages.end()) messages += it->second;
  }
  EXPECT_EQ(kept_udp, batch.rtc_udp.streams);
  EXPECT_EQ(messages, batch.total_messages());

  // Final compliance series on /metrics match the merged report.
  for (const auto& [proto, stats] : batch.protocols) {
    std::string label = rtcc::proto::to_string(proto);
    for (char& c : label) {
      if (c >= 'A' && c <= 'Z')
        c = static_cast<char>(c - 'A' + 'a');
      else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')))
        c = '_';
    }
    EXPECT_EQ(daemon.metrics().get("rtcc_compliance_messages{protocol=\"" +
                                   label + "\"}"),
              static_cast<double>(stats.messages))
        << label;
    EXPECT_EQ(daemon.metrics().get("rtcc_compliance_compliant{protocol=\"" +
                                   label + "\"}"),
              static_cast<double>(stats.compliant))
        << label;
  }

  fs::remove_all(dir);
}

TEST(Service, SocketIngestFeedsTheSameEngineAndDrainsClean) {
  const auto call = fixture_call();
  const auto bytes = net::encode_pcap(call.trace);
  const auto trace = net::decode_pcap(rtcc::util::BytesView(bytes));
  ASSERT_TRUE(trace.has_value());
  const auto batch =
      report::analyze_trace(*trace, emul::group_filter_config(call));

  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  service::DaemonOptions opts;
  opts.socket_path = dir + "/ingest.sock";
  opts.jsonl_path = dir + "/verdicts.jsonl";
  opts.enable_metrics = false;
  opts.epoch_s = 0.0;  // per-capture epochs only
  opts.poll_ms = 5;
  opts.fcfg = emul::group_filter_config(call);
  service::Daemon daemon(opts);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;

  std::atomic<int> exit_code{-1};
  std::thread runner([&] { exit_code.store(daemon.run()); });

  // One connection = one pcap byte stream.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opts.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);

  ASSERT_TRUE(wait_until([&] {
    return daemon.metrics().get("rtcc_service_socket_streams") >= 1.0;
  })) << "daemon never ingested the socket stream";

  daemon.request_stop();
  runner.join();
  EXPECT_EQ(exit_code.load(), 0);
  ASSERT_TRUE(daemon.final_report().has_value());
  EXPECT_EQ(stripped_json(*daemon.final_report()), stripped_json(batch));

  // epoch_s = 0: one epoch per capture plus the final pass.
  const auto jsonl = read_jsonl(opts.jsonl_path);
  EXPECT_EQ(jsonl.epoch_lines, 2u);
  EXPECT_TRUE(jsonl.saw_final_epoch);
  EXPECT_EQ(jsonl.frames, batch.ingest.frames_seen);

  fs::remove_all(dir);
}

TEST(Service, OneshotOnEmptyFolderDrainsImmediately) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  service::DaemonOptions opts;
  opts.watch_dir = dir;
  opts.jsonl_path = dir + "/verdicts.jsonl";
  opts.enable_metrics = false;
  opts.oneshot = true;
  service::Daemon daemon(opts);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;
  EXPECT_EQ(daemon.run(), 0);
  ASSERT_TRUE(daemon.final_report().has_value());
  EXPECT_EQ(daemon.final_report()->ingest.frames_seen, 0u);
  const auto jsonl = read_jsonl(opts.jsonl_path);
  EXPECT_EQ(jsonl.epoch_lines, 1u);  // the final pass always closes
  EXPECT_TRUE(jsonl.saw_final_epoch);
  fs::remove_all(dir);
}

// A JSONL consumer that goes away must not take the daemon with it:
// the FIFO reader below reads one line and closes, every later write
// fails with EPIPE, and the daemon — with the same signal setup rtccd
// installs — still ingests the drop file and drains with exit 0,
// counting the failed writes. Without SIGPIPE ignored the child dies
// with signal 13 (shell exit 141). Runs the daemon in a forked child so
// the signal disposition cannot leak into the rest of the suite.
TEST(Service, VerdictReaderThatGoesAwayCostsWriteErrorsNotTheDaemon) {
  const auto call = fixture_call();
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  std::string err;
  ASSERT_TRUE(net::write_pcap(dir + "/capture.pcap", call.trace, &err)) << err;
  const std::string fifo = dir + "/verdicts.fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  int result[2];
  ASSERT_EQ(::pipe(result), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    ::close(result[0]);
    service::DaemonOptions opts;
    opts.watch_dir = dir;
    opts.jsonl_path = fifo;  // blocks until the parent opens the reader
    opts.enable_metrics = false;
    opts.oneshot = true;
    opts.epoch_s = 0.1;  // ~1500 epoch lines: far more than a pipe buffer
    opts.poll_ms = 5;
    opts.fcfg = emul::group_filter_config(call);
    // The child of a multi-threaded process (earlier batch analyses
    // leave the shared pool's workers running) must not start threads
    // of its own: width 1 keeps the daemon on this one thread.
    opts.analysis.shards = 1;
    service::Daemon daemon(opts);
    service::Daemon::install_signal_handlers(&daemon);
    if (!daemon.start()) ::_exit(2);
    const int code = daemon.run();
    const double errors =
        daemon.metrics().get("rtcc_service_jsonl_write_errors");
    (void)!::write(result[1], &errors, sizeof errors);
    ::_exit(code);
  }
  ::close(result[1]);

  const int reader = ::open(fifo.c_str(), O_RDONLY);
  ASSERT_GE(reader, 0) << std::strerror(errno);
  char line[256];
  EXPECT_GT(::read(reader, line, sizeof line), 0);
  ::close(reader);  // the consumer goes away mid-run

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_FALSE(WIFSIGNALED(status))
      << "rtccd killed by signal " << WTERMSIG(status);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  double errors = 0;
  EXPECT_EQ(::read(result[0], &errors, sizeof errors),
            static_cast<ssize_t>(sizeof errors));
  ::close(result[0]);
  EXPECT_GT(errors, 0.0);
  // Ingest carried on past the failed writes.
  EXPECT_TRUE(fs::exists(dir + "/capture.pcap.done"));
  fs::remove_all(dir);
}

TEST(Service, ExporterOutlastsASilentScraper) {
  using namespace std::chrono_literals;
  service::MetricsRegistry registry;
  service::HttpExporter exporter(registry, [] { return true; });
  std::string err;
  ASSERT_TRUE(exporter.start(0, &err)) << err;

  // A scraper that connects and never sends holds the serving thread
  // for at most the client deadline; the next scrape is still answered.
  const int silent = connect_exporter(exporter.port());
  ASSERT_GE(silent, 0);
  const std::string health = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.0 200", 0), 0u) << health;

  // stop() while the thread waits on another silent scraper.
  const int stalled = connect_exporter(exporter.port());
  ASSERT_GE(stalled, 0);
  std::this_thread::sleep_for(100ms);
  const auto t0 = std::chrono::steady_clock::now();
  exporter.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 2s);
  ::close(silent);
  ::close(stalled);
}

TEST(Service, ExporterSurvivesAScraperThatHangsUp) {
  // An exposition of several MB takes the exporter more than one send,
  // so it is still sending when the closed scraper's kernel answers
  // with a reset — the write after that raises SIGPIPE unless the
  // exporter suppresses it.
  service::MetricsRegistry registry;
  for (int i = 0; i < 100000; ++i)
    registry.set("rtcc_test_series_" + std::to_string(i), i);
  service::HttpExporter exporter(registry, [] { return true; });
  std::string err;
  ASSERT_TRUE(exporter.start(0, &err)) << err;

  for (int round = 0; round < 3; ++round) {
    const int fd = connect_exporter(exporter.port());
    ASSERT_GE(fd, 0);
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    ::close(fd);  // hang up at once, before any of the response
  }
  // The process survived every hang-up and the exporter still answers.
  const std::string health = http_get(exporter.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.0 200", 0), 0u) << health;
  exporter.stop();
}

TEST(Service, ServiceEpochKnobParsesStrictlyWithFallback) {
  ::setenv("RTCC_SERVICE_EPOCH", "2.5", 1);
  EXPECT_EQ(service::service_epoch_from_env(), 2.5);
  ::setenv("RTCC_SERVICE_EPOCH", "0", 1);
  EXPECT_EQ(service::service_epoch_from_env(), 0.0);
  ::setenv("RTCC_SERVICE_EPOCH", "bogus", 1);
  EXPECT_EQ(service::service_epoch_from_env(), 1.0);
  ::setenv("RTCC_SERVICE_EPOCH", "-3", 1);
  EXPECT_EQ(service::service_epoch_from_env(), 1.0);
  ::unsetenv("RTCC_SERVICE_EPOCH");
  EXPECT_EQ(service::service_epoch_from_env(), 1.0);
}

}  // namespace
