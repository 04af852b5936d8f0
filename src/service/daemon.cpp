#include "service/daemon.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "proto/common.hpp"
#include "stream/chunk_reader.hpp"
#include "util/env_knob.hpp"

namespace rtcc::service {

namespace {

Daemon* g_signal_daemon = nullptr;

void handle_stop_signal(int /*signo*/) {
  if (g_signal_daemon != nullptr) g_signal_daemon->request_stop();
}

/// Prometheus label value for a protocol ("STUN/TURN" -> "stun_turn").
std::string proto_label(rtcc::proto::Protocol p) {
  std::string s = rtcc::proto::to_string(p);
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))) {
      c = '_';
    }
  }
  return s;
}

std::string series(const char* base, const std::string& label) {
  return std::string(base) + "{protocol=\"" + label + "\"}";
}

constexpr rtcc::proto::Protocol kAllProtocols[] = {
    rtcc::proto::Protocol::kStunTurn, rtcc::proto::Protocol::kRtp,
    rtcc::proto::Protocol::kRtcp, rtcc::proto::Protocol::kQuic};

/// Byte source over one accepted ingest connection. Blocking reads;
/// a stop request (SIGTERM arriving mid-read, no SA_RESTART) ends the
/// stream early so the drain is never held hostage by a stalled peer.
class FdChunkSource final : public rtcc::stream::ChunkSource {
 public:
  FdChunkSource(int fd, const std::atomic<bool>* stop)
      : fd_(fd), stop_(stop) {}

  std::size_t read(std::uint8_t* dst, std::size_t max) override {
    for (;;) {
      const ssize_t n = ::read(fd_, dst, max);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno != EINTR) return 0;
      if (stop_ != nullptr && stop_->load(std::memory_order_acquire)) return 0;
    }
  }

 private:
  int fd_;
  const std::atomic<bool>* stop_;
};

}  // namespace

rtcc::filter::FilterConfig keep_all_filter_config() {
  rtcc::filter::FilterConfig cfg;
  // Widen the call window to all representable capture time: stage 1
  // encloses every stream, nothing lands "outside the window", so the
  // stage-2 evidence sets (outside 3-tuples, pre-call pairs) stay
  // empty. Blocklist/devices/ports default empty too.
  cfg.schedule.capture_start = -1e18;
  cfg.schedule.call_start = -1e18;
  cfg.schedule.call_end = 1e18;
  cfg.schedule.capture_end = 1e18;
  cfg.schedule.slack = 0.0;
  return cfg;
}

double service_epoch_from_env() {
  return rtcc::util::env_knob_double("RTCC_SERVICE_EPOCH", 1.0, 0.0, 1e9);
}

Daemon::Daemon(DaemonOptions opts)
    : opts_(std::move(opts)),
      engine_(rtcc::net::kLinkEthernet, opts_.fcfg, opts_.analysis,
              opts_.stream),
      watch_(opts_.watch_dir) {}

Daemon::~Daemon() {
  if (exporter_) exporter_->stop();
  if (ingest_fd_ >= 0) {
    ::close(ingest_fd_);
    ::unlink(opts_.socket_path.c_str());
  }
  if (g_signal_daemon == this) g_signal_daemon = nullptr;
}

bool Daemon::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };

  writer_ = std::make_unique<VerdictWriter>(opts_.jsonl_path);
  if (!writer_->ok())
    return fail("cannot open verdict stream: " + opts_.jsonl_path);

  if (!opts_.socket_path.empty()) {
    sockaddr_un addr{};
    if (opts_.socket_path.size() >= sizeof addr.sun_path)
      return fail("ingest socket path too long: " + opts_.socket_path);
    ingest_fd_ =
        ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (ingest_fd_ < 0)
      return fail(std::string("ingest socket: ") + std::strerror(errno));
    ::unlink(opts_.socket_path.c_str());  // stale bind from a crash
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(ingest_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0)
      return fail("bind " + opts_.socket_path + ": " + std::strerror(errno));
    if (::listen(ingest_fd_, 8) != 0)
      return fail(std::string("listen: ") + std::strerror(errno));
  }

  if (opts_.enable_metrics) {
    exporter_ = std::make_unique<HttpExporter>(metrics_, [this] {
      return !draining_.load(std::memory_order_acquire);
    });
    std::string err;
    if (!exporter_->start(opts_.metrics_port, &err))
      return fail("metrics endpoint: " + err);
  }

  engine_.set_epoch(opts_.epoch_s, [this](const rtcc::stream::EpochReport& ep) {
    on_epoch(ep);
  });
  // Pre-seed the counter series so a scrape always sees the whole
  // service ledger, zeros included.
  for (const char* name :
       {"rtcc_service_files_processed", "rtcc_service_files_failed",
        "rtcc_service_socket_streams", "rtcc_service_socket_failed",
        "rtcc_service_epochs", "rtcc_service_jsonl_write_errors",
        "rtcc_verdicts_emitted", "rtcc_verdicts_amended"})
    metrics_.set(name, 0);
  publish_engine_metrics();
  return true;
}

int Daemon::run() {
  // Processed files whose rename failed (e.g. read-only folder): they
  // stay in the folder, and must never be re-ingested. A path leaves
  // the set once it is no longer offered (removed or rewritten), so the
  // set never outgrows the folder.
  std::set<std::string> unmarked;

  while (!stop_.load(std::memory_order_acquire)) {
    bool worked = false;
    if (!opts_.watch_dir.empty()) {
      const std::vector<std::string> ready = watch_.poll_stable();
      std::erase_if(unmarked, [&ready](const std::string& path) {
        return !std::binary_search(ready.begin(), ready.end(), path);
      });
      for (const auto& path : ready) {
        if (unmarked.count(path) > 0) continue;
        if (!process_file(path)) unmarked.insert(path);
        worked = true;
        if (stop_.load(std::memory_order_acquire)) break;
      }
    }
    if (ingest_fd_ >= 0 && poll_socket()) worked = true;
    if (!worked) {
      if (opts_.oneshot && !watch_.pending()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(opts_.poll_ms));
    }
  }

  // Drain: flag /healthz 503, close the final epoch through the sink,
  // publish the authoritative end-of-run ledger.
  draining_.store(true, std::memory_order_release);
  final_ = engine_.finish();
  publish_engine_metrics();
  for (const auto proto : kAllProtocols) {
    const std::string label = proto_label(proto);
    const auto it = final_->protocols.find(proto);
    const std::uint64_t messages = it == final_->protocols.end()
                                       ? 0
                                       : it->second.messages;
    const std::uint64_t compliant = it == final_->protocols.end()
                                        ? 0
                                        : it->second.compliant;
    metrics_.set(series("rtcc_compliance_messages", label),
                 static_cast<double>(messages));
    metrics_.set(series("rtcc_compliance_compliant", label),
                 static_cast<double>(compliant));
    if (messages > 0)
      metrics_.set(series("rtcc_compliance_rate", label),
                   static_cast<double>(compliant) /
                       static_cast<double>(messages));
  }
  metrics_.set("rtcc_service_draining", 1);
  if (writer_) writer_.reset();  // flush + close the JSONL stream
  if (exporter_) exporter_->stop();
  return 0;
}

bool Daemon::process_file(const std::string& path) {
  rtcc::stream::FileChunkSource src(path);
  std::string err;
  bool ok = src.ok();
  if (!ok) err = "cannot open";
  if (ok) ok = rtcc::stream::stream_pcap(src, engine_, opts_.stream.chunk_bytes,
                                         &err);
  engine_.finish_epoch();  // flush this capture's retired verdicts
  publish_engine_metrics();
  // Completion counters last: once a scrape sees the file counted, the
  // ledger it contributed to is already published.
  const bool marked = WatchDir::mark(path, ok ? ".done" : ".err");
  if (ok) {
    metrics_.add("rtcc_service_files_processed", 1);
  } else {
    std::fprintf(stderr, "rtccd: %s: %s\n", path.c_str(), err.c_str());
    metrics_.add("rtcc_service_files_failed", 1);
  }
  return marked;
}

bool Daemon::poll_socket() {
  const int client = ::accept(ingest_fd_, nullptr, nullptr);
  if (client < 0) return false;  // EAGAIN and friends: nothing waiting
  FdChunkSource src(client, &stop_);
  std::string err;
  const bool ok = rtcc::stream::stream_pcap(src, engine_,
                                            opts_.stream.chunk_bytes, &err);
  ::close(client);
  engine_.finish_epoch();
  publish_engine_metrics();
  if (ok) {
    metrics_.add("rtcc_service_socket_streams", 1);
  } else {
    std::fprintf(stderr, "rtccd: socket ingest: %s\n", err.c_str());
    metrics_.add("rtcc_service_socket_failed", 1);
  }
  return true;
}

void Daemon::on_epoch(const rtcc::stream::EpochReport& ep) {
  if (writer_) {
    writer_->write_epoch(ep);
    metrics_.set("rtcc_service_jsonl_write_errors",
                 static_cast<double>(writer_->write_errors()));
  }
  metrics_.add("rtcc_service_epochs", 1);
  for (const auto& v : ep.verdicts) {
    if (v.amends) {
      metrics_.add("rtcc_verdicts_amended", 1);
      // kept -> removed amendment: retract exactly what the earlier
      // kept verdict's attached analysis added to the running series.
      const auto it = contributions_.find(v.ordinal);
      if (it != contributions_.end()) {
        for (const auto& [label, mc] : it->second.by_proto) {
          metrics_.add(series("rtcc_compliance_messages", label),
                       -static_cast<double>(mc.first));
          metrics_.add(series("rtcc_compliance_compliant", label),
                       -static_cast<double>(mc.second));
        }
        contributions_.erase(it);
      }
    } else {
      metrics_.add("rtcc_verdicts_emitted", 1);
      if (v.partial != nullptr &&
          v.disposition == rtcc::filter::Disposition::kKept) {
        Contribution c;
        for (const auto& [proto, st] : v.partial->protocols) {
          const std::string label = proto_label(proto);
          c.by_proto[label] = {st.messages, st.compliant};
          metrics_.add(series("rtcc_compliance_messages", label),
                       static_cast<double>(st.messages));
          metrics_.add(series("rtcc_compliance_compliant", label),
                       static_cast<double>(st.compliant));
        }
        // A settled verdict is never amended: nothing to retract later.
        if (!v.settled) contributions_[v.ordinal] = std::move(c);
      }
    }
  }
  for (const auto proto : kAllProtocols) {
    const std::string label = proto_label(proto);
    const double messages = metrics_.get(series("rtcc_compliance_messages",
                                                label));
    if (messages > 0)
      metrics_.set(series("rtcc_compliance_rate", label),
                   metrics_.get(series("rtcc_compliance_compliant", label)) /
                       messages);
  }
}

void Daemon::publish_engine_metrics() {
  metrics_.set("rtcc_flows_live",
               static_cast<double>(engine_.live_flow_count()));
  metrics_.set("rtcc_flows_held",
               static_cast<double>(engine_.held_records()));
  const auto& fs = engine_.flow_stats();
  metrics_.set("rtcc_flows_seen", static_cast<double>(fs.flows_seen));
  metrics_.set("rtcc_flows_live_peak", static_cast<double>(fs.flows_live));
  metrics_.set("rtcc_flows_evicted", static_cast<double>(fs.evictions));
  metrics_.set("rtcc_flows_finalized", static_cast<double>(fs.finalized));
  metrics_.set("rtcc_flows_rekeyed", static_cast<double>(fs.flows_rekeyed));
  metrics_.set("rtcc_live_peak_bytes",
               static_cast<double>(fs.live_peak_bytes));

  const rtcc::net::IngestStats ing = engine_.ingest_totals();
  metrics_.set("rtcc_ingest_frames_seen",
               static_cast<double>(ing.frames_seen));
  metrics_.set("rtcc_ingest_torn_tail", static_cast<double>(ing.torn_tail));
  metrics_.set("rtcc_ingest_snaplen_clipped",
               static_cast<double>(ing.snaplen_clipped));
  metrics_.set("rtcc_ingest_bad_usec", static_cast<double>(ing.bad_usec));
  metrics_.set("rtcc_ingest_frames_decoded",
               static_cast<double>(ing.frames_decoded));
  metrics_.set("rtcc_ingest_vlan_stripped",
               static_cast<double>(ing.vlan_stripped));
  metrics_.set("rtcc_ingest_fragments_seen",
               static_cast<double>(ing.fragments_seen));
  metrics_.set("rtcc_ingest_fragments_reassembled",
               static_cast<double>(ing.fragments_reassembled));
  metrics_.set("rtcc_ingest_fragments_expired",
               static_cast<double>(ing.fragments_expired));
  metrics_.set("rtcc_ingest_non_ip", static_cast<double>(ing.non_ip));
  metrics_.set("rtcc_ingest_clipped_undecodable",
               static_cast<double>(ing.clipped_undecodable));
  metrics_.set("rtcc_ingest_undecodable",
               static_cast<double>(ing.undecodable));
  metrics_.set("rtcc_ingest_unsupported_linktype",
               static_cast<double>(ing.unsupported_linktype));
}

void Daemon::install_signal_handlers(Daemon* daemon) {
  g_signal_daemon = daemon;
  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocking ingest reads must wake
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  // A JSONL consumer that goes away (a FIFO or pipe reader exiting)
  // must not kill the daemon: writes then fail with EPIPE, which the
  // writer counts, and ingest carries on.
  struct sigaction ignore {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGPIPE, &ignore, nullptr);
}

}  // namespace rtcc::service
