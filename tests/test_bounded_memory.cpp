// Bounded memory for a long-running engine (stream/engine.hpp record
// life cycle, service/daemon.hpp contributions), checked by counts, not
// time. 200k three-packet churn flows with unique 5-tuples go through
// the engine under keep_all_filter_config(), where every verdict
// settles at its first emission: at every sink call the engine may hold
// only the live flows (<= max_flows) plus that epoch's verdicts (plus,
// when shard workers analyze, retired flows whose analysis has not yet
// been published), the merged result must still equal the batch
// analysis of the same frames, and the daemon must hold no per-ordinal
// contribution.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "proto/rtp/rtp.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "report/shard.hpp"
#include "service/daemon.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"

namespace {

namespace net = rtcc::net;
namespace report = rtcc::report;
namespace service = rtcc::service;
namespace stream = rtcc::stream;
namespace fs = std::filesystem;

constexpr std::uint32_t kFlows = 200000;
const stream::StreamOptions kBudgets{.max_flows = 8192, .idle_timeout_s = 0.5};
constexpr double kEpochS = 0.1;

std::string stripped_json(report::CallAnalysis a) {
  a.shards.clear();
  a.flows = {};
  return report::to_json(a);
}

/// Flow f starts at f * 20 us and sends 3 small RTP packets 10 ms apart
/// from its own source port: ~500 flows overlap at any instant, the
/// 8192-flow cap binds well before the 0.5 s idle timeout, and no flow
/// is split (its packets all arrive before it can be evicted).
net::Trace churn_trace() {
  struct Event {
    std::int64_t us;
    std::uint32_t flow;
    std::uint32_t packet;
  };
  std::vector<Event> events;
  events.reserve(std::size_t{kFlows} * 3);
  for (std::uint32_t f = 0; f < kFlows; ++f)
    for (std::uint32_t p = 0; p < 3; ++p)
      events.push_back({std::int64_t{f} * 20 + std::int64_t{p} * 10000, f, p});
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    return std::tie(x.us, x.flow) < std::tie(y.us, y.flow);
  });

  net::Trace trace;
  trace.reserve(events.size());
  for (const Event& e : events) {
    const auto rtp = rtcc::proto::rtp::PacketBuilder()
                         .payload_type(96)
                         .seq(static_cast<std::uint16_t>(e.packet))
                         .timestamp(e.packet * 960)
                         .ssrc(0x10000000u + e.flow)
                         .payload_fill(0xAB, 20)
                         .build();
    net::FrameSpec spec;
    const std::uint32_t host = e.flow / 60000;
    spec.src = net::IpAddr::v4(10, static_cast<std::uint8_t>(host >> 8),
                               static_cast<std::uint8_t>(host), 1);
    spec.src_port = static_cast<std::uint16_t>(1024 + e.flow % 60000);
    spec.dst = net::IpAddr::v4(203, 0, 113, 9);
    spec.dst_port = 5004;
    const auto frame = net::build_frame(spec, rtp);
    trace.add_frame(static_cast<double>(e.us) * 1e-6,
                    rtcc::util::BytesView(frame.data(), frame.size()));
  }
  return trace;
}

const net::Trace& shared_trace() {
  static const net::Trace trace = churn_trace();
  return trace;
}

const std::string& batch_reference() {
  static const std::string ref = [] {
    const stream::StreamModeGuard batch(false);
    return stripped_json(report::analyze_trace(
        shared_trace(), service::keep_all_filter_config()));
  }();
  return ref;
}

void run_engine(std::size_t shards) {
  const net::Trace& trace = shared_trace();
  report::AnalysisOptions opts;
  opts.shards = shards;
  stream::StreamingAnalyzer engine(trace.linktype(),
                                   service::keep_all_filter_config(), opts,
                                   kBudgets);

  std::uint64_t sink_calls = 0;
  std::uint64_t first_verdicts = 0;  // cumulative, amends == false
  std::size_t max_held = 0;
  engine.set_epoch(kEpochS, [&](const stream::EpochReport& ep) {
    ++sink_calls;
    for (const auto& v : ep.verdicts) {
      EXPECT_TRUE(v.settled) << "keep-all verdict " << v.ordinal;
      EXPECT_FALSE(v.amends);
      ++first_verdicts;
    }
    if (ep.final_pass) return;  // finish() holds every drained flow
    // Retired flows whose sharded analysis is not yet published wait
    // for a later epoch; unsharded, none ever waits.
    const std::uint64_t waiting =
        ep.flows.flows_seen - engine.live_flow_count() - first_verdicts;
    if (shards == 1) {
      EXPECT_EQ(waiting, 0u);
    }
    const std::size_t held = engine.held_records();
    max_held = std::max(max_held, held);
    EXPECT_LE(held, kBudgets.max_flows + ep.verdicts.size() + waiting)
        << "epoch " << ep.epoch << " holds more than live + emitted";
  });
  for (const auto& frame : trace.frames())
    engine.push_frame(trace.bytes(frame), frame.ts, frame.orig_len);
  const auto got = engine.finish();

  EXPECT_GT(sink_calls, 30u);
  EXPECT_EQ(first_verdicts, kFlows);
  EXPECT_EQ(got.flows.flows_seen, kFlows);
  EXPECT_EQ(got.flows.flows_rekeyed, 0u) << "a flow split: batch parity void";
  EXPECT_GT(got.flows.evictions, 0u) << "budgets never bound — test inert";
  // The bound is far below the flows seen: memory does not grow with
  // uptime.
  EXPECT_LT(max_held, kFlows / 10);
  EXPECT_EQ(stripped_json(got), batch_reference());
}

TEST(BoundedMemory, KeepAllChurnHoldsOnlyLiveFlowsAndOneEpochOfVerdicts) {
  run_engine(1);
}

TEST(BoundedMemory, ShardedKeepAllChurnFoldsOnlyPublishedPartials) {
  run_engine(4);
}

TEST(BoundedMemory, DaemonHoldsNoContributionUnderKeepAll) {
  const net::Trace& trace = shared_trace();
  std::string tmpl = fs::temp_directory_path() / "rtcc_bounded_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
  const std::string dir = tmpl;

  service::DaemonOptions opts;
  opts.socket_path = dir + "/ingest.sock";
  opts.jsonl_path = dir + "/verdicts.jsonl";
  opts.enable_metrics = false;
  opts.epoch_s = kEpochS;
  opts.poll_ms = 5;
  opts.stream = kBudgets;
  service::Daemon daemon(opts);
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;
  std::atomic<int> exit_code{-1};
  std::thread runner([&] { exit_code.store(daemon.run()); });

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opts.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0)
      << std::strerror(errno);
  const auto bytes = net::encode_pcap(trace);
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(5);
  while (daemon.metrics().get("rtcc_service_socket_streams") < 1.0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE(daemon.metrics().get("rtcc_service_socket_streams"), 1.0);
  // After the stream's closing epoch every retired flow is emitted,
  // settled and freed: only live flows remain held.
  EXPECT_LE(daemon.metrics().get("rtcc_flows_held"),
            static_cast<double>(kBudgets.max_flows));
  EXPECT_EQ(daemon.held_contributions(), 0u);

  daemon.request_stop();
  runner.join();
  EXPECT_EQ(exit_code.load(), 0);
  EXPECT_EQ(daemon.held_contributions(), 0u);
  EXPECT_EQ(daemon.metrics().get("rtcc_verdicts_amended"), 0.0);
  EXPECT_EQ(daemon.metrics().get("rtcc_verdicts_emitted"),
            static_cast<double>(kFlows));
  // The pcap reader adds the capture-layer ledger the in-memory batch
  // reference has no counterpart for (test_service pins that ledger).
  ASSERT_TRUE(daemon.final_report().has_value());
  report::CallAnalysis final_report = *daemon.final_report();
  final_report.ingest = shared_trace().ingest();
  EXPECT_EQ(stripped_json(final_report), batch_reference());
  fs::remove_all(dir);
}

}  // namespace
