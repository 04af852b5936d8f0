// stream/chunk_reader.hpp: the fixed-window pcap walk feeding the
// streaming engine. Under test: byte-identity with the batch path
// (decode_pcap + analyze_trace) at read granularities down to a single
// byte, record headers straddling refill boundaries, truncated tails
// (mid-payload, mid-record-header, shorter than the global header),
// and the tentpole's memory claim — a capture whose flows come and go
// over time streams in O(active flows) space, asserted as a >= 10x
// capture-bytes : peak-live-bytes ratio.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "emul/app_model.hpp"
#include "emul/group_call.hpp"
#include "filter/pipeline.hpp"
#include "net/address.hpp"
#include "net/headers.hpp"
#include "net/pcap.hpp"
#include "report/json_export.hpp"
#include "report/metrics.hpp"
#include "stream/chunk_reader.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace {

namespace emul = rtcc::emul;
namespace net = rtcc::net;
namespace report = rtcc::report;
namespace stream = rtcc::stream;
using rtcc::util::Bytes;
using rtcc::util::BytesView;

/// Execution-mode-invariant report slice.
std::string stripped_json(report::CallAnalysis a) {
  a.shards.clear();
  a.flows = {};
  return report::to_json(a);
}

/// Batch reference over raw pcap bytes (streaming pinned off so the
/// reference stays batch even under an ambient RTCC_STREAM=1 run).
std::string batch_json(BytesView pcap, const rtcc::filter::FilterConfig& fcfg) {
  const stream::StreamModeGuard off(false);
  const auto trace = net::decode_pcap(pcap);
  EXPECT_TRUE(trace.has_value());
  if (!trace) return {};
  return stripped_json(report::analyze_trace(*trace, fcfg));
}

/// Streams `pcap` through the engine at `chunk` read granularity.
report::CallAnalysis stream_at(BytesView pcap,
                               const rtcc::filter::FilterConfig& fcfg,
                               std::size_t chunk,
                               const stream::StreamOptions& sopts = {},
                               const report::AnalysisOptions& opts = {}) {
  stream::MemoryChunkSource source(pcap);
  stream::StreamingAnalyzer engine(net::kLinkEthernet, fcfg, opts, sopts);
  std::string error;
  EXPECT_TRUE(stream::stream_pcap(source, engine, chunk, &error)) << error;
  return engine.finish();
}

emul::GroupCall small_call() {
  emul::GroupCallConfig cfg;
  cfg.participants = 3;
  cfg.call_s = 20.0;
  cfg.media_scale = 0.01;
  return emul::emulate_group_call(cfg);
}

TEST(ChunkReader, ByteIdenticalToBatchAcrossChunkSizes) {
  const auto call = small_call();
  const auto fcfg = emul::group_filter_config(call);
  const Bytes pcap = net::encode_pcap(call.trace);
  const auto ref = batch_json(BytesView{pcap}, fcfg);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{64},
                                  std::size_t{4096}, std::size_t{1} << 20}) {
    const auto got = stream_at(BytesView{pcap}, fcfg, chunk);
    EXPECT_EQ(stripped_json(got), ref) << "chunk=" << chunk;
    EXPECT_EQ(got.flows.flows_rekeyed, 0u);
  }
}

TEST(ChunkReader, RecordHeadersStraddlingRefillBoundaries) {
  // Granularities that cannot hold the 24-byte global header or the
  // 16-byte record header in one read: every header parse crosses at
  // least one compact-and-refill.
  const auto call = small_call();
  const auto fcfg = emul::group_filter_config(call);
  const Bytes pcap = net::encode_pcap(call.trace);
  const auto ref = batch_json(BytesView{pcap}, fcfg);

  for (const std::size_t chunk :
       {std::size_t{5}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{23}}) {
    EXPECT_EQ(stripped_json(stream_at(BytesView{pcap}, fcfg, chunk)), ref)
        << "chunk=" << chunk;
  }
}

TEST(ChunkReader, TruncatedTailMatchesBatchAndCountsTornTail) {
  const auto call = small_call();
  const auto fcfg = emul::group_filter_config(call);
  const Bytes pcap = net::encode_pcap(call.trace);
  ASSERT_GT(pcap.size(), 200u);

  // (a) cut mid-payload of the final record; (b) leave a partial record
  // header (24 + k*record < cut < that + 16 is hard to hit exactly, so
  // cut 8 bytes into what follows a record boundary found by walking).
  std::vector<std::size_t> cuts;
  cuts.push_back(pcap.size() - 3);  // mid-payload
  // Walk record offsets to find the last record's header start, then
  // cut 8 bytes into that header.
  std::size_t off = 24, last_header = 24;
  while (off + 16 <= pcap.size()) {
    last_header = off;
    const std::uint32_t incl = static_cast<std::uint32_t>(pcap[off + 8]) |
                               (static_cast<std::uint32_t>(pcap[off + 9]) << 8) |
                               (static_cast<std::uint32_t>(pcap[off + 10]) << 16) |
                               (static_cast<std::uint32_t>(pcap[off + 11]) << 24);
    off += 16 + incl;
  }
  cuts.push_back(last_header + 8);  // mid-record-header

  for (const std::size_t cut : cuts) {
    const BytesView torn{pcap.data(), cut};
    const auto ref = batch_json(torn, fcfg);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{4096}}) {
      const auto got = stream_at(torn, fcfg, chunk);
      EXPECT_EQ(stripped_json(got), ref) << "cut=" << cut << " chunk=" << chunk;
      EXPECT_EQ(got.ingest.torn_tail, 1u) << "cut=" << cut;
    }
  }
}

// Regression (knob hardening): chunk_bytes = 0 — reachable before the
// RTCC_STREAM_CHUNK floor via a directly-constructed StreamOptions —
// must clamp to a 1-byte read granule, not divide by zero or spin on
// zero-length reads. The result must be byte-identical to any other
// granularity.
TEST(ChunkReader, ChunkZeroClampsToOneByteGranuleAndTerminates) {
  const auto call = small_call();
  const auto fcfg = emul::group_filter_config(call);
  const Bytes pcap = net::encode_pcap(call.trace);
  const auto ref = batch_json(BytesView{pcap}, fcfg);
  EXPECT_EQ(stripped_json(stream_at(BytesView{pcap}, fcfg, /*chunk=*/0)), ref);
}

// A zero-byte source (empty drop-file, socket that closed before the
// global header) must fail soft with the short-header error at every
// granularity — including the clamped 0.
TEST(ChunkReader, ZeroByteSourceFailsSoftAtAnyChunk) {
  const rtcc::filter::FilterConfig fcfg;
  const Bytes empty;
  for (const std::size_t chunk :
       {std::size_t{0}, std::size_t{1}, std::size_t{4096}}) {
    stream::MemoryChunkSource source(BytesView{empty});
    stream::StreamingAnalyzer engine(net::kLinkEthernet, fcfg);
    std::string error;
    EXPECT_FALSE(stream::stream_pcap(source, engine, chunk, &error))
        << "chunk=" << chunk;
    EXPECT_NE(error.find("shorter than global header"), std::string::npos)
        << error;
  }
}

// The checked-in real-world fixtures (linktype dispatch, VLAN, SLL,
// nanosecond magic, fragmentation) streamed at the two degenerate
// granularities must match the whole-file batch walk exactly.
TEST(ChunkReader, FixturesAtChunkZeroAndOneMatchBatch) {
  const rtcc::filter::FilterConfig fcfg;
  for (const char* name :
       {"kitchen_sink.pcap", "ns_magic.pcap", "sll.pcap", "vlan.pcap"}) {
    const std::string path =
        std::string(RTCC_TEST_SOURCE_DIR) + "/fixtures/" + name;
    const stream::StreamModeGuard off(false);
    std::string error;
    const auto trace = net::read_pcap(path, &error);
    ASSERT_TRUE(trace.has_value()) << name << ": " << error;
    const auto ref = stripped_json(report::analyze_trace(*trace, fcfg));
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}}) {
      stream::StreamOptions sopts;
      sopts.chunk_bytes = chunk;
      const auto got =
          stream::analyze_pcap_streaming(path, fcfg, {}, sopts, &error);
      ASSERT_TRUE(got.has_value()) << name << " chunk=" << chunk << ": "
                                   << error;
      EXPECT_EQ(stripped_json(*got), ref) << name << " chunk=" << chunk;
    }
  }
}

TEST(ChunkReader, RejectsFilesShorterThanGlobalHeader) {
  const rtcc::filter::FilterConfig fcfg;
  const Bytes tiny(10, 0x00);
  stream::MemoryChunkSource source(BytesView{tiny});
  stream::StreamingAnalyzer engine(net::kLinkEthernet, fcfg);
  std::string error;
  EXPECT_FALSE(stream::stream_pcap(source, engine, 4096, &error));
  EXPECT_NE(error.find("shorter than global header"), std::string::npos)
      << error;

  const Bytes bad_magic(64, 0xEE);
  stream::MemoryChunkSource source2(BytesView{bad_magic});
  stream::StreamingAnalyzer engine2(net::kLinkEthernet, fcfg);
  EXPECT_FALSE(stream::stream_pcap(source2, engine2, 4096, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(ChunkReader, FileSourceMatchesMemorySource) {
  const auto call = small_call();
  const auto fcfg = emul::group_filter_config(call);
  const Bytes pcap = net::encode_pcap(call.trace);
  const auto ref = batch_json(BytesView{pcap}, fcfg);

  const auto path = std::filesystem::path(::testing::TempDir()) /
                    "rtcc_chunk_reader_roundtrip.pcap";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(pcap.data()),
              static_cast<std::streamsize>(pcap.size()));
  }
  std::string error;
  stream::StreamOptions sopts;
  sopts.chunk_bytes = 1 << 12;
  const auto got =
      stream::analyze_pcap_streaming(path.string(), fcfg, {}, sopts, &error);
  ASSERT_TRUE(got.has_value()) << error;
  EXPECT_EQ(stripped_json(*got), ref);
  std::filesystem::remove(path);
}

// ---- The tentpole's memory claim ----------------------------------------

/// Capture with `flows` sequential UDP flows, each active only inside
/// its own one-second slice: the batch path holds all payload bytes at
/// once, the streaming path only ever one slice's worth (plus the
/// reader window) once idle expiry retires finished flows.
net::Trace sequential_flow_trace(std::size_t flows, std::size_t packets,
                                 std::size_t payload_bytes) {
  net::Trace trace;
  rtcc::util::Rng rng(4242);
  for (std::size_t f = 0; f < flows; ++f) {
    net::FrameSpec spec;
    spec.src = net::IpAddr::v4(10, 0, 0, 1);
    spec.dst = net::IpAddr::v4(203, 0, 113, 9);
    spec.src_port = static_cast<std::uint16_t>(40000 + f);
    spec.dst_port = static_cast<std::uint16_t>(20000 + f);
    for (std::size_t p = 0; p < packets; ++p) {
      const Bytes payload = rng.bytes(payload_bytes);
      const double ts = 10.0 + static_cast<double>(f) +
                        static_cast<double>(p) / (2.0 * packets);
      trace.add_frame(ts, BytesView{net::build_frame(spec, BytesView{payload})});
    }
  }
  return trace;
}

TEST(ChunkReader, StreamsInSmallFractionOfCaptureSize) {
  const net::Trace trace =
      sequential_flow_trace(/*flows=*/60, /*packets=*/30, /*payload_bytes=*/400);
  const Bytes pcap = net::encode_pcap(trace);

  // Keep-all window so every flow's payload is genuinely buffered until
  // idle expiry — a condemned flow drops its payload immediately, which
  // would make the bound trivial.
  rtcc::filter::FilterConfig fcfg;
  fcfg.schedule.capture_start = 0.0;
  fcfg.schedule.call_start = 0.0;
  fcfg.schedule.call_end = 1e6;
  fcfg.schedule.capture_end = 1e6 + 60.0;

  stream::StreamOptions sopts;
  sopts.idle_timeout_s = 1.0;   // a flow outlives its slice by one tick
  sopts.chunk_bytes = 1 << 12;
  // The bound is a claim about the single-threaded engine: shard
  // workers pin evicted payloads in flight until they drain, so an
  // auto width above 1 would re-inflate the peak it measures.
  report::AnalysisOptions unsharded;
  unsharded.shards = 1;
  const auto got =
      stream_at(BytesView{pcap}, fcfg, sopts.chunk_bytes, sopts, unsharded);

  EXPECT_GT(got.flows.evictions, 0u) << "idle expiry never fired — test inert";
  EXPECT_EQ(got.flows.flows_rekeyed, 0u)
      << "disjoint time slices must never split a flow";
  ASSERT_GT(got.flows.live_peak_bytes, 0u);
  EXPECT_GE(pcap.size(), 10 * got.flows.live_peak_bytes)
      << "peak live " << got.flows.live_peak_bytes << " bytes vs "
      << pcap.size() << "-byte capture";
  std::printf("capture %zu bytes, peak live %llu bytes (%.1fx)\n",
              pcap.size(),
              static_cast<unsigned long long>(got.flows.live_peak_bytes),
              static_cast<double>(pcap.size()) /
                  static_cast<double>(got.flows.live_peak_bytes));

  // The savings must not have cost correctness.
  const auto ref = batch_json(BytesView{pcap}, fcfg);
  EXPECT_EQ(stripped_json(got), ref);
}

}  // namespace
