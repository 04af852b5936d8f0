// google-benchmark microbenchmarks: codec encode/decode throughput, DPI
// scanning throughput vs offset limit k (§4.1.1's runtime/recall
// tradeoff), and end-to-end pipeline cost per packet.
#include <benchmark/benchmark.h>

#include <string>
#include <thread>
#include <vector>

#include "crypto/hmac.hpp"
#include "dpi/scanning_dpi.hpp"
#include "dpi/simd_dispatch.hpp"
#include "dpi/strict_dpi.hpp"
#include "emul/app_model.hpp"
#include "filter/pipeline.hpp"
#include "proto/rtcp/rtcp.hpp"
#include "proto/rtp/rtp.hpp"
#include "proto/stun/stun.hpp"
#include "net/pcap.hpp"
#include "proto/tls/client_hello.hpp"
#include "report/corpus.hpp"
#include "report/metrics.hpp"
#include "stream/chunk_reader.hpp"
#include "stream/engine.hpp"
#include "stream/stream_mode.hpp"
#include "testkit/meta.hpp"
#include "util/rng.hpp"

namespace {

using namespace rtcc;

util::Bytes sample_stun() {
  util::Rng rng(1);
  return proto::stun::MessageBuilder(proto::stun::kBindingRequest)
      .random_transaction_id(rng)
      .attribute_str(proto::stun::attr::kUsername, "bench:user")
      .attribute_u32(proto::stun::attr::kPriority, 0x7E0000FF)
      .fingerprint()
      .build();
}

util::Bytes sample_rtp(std::size_t payload) {
  util::Rng rng(2);
  proto::rtp::PacketBuilder b;
  b.payload_type(96).seq(1000).timestamp(90000).ssrc(0xDEADBEEF);
  b.one_byte_extension();
  auto lvl = rng.bytes(1);
  b.element(1, util::BytesView{lvl});
  b.payload_fill(0xAB, payload);
  return b.build();
}

void BM_StunParse(benchmark::State& state) {
  const auto wire = sample_stun();
  for (auto _ : state) {
    auto parsed = proto::stun::parse(util::BytesView{wire});
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_StunParse);

void BM_RtpParse(benchmark::State& state) {
  const auto wire = sample_rtp(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto parsed = proto::rtp::parse(util::BytesView{wire});
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_RtpParse)->Arg(160)->Arg(1000);

void BM_RtcpCompoundParse(benchmark::State& state) {
  util::Rng rng(3);
  proto::rtcp::SenderReport sr;
  sr.sender_ssrc = 42;
  proto::rtcp::Compound c;
  c.packets.push_back(proto::rtcp::make_sender_report(sr));
  proto::rtcp::Sdes sdes;
  proto::rtcp::SdesChunk chunk;
  chunk.ssrc = 42;
  chunk.items.push_back({1, util::Bytes{'b', 'e', 'n', 'c', 'h'}});
  sdes.chunks.push_back(chunk);
  c.packets.push_back(proto::rtcp::make_sdes(sdes));
  const auto wire = proto::rtcp::encode_compound(c);
  for (auto _ : state) {
    auto parsed = proto::rtcp::parse_compound(util::BytesView{wire});
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_RtcpCompoundParse);

void BM_HmacSha1(benchmark::State& state) {
  util::Rng rng(4);
  const auto key = rng.bytes(20);
  const auto msg = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto mac = crypto::hmac_sha1(util::BytesView{key}, util::BytesView{msg});
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha1)->Arg(64)->Arg(1024);

void BM_SniExtract(benchmark::State& state) {
  const auto hello = proto::tls::build_client_hello("bench.example.com");
  for (auto _ : state) {
    auto sni = proto::tls::extract_sni(util::BytesView{hello});
    benchmark::DoNotOptimize(sni);
  }
}
BENCHMARK(BM_SniExtract);

/// Collects the largest UDP stream of a Zoom relay call (every media
/// datagram behind a proprietary header — the DPI stress case) as a
/// reusable scanning workload.
struct DpiWorkload {
  emul::EmulatedCall call;
  std::vector<dpi::StreamDatagram> datagrams;
  std::uint64_t bytes = 0;

  explicit DpiWorkload(double media_scale, double call_s = 300.0) {
    emul::CallConfig cfg;
    cfg.app = emul::AppId::kZoom;
    cfg.network = emul::NetworkSetup::kWifiRelay;
    cfg.media_scale = media_scale;
    cfg.call_s = call_s;
    cfg.background = false;
    call = emul::emulate_call(cfg);
    const auto table = net::group_streams(call.trace);
    const net::Stream* biggest = nullptr;
    for (const auto& s : table.streams)
      if (s.key.transport == net::Transport::kUdp &&
          (!biggest || s.packets.size() > biggest->packets.size()))
        biggest = &s;
    for (const auto& p : biggest->packets) {
      dpi::StreamDatagram d;
      d.payload = net::packet_payload(call.trace, p);
      d.ts = p.ts;
      datagrams.push_back(d);
      bytes += d.payload.size();
    }
  }
};

void run_scanning_bench(benchmark::State& state, const DpiWorkload& wl,
                        const dpi::ScanOptions& opts) {
  const dpi::ScanningDpi engine(opts);
  for (auto _ : state) {
    auto analyses = engine.analyze_stream(wl.datagrams);
    benchmark::DoNotOptimize(analyses);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wl.bytes));
  state.counters["datagrams/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(wl.datagrams.size()),
      benchmark::Counter::kIsRate);
}

/// The §4.1.1 tradeoff: scanning cost grows with the offset limit k.
/// Arg 0 = k, arg 1 = anchor prefilter on/off.
void BM_ScanningDpi(benchmark::State& state) {
  static const DpiWorkload wl(0.02);
  dpi::ScanOptions opts;
  opts.max_offset = static_cast<std::size_t>(state.range(0));
  opts.use_anchor_prefilter = state.range(1) != 0;
  run_scanning_bench(state, wl, opts);
}
BENCHMARK(BM_ScanningDpi)
    ->ArgsProduct({{0, 40, 200, 400}, {0, 1}})
    ->ArgNames({"k", "anchor"});

/// Macro benchmark at full media scale (≈160 pps per direction), the
/// acceptance workload for the anchor prefilter: anchor=1 vs anchor=0
/// is the claimed ≥3x.
void BM_ScanningDpiMacro(benchmark::State& state) {
  static const DpiWorkload wl(1.0, 30.0);
  dpi::ScanOptions opts;
  opts.use_anchor_prefilter = state.range(0) != 0;
  run_scanning_bench(state, wl, opts);
}
BENCHMARK(BM_ScanningDpiMacro)->Arg(0)->Arg(1)->ArgNames({"anchor"});

/// Vector-pipeline sweep over the same macro workload across the forced
/// SIMD kernel level. Levels this CPU or build cannot execute are
/// skipped, not failed, so the sweep is portable across x86-64 tiers
/// and AArch64. All cells produce byte-identical analyses (the parity
/// oracles enforce that); this measures cost only.
void BM_BatchPipeline(benchmark::State& state) {
  static const DpiWorkload wl(1.0, 30.0);
  const auto level = static_cast<dpi::SimdLevel>(state.range(0));
  if (!dpi::simd_level_supported(level)) {
    state.SkipWithError("SIMD level not supported on this CPU/build");
    return;
  }
  const dpi::SimdModeGuard simd_guard(level);
  const dpi::ScanningDpi engine;
  for (auto _ : state) {
    auto analyses = engine.analyze_stream(wl.datagrams);
    benchmark::DoNotOptimize(analyses);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wl.bytes));
  state.counters["datagrams/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(wl.datagrams.size()),
      benchmark::Counter::kIsRate);
  state.SetLabel(dpi::to_string(level));
}
BENCHMARK(BM_BatchPipeline)
    ->Arg(static_cast<long>(dpi::SimdLevel::kScalar))
    ->Arg(static_cast<long>(dpi::SimdLevel::kSse2))
    ->Arg(static_cast<long>(dpi::SimdLevel::kAvx2))
    ->Arg(static_cast<long>(dpi::SimdLevel::kNeon))
    ->ArgNames({"simd"});

void BM_StrictDpi(benchmark::State& state) {
  emul::CallConfig cfg;
  cfg.app = emul::AppId::kWhatsApp;
  cfg.network = emul::NetworkSetup::kWifiP2p;
  cfg.media_scale = 0.02;
  cfg.background = false;
  const auto call = emul::emulate_call(cfg);
  const auto table = net::group_streams(call.trace);
  std::vector<dpi::StreamDatagram> dgs;
  for (const auto& s : table.streams) {
    if (s.key.transport != net::Transport::kUdp) continue;
    for (const auto& p : s.packets) {
      dpi::StreamDatagram d;
      d.payload = net::packet_payload(call.trace, p);
      dgs.push_back(d);
    }
  }
  const dpi::StrictDpi engine;
  for (auto _ : state) {
    auto analyses = engine.analyze_stream(dgs);
    benchmark::DoNotOptimize(analyses);
  }
  state.counters["datagrams"] = static_cast<double>(dgs.size());
}
BENCHMARK(BM_StrictDpi);

/// Shared encoded capture for the decode benchmarks: a mid-size relay
/// call (~10k frames), encoded once.
const util::Bytes& sample_pcap() {
  static const util::Bytes encoded = [] {
    emul::CallConfig cfg;
    cfg.app = emul::AppId::kZoom;
    cfg.network = emul::NetworkSetup::kWifiRelay;
    cfg.media_scale = 0.2;
    cfg.call_s = 120.0;
    return net::encode_pcap(emul::emulate_call(cfg).trace);
  }();
  return encoded;
}

/// Decode-path ablation: mode 1 = arena copy (one slab memcpy per
/// frame), mode 2 = zero-copy views over the input buffer.
void BM_PcapDecode(benchmark::State& state) {
  const auto& encoded = sample_pcap();
  const int mode = static_cast<int>(state.range(0));
  std::size_t frames = 0;
  for (auto _ : state) {
    std::optional<net::Trace> trace;
    if (mode == 2) {
      // Buffer outlives the trace (it's static), so no keepalive.
      trace = net::decode_pcap_zero_copy(util::BytesView{encoded});
    } else {
      trace = net::decode_pcap(util::BytesView{encoded});
    }
    frames = trace->size();
    benchmark::DoNotOptimize(trace);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
  state.counters["frames"] = static_cast<double>(frames);
  state.SetLabel(mode == 1 ? "arena-copy" : "zero-copy");
}
BENCHMARK(BM_PcapDecode)->Arg(1)->Arg(2)->ArgNames({"mode"});

/// Emulator frame building: headers + payload written in place into the
/// call's arena.
void BM_EmulatorGenerate(benchmark::State& state) {
  emul::CallConfig cfg;
  cfg.app = emul::AppId::kGoogleMeet;
  cfg.network = emul::NetworkSetup::kWifiRelay;
  cfg.media_scale = 0.1;
  cfg.call_s = 120.0;
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto call = emul::emulate_call(cfg);
    bytes = call.trace.total_bytes();
    benchmark::DoNotOptimize(call);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_EmulatorGenerate)->Unit(benchmark::kMillisecond);

/// Streaming corpus: generate+analyze `repeats` x 18 calls with the
/// live-trace gate. The memory claim is visible in the counters: as
/// repeats grow, corpus_mb (total bytes processed) grows linearly while
/// live_peak_mb stays flat at O(pool width).
void BM_CorpusEndToEnd(benchmark::State& state) {
  report::CorpusOptions opts;
  opts.experiment.repeats = static_cast<int>(state.range(0));
  opts.experiment.media_scale = 0.02;
  opts.experiment.call_s = 60.0;
  for (auto _ : state) {
    auto result = report::run_corpus(opts);
    state.counters["corpus_mb"] =
        static_cast<double>(result.total_trace_bytes) / 1e6;
    state.counters["live_peak_mb"] =
        static_cast<double>(result.peak_live_trace_bytes) / 1e6;
    state.counters["rss_peak_mb"] =
        static_cast<double>(result.peak_rss_bytes) / 1e6;
    state.counters["mb_per_s"] = result.mb_per_s();
    state.counters["calls"] = static_cast<double>(result.calls.size());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CorpusEndToEnd)
    ->Arg(1)
    ->Arg(3)
    ->ArgNames({"repeats"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Scenario-count scaling of the streaming corpus: a minimal app
/// matrix (1 call) plus `scenarios` repeats of the full scenario
/// catalogue (SFU conferences, mobility, network weather — 8 rows per
/// repeat). Scenario count is the corpus's second scale axis; like the
/// repeats axis, corpus_mb grows linearly while live_peak_mb stays
/// flat behind the live-trace gate. Published as BENCH_scenarios.json
/// by the release-bench CI job.
void BM_ScenarioScaling(benchmark::State& state) {
  report::CorpusOptions opts;
  opts.experiment.apps = {emul::AppId::kZoom};
  opts.experiment.networks = {emul::NetworkSetup::kWifiP2p};
  opts.experiment.repeats = 1;
  opts.experiment.media_scale = 0.02;
  opts.experiment.call_s = 60.0;
  opts.scenario_repeats = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = report::run_corpus(opts);
    state.counters["corpus_mb"] =
        static_cast<double>(result.total_trace_bytes) / 1e6;
    state.counters["live_peak_mb"] =
        static_cast<double>(result.peak_live_trace_bytes) / 1e6;
    state.counters["mb_per_s"] = result.mb_per_s();
    state.counters["scenario_rows"] =
        static_cast<double>(result.scenario_calls.size());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ScenarioScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgNames({"scenarios"})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

/// Width scaling curve: the same streaming corpus with the analysis
/// width pinned per run (arg = AnalysisOptions::shards; 1 = the serial
/// reference). Real time vs process CPU time separates
/// speedup from parallel overhead: on an N-core box real time should
/// drop toward 1/N while CPU time stays roughly flat (the merged
/// output is byte-identical at every point — the parity oracle's
/// claim — so this measures cost only). Published as BENCH_shard.json
/// by the release-bench CI job.
void BM_ShardScaling(benchmark::State& state) {
  report::CorpusOptions opts;
  opts.experiment.analysis.shards = static_cast<std::size_t>(state.range(0));
  opts.experiment.repeats = 1;
  opts.experiment.media_scale = 0.02;
  opts.experiment.call_s = 60.0;
  for (auto _ : state) {
    auto result = report::run_corpus(opts);
    state.counters["corpus_mb"] =
        static_cast<double>(result.total_trace_bytes) / 1e6;
    state.counters["mb_per_s"] = result.mb_per_s();
    benchmark::DoNotOptimize(result);
  }
  state.counters["shards"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ShardScaling)
    ->Apply([](benchmark::internal::Benchmark* b) {
      const auto hw = std::thread::hardware_concurrency();
      b->Arg(1)->Arg(2)->Arg(4);
      if (hw > 4) b->Arg(static_cast<long>(hw));
      b->ArgNames({"shards"})
          ->Unit(benchmark::kMillisecond)
          ->MeasureProcessCPUTime()
          ->UseRealTime();
    });

/// Streaming vs batch over the same mid-size relay call: arg 0 = the
/// batch path (whole Trace in memory), arg 1 = the one-pass engine fed
/// frame-by-frame, arg 2 = the one-pass engine behind the chunked pcap
/// reader over the encoded capture bytes. Outputs are byte-identical
/// (the stream-parity oracle's claim), so this isolates the cost of
/// the inversion; live_peak_mb vs capture_mb shows the O(active flows)
/// memory bound. Published as BENCH_stream.json by release-bench CI.
void BM_StreamingVsBatch(benchmark::State& state) {
  static const emul::EmulatedCall call = [] {
    emul::CallConfig cfg;
    cfg.app = emul::AppId::kZoom;
    cfg.network = emul::NetworkSetup::kWifiRelay;
    cfg.media_scale = 0.05;
    cfg.call_s = 60.0;
    return emul::emulate_call(cfg);
  }();
  static const filter::FilterConfig fcfg = emul::filter_config_for(call);
  static const util::Bytes pcap = net::encode_pcap(call.trace);
  const stream::StreamModeGuard batch_ref(false);

  const int mode = static_cast<int>(state.range(0));
  std::uint64_t live_peak = 0;
  for (auto _ : state) {
    report::CallAnalysis analysis;
    if (mode == 0) {
      analysis = report::analyze_trace(call.trace, fcfg);
      live_peak = call.trace.total_bytes();  // batch holds the capture
    } else if (mode == 1) {
      analysis = stream::analyze_trace_streaming(call.trace, fcfg);
      live_peak = analysis.flows.live_peak_bytes;
    } else {
      stream::MemoryChunkSource source{util::BytesView{pcap}};
      stream::StreamingAnalyzer engine(net::kLinkEthernet, fcfg);
      std::string error;
      if (!stream::stream_pcap(source, engine, 1 << 20, &error))
        state.SkipWithError(error.c_str());
      analysis = engine.finish();
      live_peak = analysis.flows.live_peak_bytes;
    }
    benchmark::DoNotOptimize(analysis);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(call.trace.total_bytes()));
  state.counters["capture_mb"] = static_cast<double>(pcap.size()) / 1e6;
  state.counters["live_peak_mb"] = static_cast<double>(live_peak) / 1e6;
  state.SetLabel(mode == 0 ? "batch"
                           : (mode == 1 ? "stream-mem" : "stream-pcap"));
}
BENCHMARK(BM_StreamingVsBatch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"mode"})
    ->Unit(benchmark::kMillisecond);

/// Metamorphic transform cost over a mid-size relay call: arg = index
/// into testkit::meta::transform_catalogue(). The interesting spread is
/// re-encapsulation (per-frame header surgery) vs pcap round-trips
/// (full encode+decode) vs renumber (per-frame decode+rebuild).
void BM_MetaTransform(benchmark::State& state) {
  static const emul::EmulatedCall call = [] {
    emul::CallConfig cfg;
    cfg.app = emul::AppId::kZoom;
    cfg.network = emul::NetworkSetup::kWifiRelay;
    cfg.media_scale = 0.05;
    cfg.call_s = 60.0;
    return emul::emulate_call(cfg);
  }();
  static const filter::FilterConfig fcfg = emul::filter_config_for(call);
  const auto& t = testkit::meta::transform_catalogue()[
      static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    auto result = t.apply(call.trace, fcfg);
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(call.trace.total_bytes()));
  state.counters["frames"] = static_cast<double>(call.trace.size());
  state.SetLabel(t.name);
}
BENCHMARK(BM_MetaTransform)
    ->Apply([](benchmark::internal::Benchmark* b) {
      const auto n = rtcc::testkit::meta::transform_catalogue().size();
      for (std::size_t i = 0; i < n; ++i) b->Arg(static_cast<int>(i));
    })
    ->ArgNames({"transform"});

void BM_EndToEndCall(benchmark::State& state) {
  emul::CallConfig cfg;
  cfg.app = emul::AppId::kGoogleMeet;
  cfg.network = emul::NetworkSetup::kWifiRelay;
  cfg.media_scale = 0.02;
  const auto call = emul::emulate_call(cfg);
  for (auto _ : state) {
    auto analysis = report::analyze_call(call);
    benchmark::DoNotOptimize(analysis);
  }
  state.counters["frames"] = static_cast<double>(call.trace.size());
}
BENCHMARK(BM_EndToEndCall);

}  // namespace

BENCHMARK_MAIN();
