#include "report/metrics.hpp"

#include <algorithm>
#include <limits>

#include "report/corpus.hpp"
#include "stream/engine.hpp"
#include "util/env_knob.hpp"
#include "util/thread_pool.hpp"

namespace rtcc::report {

using rtcc::compliance::CheckedMessage;
using rtcc::compliance::StreamComplianceChecker;
using rtcc::dpi::DatagramAnalysis;
using rtcc::dpi::ScanningDpi;
using rtcc::dpi::StreamDatagram;

std::size_t effective_shards(const AnalysisOptions& opts) {
  const std::size_t width =
      opts.shards != 0 ? opts.shards : rtcc::util::ThreadPool::shared_size();
  return std::min(width, kMaxShards);
}

std::size_t ProtocolStats::compliant_types() const {
  std::size_t n = 0;
  for (const auto& [label, stats] : types)
    if (stats.type_compliant()) ++n;
  return n;
}

std::uint64_t CallAnalysis::total_messages() const {
  std::uint64_t n = 0;
  for (const auto& [proto, stats] : protocols) n += stats.messages;
  return n;
}

std::uint64_t CallAnalysis::total_compliant() const {
  std::uint64_t n = 0;
  for (const auto& [proto, stats] : protocols) n += stats.compliant;
  return n;
}

std::uint64_t CallAnalysis::distribution_total() const {
  return total_messages() + dgram_fully_prop;
}

namespace detail {

TracePrelude analyze_trace_prelude(const rtcc::net::Trace& trace,
                                   const rtcc::filter::FilterConfig& fcfg) {
  TracePrelude pre;
  CallAnalysis& out = pre.base;
  out.raw_bytes = trace.total_bytes();

  pre.table = rtcc::net::group_streams(trace);
  out.raw_udp_streams = pre.table.udp_stream_count();
  out.raw_udp_datagrams = pre.table.udp_datagram_count();
  out.raw_tcp_streams = pre.table.tcp_stream_count();
  out.raw_tcp_segments = pre.table.tcp_segment_count();

  pre.report = rtcc::filter::run_pipeline(trace, pre.table, fcfg);
  out.ingest = pre.report.ingest;
  out.stage1_udp = pre.report.stage1_udp;
  out.stage2_udp = pre.report.stage2_udp;
  out.stage1_tcp = pre.report.stage1_tcp;
  out.stage2_tcp = pre.report.stage2_tcp;
  out.rtc_udp = pre.report.rtc_udp;
  out.rtc_tcp = pre.report.rtc_tcp;
  return pre;
}

void decode_stream_chunk(const rtcc::net::Trace& trace,
                         const rtcc::net::StreamTable& table,
                         const rtcc::net::Stream& stream, std::size_t base,
                         std::size_t end, rtcc::net::PacketBatch& batch,
                         CallAnalysis& part) {
  namespace net = rtcc::net;
  // Decode node: resolve each stream packet's descriptor (arena view
  // or reassembled buffer) into the SoA batch, one vector at a time.
  // Dual loop — two descriptors per iteration keep the payload-
  // resolution loads overlapped — plus a descriptor prefetch a few
  // packets ahead. suspended counts reassembled datagrams (their
  // bytes come from the table, not a home frame).
  const auto decode_one = [&](const net::StreamPacket& pkt) {
    batch.push(net::packet_payload(trace, table, pkt), pkt.ts,
               pkt.dir == net::Direction::kAtoB ? 0 : 1);
    if (pkt.reasm >= 0) ++part.nodes.decode.suspended;
  };
  std::size_t i = base;
  for (; i + 2 <= end; i += 2) {
    if (i + net::kPrefetchAhead < end)
      net::prefetch(&stream.packets[i + net::kPrefetchAhead]);
    decode_one(stream.packets[i]);
    decode_one(stream.packets[i + 1]);
  }
  for (; i < end; ++i) decode_one(stream.packets[i]);
  ++part.nodes.decode.vectors;
  part.nodes.decode.packets += end - base;
}

void analyze_stream_batch(const rtcc::dpi::ScanningDpi& dpi,
                          const rtcc::compliance::ComplianceConfig& ccfg,
                          const rtcc::net::PacketBatch& batch,
                          CallAnalysis& part, std::size_t dpi_width) {
  constexpr std::size_t bsz = rtcc::net::kBatchSize;
  const auto analyses = dpi.analyze_batch(batch, &part.nodes, dpi_width);

  // Compliance node, phase 1: observe every extracted message to
  // build the stream context. suspended counts the observed messages
  // parked until finalize().
  StreamComplianceChecker checker(ccfg);
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    part.dpi_candidates += analyses[i].candidates;
    for (const auto& msg : analyses[i].messages) {
      checker.observe(msg, batch.dir[i], batch.ts[i]);
      ++part.nodes.compliance.suspended;
    }
  }
  checker.finalize();

  // Compliance node, phase 2: verdicts per vector, with one reused
  // CheckedMessage buffer (check_into) so the loop is allocation-free
  // in steady state.
  std::vector<CheckedMessage> checked;
  for (std::size_t base = 0; base < analyses.size(); base += bsz) {
    const std::size_t end = std::min(analyses.size(), base + bsz);
    ++part.nodes.compliance.vectors;
    part.nodes.compliance.packets += end - base;
    for (std::size_t i = base; i < end; ++i) {
      const auto& anal = analyses[i];
      switch (anal.klass) {
        case rtcc::dpi::DatagramClass::kStandard:
          ++part.dgram_standard;
          break;
        case rtcc::dpi::DatagramClass::kProprietaryHeader:
          ++part.dgram_prop_header;
          break;
        case rtcc::dpi::DatagramClass::kFullyProprietary:
          ++part.dgram_fully_prop;
          break;
      }
      for (const auto& msg : anal.messages) {
        ++part.dpi_messages;
        checked.clear();
        checker.check_into(msg, batch.dir[i], batch.ts[i], checked);
        for (const auto& cm : checked) {
          auto& pstats = part.protocols[cm.protocol];
          ++pstats.messages;
          auto& tstats = pstats.types[cm.type_label];
          ++tstats.total;
          if (cm.verdict.compliant) {
            ++pstats.compliant;
            ++tstats.compliant;
          } else if (const auto* v = cm.verdict.first()) {
            ++tstats.criterion_failures[rtcc::compliance::to_string(
                v->criterion)];
          }
        }
      }
    }
  }
}

}  // namespace detail

CallAnalysis analyze_trace(const rtcc::net::Trace& trace,
                           const rtcc::filter::FilterConfig& fcfg,
                           const AnalysisOptions& opts,
                           std::vector<CallAnalysis>* per_stream) {
  // RTCC_STREAM=1 routes through the one-pass engine (DESIGN.md §6c);
  // the batch path below stays live as its equivalence oracle.
  if (rtcc::stream::stream_enabled())
    return rtcc::stream::analyze_trace_streaming(
        trace, fcfg, opts, rtcc::stream::stream_options_from_env(),
        per_stream);
  auto pre = detail::analyze_trace_prelude(trace, fcfg);
  CallAnalysis out = std::move(pre.base);
  const auto& table = pre.table;

  // Streams are independent (all validation heuristics and compliance
  // context are stream-scoped), so each one fills its own partial and
  // partials merge in stream order: output is identical at every width.
  // At width > 1 the streams run as tasks on the shared pool, and each
  // stream's DPI splits into up to `width` chunks on the same pool
  // (nested parallel_for cannot deadlock). A capture often has fewer
  // streams than workers, with one holding most of the media, so the
  // chunks are what keep the pool busy. Width 1 never touches the pool.
  const auto& rtc_streams = pre.report.rtc_udp_streams;
  std::vector<CallAnalysis> partials(rtc_streams.size());
  const std::size_t width = effective_shards(opts);
  const ScanningDpi dpi(opts.scan);
  const auto analyze_one = [&](std::size_t si) {
    constexpr std::size_t bsz = rtcc::net::kBatchSize;
    const auto& stream = table.streams[rtc_streams[si]];
    CallAnalysis& part = partials[si];
    const std::size_t n = stream.packets.size();
    rtcc::net::PacketBatch batch;
    batch.reserve(n);
    for (std::size_t base = 0; base < n; base += bsz)
      detail::decode_stream_chunk(trace, table, stream, base,
                                  std::min(n, base + bsz), batch, part);
    detail::analyze_stream_batch(dpi, opts.compliance, batch, part, width);
  };
  if (width > 1) {
    rtcc::util::ThreadPool::shared().parallel_for(rtc_streams.size(),
                                                  analyze_one);
  } else {
    for (std::size_t si = 0; si < rtc_streams.size(); ++si) analyze_one(si);
  }
  for (const CallAnalysis& part : partials) merge(out, part);
  if (per_stream != nullptr) *per_stream = std::move(partials);
  return out;
}

CallAnalysis analyze_call(const rtcc::emul::EmulatedCall& call,
                          const AnalysisOptions& opts) {
  return analyze_trace(call.trace, rtcc::emul::filter_config_for(call), opts);
}

namespace {

void merge_stage(rtcc::filter::StageStats& into,
                 const rtcc::filter::StageStats& from) {
  into.streams += from.streams;
  into.packets += from.packets;
}

}  // namespace

void merge(CallAnalysis& into, const CallAnalysis& from) {
  into.raw_bytes += from.raw_bytes;
  into.raw_udp_streams += from.raw_udp_streams;
  into.raw_udp_datagrams += from.raw_udp_datagrams;
  into.raw_tcp_streams += from.raw_tcp_streams;
  into.raw_tcp_segments += from.raw_tcp_segments;
  merge_stage(into.stage1_udp, from.stage1_udp);
  merge_stage(into.stage2_udp, from.stage2_udp);
  merge_stage(into.stage1_tcp, from.stage1_tcp);
  merge_stage(into.stage2_tcp, from.stage2_tcp);
  merge_stage(into.rtc_udp, from.rtc_udp);
  merge_stage(into.rtc_tcp, from.rtc_tcp);
  into.dgram_standard += from.dgram_standard;
  into.dgram_prop_header += from.dgram_prop_header;
  into.dgram_fully_prop += from.dgram_fully_prop;
  into.dpi_candidates += from.dpi_candidates;
  into.dpi_messages += from.dpi_messages;
  into.nodes.merge(from.nodes);
  if (!from.shards.empty()) {
    if (into.shards.size() < from.shards.size())
      into.shards.resize(from.shards.size());
    for (std::size_t s = 0; s < from.shards.size(); ++s)
      into.shards[s].merge(from.shards[s]);
  }
  into.flows.merge(from.flows);
  into.ingest.merge(from.ingest);
  for (const auto& [proto, pstats] : from.protocols) {
    auto& dst = into.protocols[proto];
    dst.messages += pstats.messages;
    dst.compliant += pstats.compliant;
    for (const auto& [label, tstats] : pstats.types) {
      auto& t = dst.types[label];
      t.total += tstats.total;
      t.compliant += tstats.compliant;
      for (const auto& [criterion, count] : tstats.criterion_failures)
        t.criterion_failures[criterion] += count;
    }
  }
}

std::map<rtcc::emul::AppId, CallAnalysis> run_experiment(
    const ExperimentConfig& cfg) {
  CorpusOptions opts;
  opts.experiment = cfg;
  return run_corpus(opts).per_app;
}

ExperimentConfig experiment_config_from_env() {
  ExperimentConfig cfg;
  cfg.media_scale = rtcc::util::env_knob_double("RTCC_SCALE",
                                                cfg.media_scale, 1e-6, 1e3);
  cfg.repeats = static_cast<int>(
      rtcc::util::env_knob_ll("RTCC_REPEATS", cfg.repeats, 1, 1000000));
  cfg.seed = static_cast<std::uint64_t>(rtcc::util::env_knob_ll(
      "RTCC_SEED", static_cast<long long>(cfg.seed), 0,
      std::numeric_limits<long long>::max()));
  return cfg;
}

}  // namespace rtcc::report
