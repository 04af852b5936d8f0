#include "layers.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "compliance/checker.hpp"
#include "dpi/scanning_dpi.hpp"
#include "net/pcap.hpp"
#include "net/stream_table.hpp"
#include "report/json_export.hpp"
#include "service/daemon.hpp"
#include "service/verdict_writer.hpp"
#include "stream/chunk_reader.hpp"
#include "stream/engine.hpp"
#include "testkit/meta.hpp"

namespace ledger {

namespace {

using rtcc::report::CallAnalysis;

double per(double num, double den) {
  return den > 0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

/// Compliance half of report::detail::analyze_stream_batch (which runs
/// analyze_batch and this back to back, so it cannot time them apart):
/// the two-phase checker over one stream's DPI output, booking exactly
/// the per-stream accounting the production path books. The
/// decomposition's signature check holds this copy to the original.
void check_stream(const rtcc::compliance::ComplianceConfig& ccfg,
                  const rtcc::net::PacketBatch& batch,
                  const std::vector<rtcc::dpi::DatagramAnalysis>& analyses,
                  CallAnalysis& part) {
  rtcc::compliance::StreamComplianceChecker checker(ccfg);
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    part.dpi_candidates += analyses[i].candidates;
    for (const auto& msg : analyses[i].messages) {
      checker.observe(msg, batch.dir[i], batch.ts[i]);
      ++part.nodes.compliance.suspended;
    }
  }
  checker.finalize();
  std::vector<rtcc::compliance::CheckedMessage> checked;
  for (std::size_t i = 0; i < analyses.size(); ++i) {
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

}  // namespace

// ---- Metrics -----------------------------------------------------------

void emit_layer_metrics(const LayerTotals& t, Result& res) {
  const auto ns = [](const SpanSum& s) { return static_cast<double>(s.busy_ns); };
  const auto n = [](const SpanSum& s) { return static_cast<double>(s.count); };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  res.metric("net.read_pcap.ns_per_frame", per(ns(t.read_pcap), n(t.read_pcap)), "ns");
  res.metric("net.group_streams.ns_per_frame",
             per(ns(t.group_streams), n(t.group_streams)), "ns");
  res.metric("net.group_streams.allocs_per_frame",
             per(d(t.group_streams.allocs), n(t.group_streams)), "count");
  res.metric("net.build_batch.ns_per_datagram",
             per(ns(t.build_batch), n(t.build_batch)), "ns");
  res.metric("net.fragments_reassembled", d(t.fragments_reassembled), "count");

  res.metric("filter.run_pipeline.ns_per_stream",
             per(ns(t.run_pipeline), n(t.run_pipeline)), "ns");
  res.metric("filter.kept_stream_ratio", per(d(t.kept_streams), d(t.streams)),
             "ratio");

  res.metric("dpi.analyze_batch.ns_per_datagram",
             per(ns(t.analyze_batch), n(t.analyze_batch)), "ns");
  res.metric("dpi.allocs_per_datagram",
             per(d(t.analyze_batch.allocs), n(t.analyze_batch)), "count");
  res.metric("dpi.prefilter_staged_per_datagram",
             per(d(t.prefilter_staged), n(t.analyze_batch)), "count");
  res.metric("dpi.messages_per_candidate", per(d(t.messages), d(t.candidates)),
             "ratio");
  res.metric("dpi.vector_occupancy", per(d(t.demux_packets), d(t.demux_vectors)),
             "count");

  res.metric("compliance.ns_per_message", per(ns(t.compliance), n(t.compliance)),
             "ns");
  res.metric("compliance.allocs_per_message",
             per(d(t.compliance.allocs), n(t.compliance)), "count");

  res.metric("report.merge.us_per_capture", per(ns(t.merge) / 1e3, n(t.merge)),
             "us");
  res.metric("report.to_json.us_per_capture",
             per(ns(t.to_json) / 1e3, n(t.to_json)), "us");
  res.metric("report.dispatch_speedup",
             per(static_cast<double>(t.serial_analyze_ns),
                 static_cast<double>(t.production_analyze_ns)),
             "ratio");
  res.metric("report.untracked_share",
             1.0 - per(static_cast<double>(t.children_ns),
                       static_cast<double>(t.decomposition_ns)),
             "ratio");
  res.metric("report.stream_vs_batch",
             per(per(static_cast<double>(t.streaming_ns), d(t.streaming_frames)),
                 per(static_cast<double>(t.production_analyze_ns),
                     d(t.production_frames))),
             "ratio");

  res.metric("stream.push_frame.ns_per_frame",
             per(ns(t.push_frame), n(t.push_frame)), "ns");
  res.metric("stream.allocs_per_frame",
             per(d(t.push_frame.allocs), n(t.push_frame)), "count");
  res.metric("stream.live_peak_mb", t.live_peak_mb, "MB");
  res.metric("stream.epoch_close_ms_p50", quantile(t.epoch_close_ms, 0.5), "ms");
  res.metric("stream.epoch_close_ms_p90", quantile(t.epoch_close_ms, 0.9), "ms");
  res.metric("stream.epoch_close_ns_per_flow_seen",
             per(static_cast<double>(t.epoch_close_ns), d(t.epoch_flows_seen)),
             "ns");
  res.metric("stream.flows_seen", d(t.flows_seen), "count");
  res.metric("stream.evictions", d(t.evictions), "count");

  res.metric("service.write_epoch.us_per_verdict",
             per(ns(t.write_epoch) / 1e3, n(t.write_epoch)), "us");
  res.metric("service.render_us", t.render_us, "us");
  res.metric("service.read_wait_share",
             per(static_cast<double>(t.read_wait_ns),
                 static_cast<double>(t.ingest_ns)),
             "ratio");

  res.metric("trace.latency_ms_p50", quantile(t.traced_latency_ms, 0.5), "ms");
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = [] {
    Result probe;
    emit_layer_metrics(LayerTotals{}, probe);
    std::vector<std::string> out;
    for (const auto& m : probe.metrics) out.push_back(m.name);
    return out;
  }();
  return names;
}

// ---- Production path and its decomposition ------------------------------

ProductionRun run_production(const std::string& path,
                             const rtcc::filter::FilterConfig& fcfg) {
  ProductionRun run;
  const auto t0 = Clock::now();
  auto trace = rtcc::net::read_pcap(path, &run.error);
  if (!trace) return run;
  const auto t1 = Clock::now();
  std::vector<CallAnalysis> per_stream;
  const CallAnalysis merged =
      rtcc::report::analyze_trace(*trace, fcfg, {}, &per_stream);
  const auto t2 = Clock::now();
  const std::string json = rtcc::report::to_json(merged);
  const auto t3 = Clock::now();
  run.ok = !json.empty();
  run.frames = trace->size();
  run.analyze_ns = ns_between(t1, t2);
  run.total_ms = ms_between(t0, t3);
  run.signature = rtcc::testkit::meta::compliance_signature(merged, per_stream);
  return run;
}

std::string run_decomposition(const std::string& path,
                              const rtcc::filter::FilterConfig& fcfg,
                              std::uint64_t index, bool count_once,
                              LayerTotals& t, Tracer& tracer) {
  namespace net = rtcc::net;
  SpanSum read, group, filter, batch_sum, dpi_sum, comp, merge_sum, json_sum;
  Clock::time_point a;
  std::uint64_t allocs0 = 0;
  const auto begin = [&] {
    allocs0 = thread_allocs();
    a = Clock::now();
  };
  const auto end = [&](SpanSum& s, std::uint64_t count) {
    const auto b = Clock::now();
    s.add(a, b, count, thread_allocs() - allocs0);
  };

  const auto parent_start = Clock::now();
  begin();
  auto trace = net::read_pcap(path);
  if (!trace) return {};
  end(read, trace->size());

  // analyze_trace's prelude (report::detail::analyze_trace_prelude),
  // one call at a time.
  CallAnalysis out;
  out.raw_bytes = trace->total_bytes();
  begin();
  const net::StreamTable table = net::group_streams(*trace);
  end(group, trace->size());
  out.raw_udp_streams = table.udp_stream_count();
  out.raw_udp_datagrams = table.udp_datagram_count();
  out.raw_tcp_streams = table.tcp_stream_count();
  out.raw_tcp_segments = table.tcp_segment_count();

  begin();
  const rtcc::filter::FilterReport rep =
      rtcc::filter::run_pipeline(*trace, table, fcfg);
  end(filter, table.streams.size());
  out.ingest = rep.ingest;
  out.stage1_udp = rep.stage1_udp;
  out.stage2_udp = rep.stage2_udp;
  out.stage1_tcp = rep.stage1_tcp;
  out.stage2_tcp = rep.stage2_tcp;
  out.rtc_udp = rep.rtc_udp;
  out.rtc_tcp = rep.rtc_tcp;

  // The per-stream hot path, serially, for every kept UDP stream.
  const rtcc::report::AnalysisOptions opts;
  const rtcc::dpi::ScanningDpi dpi(opts.scan);
  std::vector<CallAnalysis> partials(rep.rtc_udp_streams.size());
  net::PacketBatch batch;
  for (std::size_t si = 0; si < rep.rtc_udp_streams.size(); ++si) {
    const net::Stream& stream = table.streams[rep.rtc_udp_streams[si]];
    CallAnalysis& part = partials[si];
    begin();
    batch.clear();
    batch.reserve(stream.packets.size());
    for (const net::StreamPacket& pkt : stream.packets)
      batch.push(net::packet_payload(*trace, table, pkt), pkt.ts,
                 pkt.dir == net::Direction::kAtoB ? 0 : 1);
    end(batch_sum, stream.packets.size());

    begin();
    const auto analyses = dpi.analyze_batch(batch, &part.nodes);
    end(dpi_sum, batch.size());

    std::uint64_t messages = 0;
    for (const auto& an : analyses) messages += an.messages.size();
    begin();
    check_stream(opts.compliance, batch, analyses, part);
    end(comp, messages);
  }

  begin();
  for (const CallAnalysis& part : partials) rtcc::report::merge(out, part);
  end(merge_sum, 1);
  begin();
  const std::string json = rtcc::report::to_json(out);
  end(json_sum, 1);
  const auto parent_end = Clock::now();

  const std::uint64_t parent = tracer.add(
      "report.analyze_decomposed", 0, "capture", index,
      SpanSum{parent_start, parent_end, ns_between(parent_start, parent_end),
              1, 1, 0});
  const std::pair<const char*, SpanSum*> children[] = {
      {"net.read_pcap", &read},          {"net.group_streams", &group},
      {"filter.run_pipeline", &filter},  {"net.build_batch", &batch_sum},
      {"dpi.analyze_batch", &dpi_sum},   {"compliance.check", &comp},
      {"report.merge", &merge_sum},      {"report.to_json", &json_sum}};
  std::int64_t children_ns = 0;
  for (const auto& [name, sum] : children) {
    if (sum->calls > 0) tracer.add(name, parent, "capture", index, *sum);
    children_ns += sum->busy_ns;
  }

  for (auto [into, from] : {std::pair{&t.read_pcap, &read},
                            std::pair{&t.group_streams, &group},
                            std::pair{&t.run_pipeline, &filter},
                            std::pair{&t.build_batch, &batch_sum},
                            std::pair{&t.analyze_batch, &dpi_sum},
                            std::pair{&t.compliance, &comp},
                            std::pair{&t.merge, &merge_sum},
                            std::pair{&t.to_json, &json_sum}}) {
    into->busy_ns += from->busy_ns;
    into->calls += from->calls;
    into->count += from->count;
    into->allocs += from->allocs;
  }
  t.decomposition_ns += ns_between(parent_start, parent_end);
  t.children_ns += children_ns;
  t.serial_analyze_ns += group.busy_ns + filter.busy_ns + batch_sum.busy_ns +
                         dpi_sum.busy_ns + comp.busy_ns + merge_sum.busy_ns;
  t.streams += table.streams.size();
  t.kept_streams += rep.rtc_udp.streams + rep.rtc_tcp.streams;
  for (const CallAnalysis& part : partials) {
    t.prefilter_staged += part.nodes.prefilter.suspended;
    t.demux_vectors += part.nodes.demux.vectors;
    t.demux_packets += part.nodes.demux.packets;
  }
  t.candidates += out.dpi_candidates;
  t.messages += out.dpi_messages;
  if (count_once) t.fragments_reassembled += table.ingest.fragments_reassembled;
  return rtcc::testkit::meta::compliance_signature(out, partials);
}

std::string run_streaming_reference(const std::string& path,
                                    const rtcc::filter::FilterConfig& fcfg,
                                    LayerTotals& t) {
  std::vector<CallAnalysis> per_stream;
  const auto a = Clock::now();
  const auto merged = rtcc::stream::analyze_pcap_streaming(
      path, fcfg, {}, rtcc::stream::StreamOptions{}, nullptr, &per_stream);
  const auto b = Clock::now();
  if (!merged) return {};
  t.streaming_ns += ns_between(a, b);
  t.streaming_frames += merged->ingest.frames_seen;
  return rtcc::testkit::meta::compliance_signature(*merged, per_stream);
}

// ---- Verdict log ----------------------------------------------------------

void check_verdicts(const VerdictLog& log, const CallAnalysis& final_report,
                    std::uint64_t frames, const std::string& what,
                    Result& res) {
  const std::uint64_t flows = final_report.flows.flows_seen;
  res.attempted += flows;
  std::vector<std::uint8_t> seen(flows, 0);
  std::map<std::uint64_t, const VerdictRec*> last;
  std::uint64_t duplicates = 0;
  for (const VerdictRec& v : log.verdicts) {
    if (v.ordinal >= flows) {
      res.fail(what + ": verdict for unknown ordinal " +
               std::to_string(v.ordinal));
      continue;
    }
    if (!v.amends && seen[v.ordinal]++ != 0) ++duplicates;
    last[v.ordinal] = &v;
  }
  const auto missing =
      static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), 0));
  if (duplicates > 0)
    res.fail(what + ": " + std::to_string(duplicates) + " duplicate verdicts",
             duplicates);
  if (missing > 0)
    res.fail(what + ": " + std::to_string(missing) + " ordinals never emitted",
             missing);

  std::uint64_t epoch_frames = 0;
  for (const EpochRec& e : log.epochs) epoch_frames += e.frames;
  if (epoch_frames != frames)
    res.fail(what + ": epochs account for " + std::to_string(epoch_frames) +
             " of " + std::to_string(frames) + " frames");

  std::uint64_t messages = 0;
  std::uint64_t compliant = 0;
  for (const auto& [ordinal, v] : last) {
    if (!v->kept) continue;
    messages += v->messages;
    compliant += v->compliant;
  }
  if (messages != final_report.total_messages() ||
      compliant != final_report.total_compliant())
    res.fail(what + ": kept verdicts total " + std::to_string(messages) + "/" +
             std::to_string(compliant) + " messages/compliant, report " +
             std::to_string(final_report.total_messages()) + "/" +
             std::to_string(final_report.total_compliant()));
}

std::vector<double> verdict_latencies_ms(const VerdictLog& log,
                                         Clock::time_point t0, double idle_s) {
  std::map<std::uint64_t, double> clock_of;  // epoch -> clock_end
  std::vector<double> clocks;                // non-final epochs, in order
  for (const EpochRec& e : log.epochs) {
    clock_of[e.epoch] = e.clock_end;
    if (!e.final_pass) clocks.push_back(e.clock_end);
  }
  std::vector<double> out;
  out.reserve(log.verdicts.size());
  for (const VerdictRec& v : log.verdicts) {
    if (v.amends || v.final_pass) continue;
    const auto own = clock_of.find(v.epoch);
    if (own == clock_of.end()) continue;
    double due = own->second;
    const auto idle_due =
        std::lower_bound(clocks.begin(), clocks.end(), v.last_ts + idle_s);
    if (idle_due != clocks.end()) due = std::min(due, *idle_due);
    const auto due_at =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due));
    out.push_back(ms_between(due_at, v.seen));
  }
  return out;
}

// ---- Instrumented streaming pass ------------------------------------------

StreamPassResult run_stream_pass(int fd, const StreamPass& pass,
                                 bool count_once, LayerTotals& t,
                                 Tracer& tracer) {
  StreamPassResult out;
  rtcc::stream::StreamingAnalyzer engine(rtcc::net::kLinkEthernet, pass.fcfg,
                                         {}, pass.sopts);
  rtcc::service::VerdictWriter writer(pass.jsonl_path);
  if (!writer.ok()) {
    out.error = "cannot open " + pass.jsonl_path;
    return out;
  }

  // Per-epoch window sums, flushed as spans at each epoch close.
  SpanSum win_push, win_read, win_write, close;
  bool fired = false;
  std::int64_t sink_ns = 0;
  const auto flush_window = [&](std::uint64_t epoch) {
    const auto first = win_push.calls > 0 ? win_push.first : close.first;
    const auto last = close.calls > 0 ? close.last : win_push.last;
    const std::uint64_t parent = tracer.add(
        "stream.epoch", 0, "epoch", epoch,
        SpanSum{first, last, ns_between(first, last), 1, 1, 0});
    if (win_push.calls > 0)
      tracer.add("stream.push_frame", parent, "epoch", epoch, win_push);
    if (win_read.calls > 0)
      tracer.add("service.read_wait", parent, "epoch", epoch, win_read);
    if (close.calls > 0)
      tracer.add("stream.epoch_close", parent, "epoch", epoch, close);
    if (win_write.calls > 0)
      tracer.add("service.write_epoch", parent, "epoch", epoch, win_write);
    win_push = win_read = win_write = close = SpanSum{};
  };

  engine.set_epoch(pass.epoch_s, [&](const rtcc::stream::EpochReport& ep) {
    const auto a = Clock::now();
    writer.write_epoch(ep);
    const auto b = Clock::now();
    fired = true;
    sink_ns += ns_between(a, b);
    win_write.add(a, b, ep.verdicts.size());
    t.write_epoch.add(a, b, ep.verdicts.size());
    out.log.epochs.push_back(
        {ep.epoch, ep.clock_end, ep.frames, ep.final_pass});
    // The writer emits one line per verdict, in order; like the daemon's
    // reader, date each verdict by when its own line was out, taking the
    // lines as equally costly.
    const auto per_line = (b - a) / std::max<std::size_t>(ep.verdicts.size(), 1);
    auto line_done = a;
    for (const auto& v : ep.verdicts) {
      line_done += per_line;
      VerdictRec r;
      r.epoch = ep.epoch;
      r.ordinal = v.ordinal;
      r.last_ts = v.last_ts;
      r.amends = v.amends;
      r.final_pass = v.final_pass;
      r.kept = v.disposition == rtcc::filter::Disposition::kKept;
      if (v.partial != nullptr) {
        r.messages = v.partial->total_messages();
        r.compliant = v.partial->total_compliant();
      }
      r.seen = line_done;
      out.log.verdicts.push_back(r);
    }
    if (!ep.final_pass) {
      t.epoch_flows_seen += ep.flows.flows_seen;
    }
  });

  // The bench's own byte source: one recycled buffer refilled by timed
  // read() calls, so time blocked waiting for input is measured.
  std::vector<std::uint8_t> buf(std::size_t{1} << 20);
  std::size_t pos = 0;
  std::size_t filled = 0;
  const auto fill = [&](std::size_t need) {
    if (filled - pos >= need) return true;
    std::memmove(buf.data(), buf.data() + pos, filled - pos);
    filled -= pos;
    pos = 0;
    if (buf.size() < need) buf.resize(need);
    while (filled < need) {
      const auto a = Clock::now();
      const ssize_t n = ::read(fd, buf.data() + filled, buf.size() - filled);
      const auto b = Clock::now();
      if (n < 0 && errno == EINTR) continue;
      win_read.add(a, b, n > 0 ? static_cast<std::uint64_t>(n) : 0);
      t.read_wait_ns += ns_between(a, b);
      if (n <= 0) return false;
      filled += static_cast<std::size_t>(n);
    }
    return true;
  };
  const auto load32 = [&](std::size_t off) {
    std::uint32_t v = 0;
    std::memcpy(&v, buf.data() + pos + off, 4);
    return v;
  };

  const auto ingest_start = Clock::now();
  if (!fill(24) || load32(0) != 0xA1B2C3D4u) {
    out.error = "not a little-endian microsecond pcap stream";
    return out;
  }
  pos += 24;
  while (fill(16)) {
    const std::uint32_t sec = load32(0);
    const std::uint32_t usec = load32(4);
    const std::uint32_t incl = load32(8);
    const std::uint32_t orig = load32(12);
    if (!fill(std::size_t{16} + incl)) {
      out.error = "torn record";
      return out;
    }
    const double ts = static_cast<double>(sec) + static_cast<double>(usec) * 1e-6;
    fired = false;
    sink_ns = 0;
    const std::uint64_t allocs0 = thread_allocs();
    const auto a = Clock::now();
    engine.push_frame({buf.data() + pos + 16, incl}, ts, orig);
    const auto b = Clock::now();
    ++out.frames;
    if (fired) {
      close.add(a, b, 1);
      close.busy_ns -= sink_ns;  // the sink's own time is write_epoch's
      t.epoch_close_ms.push_back(static_cast<double>(close.busy_ns) / 1e6);
      t.epoch_close_ns += close.busy_ns;
      flush_window(out.log.epochs.back().epoch);
    } else {
      win_push.add(a, b, 1, thread_allocs() - allocs0);
      t.push_frame.add(a, b, 1, thread_allocs() - allocs0);
    }
    pos += std::size_t{16} + incl;
  }
  t.ingest_ns += ns_between(ingest_start, Clock::now());

  std::vector<CallAnalysis> per_stream;
  out.final_report = engine.finish(&per_stream);
  out.signature =
      rtcc::testkit::meta::compliance_signature(out.final_report, per_stream);
  t.live_peak_mb = std::max(
      t.live_peak_mb,
      static_cast<double>(out.final_report.flows.live_peak_bytes) / 1e6);
  if (count_once) {
    t.flows_seen += out.final_report.flows.flows_seen;
    t.evictions += out.final_report.flows.evictions;
  }
  out.ok = true;
  return out;
}

double measure_render_us(const rtcc::util::Bytes& pcap,
                         const std::string& workdir) {
  rtcc::service::DaemonOptions o;
  o.socket_path = workdir + "/render.sock";
  o.jsonl_path = workdir + "/render.jsonl";
  o.enable_metrics = false;  // render() is timed directly
  o.epoch_s = 0.1;
  o.poll_ms = 1;
  rtcc::service::Daemon daemon(o);
  if (!daemon.start()) return std::numeric_limits<double>::quiet_NaN();
  std::thread runner([&] { daemon.run(); });

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, o.socket_path.c_str(), sizeof addr.sun_path - 1);
  const bool sent =
      fd >= 0 &&
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
          0 &&
      write_all(fd, pcap.data(), pcap.size());
  if (fd >= 0) ::close(fd);
  // The stream is ingested once the daemon counts it; stopping earlier
  // could skip the accept.
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (sent && Clock::now() < deadline &&
         daemon.metrics().get("rtcc_service_socket_streams") +
                 daemon.metrics().get("rtcc_service_socket_failed") <
             1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  daemon.request_stop();
  runner.join();

  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const auto a = Clock::now();
    const std::string text = daemon.metrics().render();
    const auto b = Clock::now();
    if (!text.empty()) us.push_back(ms_between(a, b) * 1e3);
  }
  return quantile(us, 0.5);
}

}  // namespace ledger
