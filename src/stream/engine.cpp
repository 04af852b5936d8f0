#include "stream/engine.hpp"

#include <algorithm>
#include <utility>

#include "proto/tls/client_hello.hpp"
#include "report/shard.hpp"

namespace rtcc::stream {

using rtcc::filter::ThreeTuple;
using rtcc::net::Direction;
using rtcc::net::FlowKey;
using rtcc::net::IpAddr;
using rtcc::net::Transport;
using rtcc::report::CallAnalysis;

namespace {

bool is_device(const IpAddr& ip, const rtcc::filter::FilterConfig& cfg) {
  return std::find(cfg.device_ips.begin(), cfg.device_ips.end(), ip) !=
         cfg.device_ips.end();
}

/// Probe window mirroring filter::stream_sni: the ClientHello sits in
/// the first packets of a TCP stream.
constexpr std::uint8_t kSniProbePackets = 8;

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(std::uint32_t linktype,
                                     const rtcc::filter::FilterConfig& fcfg,
                                     const rtcc::report::AnalysisOptions& opts,
                                     const StreamOptions& sopts)
    : fcfg_(fcfg),
      opts_(opts),
      sopts_(sopts),
      table_({sopts.max_flows, sopts.idle_timeout_s}),
      linktype_(linktype),
      decoder_(linktype),
      dpi_(opts.scan),
      in_flight_(std::make_shared<std::atomic<std::uint64_t>>(0)),
      nshards_(rtcc::report::effective_shards(opts)) {}

StreamingAnalyzer::~StreamingAnalyzer() = default;

void StreamingAnalyzer::set_linktype(std::uint32_t linktype) {
  if (linktype == linktype_) return;  // keep decoder state across captures
  // A genuine linktype switch needs a fresh decoder; bank its ledger
  // first so finish()'s ingest totals still cover every capture.
  capture_.merge(decoder_.stats());
  linktype_ = linktype;
  decoder_ = rtcc::net::FrameDecoder(linktype);
}

rtcc::net::IngestStats StreamingAnalyzer::ingest_totals() const {
  rtcc::net::IngestStats totals = capture_;
  totals.merge(decoder_.stats());
  return totals;
}

std::uint64_t StreamingAnalyzer::live_bytes() const {
  return live_flow_bytes_ + in_flight_->load(std::memory_order_relaxed) +
         external_live_;
}

void StreamingAnalyzer::note_external_live(std::uint64_t bytes) {
  external_live_ = bytes;
  update_peak();
}

void StreamingAnalyzer::update_peak() {
  const std::uint64_t live = live_bytes();
  if (live > table_.stats().live_peak_bytes)
    table_.stats().live_peak_bytes = live;
}

void StreamingAnalyzer::condemn(FlowRecord& rec) {
  rec.condemned = true;
  if (rec.payload) {
    live_flow_bytes_ -= rec.payload->footprint();
    rec.payload.reset();
  }
}

void StreamingAnalyzer::push_frame(rtcc::util::BytesView wire, double ts,
                                   std::uint32_t orig_len) {
  raw_bytes_ += wire.size();
  clock_ = std::max(clock_, ts);
  // Epoch boundary: epochs partition the *arrival sequence* at
  // high-water clock crossings, so every pushed frame lands in exactly
  // one epoch (frame conservation holds even with non-monotonic
  // timestamps). The boundary fires before this frame touches the
  // table — the closing window covers strictly earlier arrivals.
  if (!epoch_open_) {
    epoch_open_ = true;
    epoch_anchor_ = clock_;
  } else if (epoch_s_ > 0 && clock_ >= epoch_anchor_ + epoch_s_) {
    emit_epoch(/*final_pass=*/false, nullptr);
    epoch_anchor_ = clock_;
  }
  ++epoch_frames_;
  epoch_bytes_ += wire.size();
  const bool clipped = orig_len > wire.size();
  auto decoded = decoder_.decode(wire, ts, clipped);
  if (!decoded) return;

  // Retire idle flows *before* the new packet claims its own — the
  // packet's flow must not be expired by the very frame that extends it.
  const auto evict_fn = [this](FlowRecord& r, EvictReason reason) {
    on_evict(r, reason);
  };
  table_.expire_idle(clock_, evict_fn);

  auto [key, dir] = rtcc::net::canonical_flow(*decoded);
  auto touched = table_.touch(key, clock_);
  FlowRecord& rec = touched.rec;
  if (touched.created) {
    rec.first_ts = ts;
    rec.last_ts = ts;
    // Stage 2d is static on the key: an excluded port on either side
    // means the flow can never be kept, so its payloads never buffer.
    if (fcfg_.excluded_ports.count(key.a_port) > 0 ||
        fcfg_.excluded_ports.count(key.b_port) > 0)
      rec.condemned = true;
    if (!rec.condemned && rec.udp())
      rec.payload = std::make_shared<FlowPayload>();
  } else {
    rec.first_ts = std::min(rec.first_ts, ts);
    rec.last_ts = std::max(rec.last_ts, ts);
  }
  ++rec.packet_count;

  // Stage 1 enclosure is monotone in the packet span: one timestamp
  // outside the expanded window condemns the flow for good.
  if (!rec.condemned && (ts < fcfg_.schedule.window_begin() ||
                         ts > fcfg_.schedule.window_end()))
    condemn(rec);

  if (!rec.condemned) {
    if (rec.udp()) {
      FlowPayload& p = *rec.payload;
      p.bytes.insert(p.bytes.end(), decoded->payload.begin(),
                     decoded->payload.end());
      FlowPacket fp;
      fp.ts = ts;
      fp.len = static_cast<std::uint32_t>(decoded->payload.size());
      fp.dir = dir == Direction::kAtoB ? 0 : 1;
      fp.reasm = decoded->reassembled;
      p.packets.push_back(fp);
      live_flow_bytes_ += decoded->payload.size() + sizeof(FlowPacket);
    } else if (rec.sni_probed < kSniProbePackets && !rec.sni) {
      // filter::stream_sni scans the first kMaxProbe packets (empty
      // payloads consume probe slots too) and keeps the first hit.
      ++rec.sni_probed;
      if (!decoded->payload.empty())
        rec.sni = rtcc::proto::tls::extract_sni(decoded->payload);
    }
  }

  table_.enforce_capacity(evict_fn);
  update_peak();
}

void StreamingAnalyzer::on_evict(FlowRecord& rec, EvictReason reason) {
  if (reason == EvictReason::kDrain) return;  // finish() analyzes kept flows
  // Mid-capture eviction drops the payload bytes, so the flow must be
  // analyzed *now*, speculatively: whether it is kept is only known at
  // finish(), which discards the partial if the flow ends up filtered.
  if (rec.udp() && !rec.condemned && rec.payload &&
      !rec.payload->packets.empty()) {
    auto payload = std::move(rec.payload);
    live_flow_bytes_ -= payload->footprint();
    analyze_record(rec, std::move(payload));
  } else if (rec.payload) {
    live_flow_bytes_ -= rec.payload->footprint();
    rec.payload.reset();
  }
}

void StreamingAnalyzer::analyze_record(FlowRecord& rec,
                                       std::shared_ptr<FlowPayload> payload) {
  rec.partial = std::make_unique<CallAnalysis>();
  CallAnalysis& part = *rec.partial;
  ++table_.stats().finalized;

  // Whole-flow batch over the buffered payloads, in arrival order —
  // exactly the batch the batch path's per-stream chunk loop builds.
  rtcc::net::PacketBatch batch;
  const std::size_t n = payload->packets.size();
  batch.reserve(n);
  std::size_t off = 0;
  for (const FlowPacket& fp : payload->packets) {
    batch.push({payload->bytes.data() + off, fp.len}, fp.ts, fp.dir);
    off += fp.len;
    if (fp.reasm) ++part.nodes.decode.suspended;
  }
  // Decode-node accounting replays decode_stream_chunk's bsz chunking,
  // so node counters match the batch path.
  constexpr std::size_t bsz = rtcc::net::kBatchSize;
  for (std::size_t base = 0; base < n; base += bsz) {
    ++part.nodes.decode.vectors;
    part.nodes.decode.packets += std::min(n, base + bsz) - base;
  }

  if (nshards_ > 1) {
    if (!pipe_) {
      rtcc::report::ShardedPipeline::Options popts;
      popts.shards = nshards_;
      popts.scan = opts_.scan;
      popts.compliance = opts_.compliance;
      pipe_ = std::make_unique<rtcc::report::ShardedPipeline>(popts);
    }
    // The keepalive pins the flow's payload buffer until the shard
    // worker analyzed it; its deleter keeps the in-flight bytes in the
    // live peak until then, and publishes the partial as readable —
    // the worker stores *part before releasing the keepalive, so the
    // release/acquire pair orders the epoch emitter after the write.
    const std::uint64_t sz = payload->footprint();
    in_flight_->fetch_add(sz, std::memory_order_relaxed);
    rec.analysis_ready = std::make_shared<std::atomic<bool>>(false);
    auto counter = in_flight_;
    auto ready = rec.analysis_ready;
    std::shared_ptr<const void> keep(
        payload.get(), [payload, counter, sz, ready](const void*) mutable {
          counter->fetch_sub(sz, std::memory_order_relaxed);
          payload.reset();
          ready->store(true, std::memory_order_release);
        });
    pipe_->submit_batch(rec.key, batch, &part, std::move(keep));
  } else {
    report::detail::analyze_stream_batch(dpi_, opts_.compliance, batch, part);
  }
}

std::vector<rtcc::filter::Disposition> StreamingAnalyzer::compute_dispositions()
    const {
  using rtcc::filter::Disposition;
  const auto& records = table_.records();
  const std::size_t n = records.size();
  const double wb = fcfg_.schedule.window_begin();
  const double we = fcfg_.schedule.window_end();

  // ---- Stage 1: timespan enclosure (filter::enclosed_in_window) ----
  std::vector<bool> removed1(n, false);
  for (std::size_t i = 0; i < n; ++i)
    removed1[i] = !(records[i].first_ts >= wb && records[i].last_ts <= we);

  // ---- Stage 2 evidence (filter::run_pipeline, from retained
  // metadata instead of a stream table). Both witness sets only ever
  // grow as flows accumulate, which is what makes mid-capture
  // (epoch-boundary) dispositions provisional in one direction only:
  // kept can later flip to removed, removed never flips back. ----
  std::vector<ThreeTuple> outside_tuples;
  for (std::size_t i = 0; i < n; ++i) {
    if (!removed1[i]) continue;
    const FlowKey& k = records[i].key;
    if (!is_device(k.a, fcfg_))
      outside_tuples.push_back(ThreeTuple{k.a, k.a_port, k.transport});
    if (!is_device(k.b, fcfg_))
      outside_tuples.push_back(ThreeTuple{k.b, k.b_port, k.transport});
  }
  std::sort(outside_tuples.begin(), outside_tuples.end());
  outside_tuples.erase(
      std::unique(outside_tuples.begin(), outside_tuples.end()),
      outside_tuples.end());

  std::vector<std::pair<IpAddr, IpAddr>> precall_pairs;
  for (std::size_t i = 0; i < n; ++i)
    if (records[i].first_ts < wb)
      precall_pairs.emplace_back(records[i].key.a, records[i].key.b);
  std::sort(precall_pairs.begin(), precall_pairs.end());
  precall_pairs.erase(
      std::unique(precall_pairs.begin(), precall_pairs.end()),
      precall_pairs.end());

  const auto tuple_outside = [&](const IpAddr& ip, std::uint16_t port,
                                 Transport transport) {
    return std::binary_search(outside_tuples.begin(), outside_tuples.end(),
                              ThreeTuple{ip, port, transport});
  };

  std::vector<Disposition> disp(n, Disposition::kKept);
  for (std::size_t i = 0; i < n; ++i) {
    const FlowKey& k = records[i].key;
    if (removed1[i]) {
      disp[i] = Disposition::kStage1Timespan;
      continue;
    }
    const bool a_dev = is_device(k.a, fcfg_);
    const bool b_dev = is_device(k.b, fcfg_);
    // 2a — 3-tuple timing.
    if ((!a_dev && tuple_outside(k.a, k.a_port, k.transport)) ||
        (!b_dev && tuple_outside(k.b, k.b_port, k.transport))) {
      disp[i] = Disposition::kStage2ThreeTuple;
    } else if (k.transport == Transport::kTcp && records[i].sni &&
               rtcc::filter::sni_blocked(*records[i].sni,
                                         fcfg_.sni_blocklist)) {
      // 2b — TLS SNI blocklist (TCP only).
      disp[i] = Disposition::kStage2Sni;
    } else if (((!a_dev && k.a.is_local_scope()) ||
                (!b_dev && k.b.is_local_scope())) &&
               std::binary_search(precall_pairs.begin(), precall_pairs.end(),
                                  std::make_pair(k.a, k.b))) {
      // 2c — local-scope remote whose IP pair appeared pre-call.
      disp[i] = Disposition::kStage2LocalIp;
    } else if (fcfg_.excluded_ports.count(k.a_port) > 0 ||
               fcfg_.excluded_ports.count(k.b_port) > 0) {
      // 2d — port-based exclusion.
      disp[i] = Disposition::kStage2Port;
    }
  }
  return disp;
}

void StreamingAnalyzer::set_epoch(double epoch_s, EpochSink sink) {
  epoch_s_ = epoch_s;
  sink_ = std::move(sink);
}

void StreamingAnalyzer::finish_epoch() {
  if (!sink_) return;
  emit_epoch(/*final_pass=*/false, nullptr);
  epoch_anchor_ = clock_;
}

void StreamingAnalyzer::emit_epoch(
    bool final_pass, const std::vector<rtcc::filter::Disposition>* precomputed) {
  EpochReport ep;
  ep.epoch = epoch_index_++;
  ep.clock_end = clock_;
  ep.frames = epoch_frames_;
  ep.bytes = epoch_bytes_;
  ep.final_pass = final_pass;
  epoch_frames_ = 0;
  epoch_bytes_ = 0;
  if (!sink_) return;  // window counters still reset: epochs stay disjoint

  std::vector<rtcc::filter::Disposition> local;
  if (precomputed == nullptr) {
    local = compute_dispositions();
    precomputed = &local;
  }
  const auto& disp = *precomputed;
  const auto& records = table_.records();
  emitted_.resize(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FlowRecord& rec = records[i];
    EmitState& st = emitted_[i];
    const bool ready =
        !rec.analysis_ready ||
        rec.analysis_ready->load(std::memory_order_acquire);
    const bool first = !st.emitted;
    if (first) {
      if (!final_pass) {
        // Provisional verdicts cover only retired flows (frozen span,
        // frozen metadata) whose speculative analysis — if any — has
        // drained out of the shard workers; anything else waits for a
        // later epoch.
        if (!rec.retired) continue;
        if (rec.partial != nullptr && !ready) continue;
      }
    } else if (st.disposition == disp[i]) {
      continue;  // verdict stands — emitted ordinals never repeat
    }
    st.emitted = true;
    st.disposition = disp[i];
    FlowVerdict v;
    v.ordinal = rec.ordinal;
    v.key = rec.key;
    v.first_ts = rec.first_ts;
    v.last_ts = rec.last_ts;
    v.packets = rec.packet_count;
    v.disposition = disp[i];
    v.final_pass = final_pass;
    v.amends = !first;
    if (disp[i] == rtcc::filter::Disposition::kKept && rec.udp() &&
        rec.partial != nullptr && ready)
      v.partial = rec.partial.get();
    ep.verdicts.push_back(std::move(v));
  }
  ep.flows = table_.stats();
  sink_(ep);
}

CallAnalysis StreamingAnalyzer::finish(std::vector<CallAnalysis>* per_stream) {
  finished_ = true;
  decoder_.finish();
  // Drain keeps payloads in place: dispositions are computed first so
  // end-of-capture flows are only analyzed when actually kept — the
  // same work the batch path does, in the same per-stream order.
  table_.drain([this](FlowRecord& r, EvictReason reason) {
    on_evict(r, reason);
  });

  auto& records = table_.records();
  const std::size_t n = records.size();
  const auto disp = compute_dispositions();

  // ---- Table 1 accounting, in stream-table order ----
  CallAnalysis out;
  out.raw_bytes = raw_bytes_;
  out.ingest = capture_;
  out.ingest.merge(decoder_.stats());

  std::vector<std::size_t> kept_udp;
  for (std::size_t i = 0; i < n; ++i) {
    const FlowRecord& rec = records[i];
    const bool udp = rec.udp();
    if (udp) {
      ++out.raw_udp_streams;
      out.raw_udp_datagrams += rec.packet_count;
    } else {
      ++out.raw_tcp_streams;
      out.raw_tcp_segments += rec.packet_count;
    }

    const bool removed1 = disp[i] == rtcc::filter::Disposition::kStage1Timespan;
    const bool removed2 = rtcc::filter::is_stage2(disp[i]);
    auto& stage = removed1 ? (udp ? out.stage1_udp : out.stage1_tcp)
                 : removed2 ? (udp ? out.stage2_udp : out.stage2_tcp)
                            : (udp ? out.rtc_udp : out.rtc_tcp);
    ++stage.streams;
    stage.packets += rec.packet_count;
    if (disp[i] == rtcc::filter::Disposition::kKept && udp)
      kept_udp.push_back(i);
  }

  // ---- Finalize kept flows not already analyzed at eviction ----
  for (std::size_t i : kept_udp) {
    FlowRecord& rec = records[i];
    if (rec.partial) continue;  // speculatively analyzed at eviction
    auto payload = std::move(rec.payload);
    live_flow_bytes_ -= payload->footprint();
    analyze_record(rec, std::move(payload));
  }
  if (pipe_) pipe_->finish();

  // ---- Final epoch: every shard has drained, every flow is retired,
  // the evidence is complete — emit first-time verdicts for everything
  // unemitted and amendments for any provisional verdict the complete
  // evidence overturned. Runs before the partials move out below so
  // kept verdicts can still point at their analyses. ----
  emit_epoch(/*final_pass=*/true, &disp);

  // ---- Merge in stream-table order (merge() is order-insensitive,
  // pinned by the merge-order oracle, so this matches the batch path's
  // stream- and shard-order merges byte for byte) ----
  std::vector<CallAnalysis> partials;
  partials.reserve(kept_udp.size());
  for (std::size_t i : kept_udp) {
    rtcc::report::merge(out, *records[i].partial);
    partials.push_back(std::move(*records[i].partial));
    records[i].partial.reset();
  }
  out.flows = table_.stats();
  if (per_stream != nullptr) *per_stream = std::move(partials);
  return out;
}

CallAnalysis analyze_trace_streaming(const rtcc::net::Trace& trace,
                                     const rtcc::filter::FilterConfig& fcfg,
                                     const rtcc::report::AnalysisOptions& opts,
                                     const StreamOptions& sopts,
                                     std::vector<CallAnalysis>* per_stream) {
  StreamingAnalyzer engine(trace.linktype(), fcfg, opts, sopts);
  engine.capture_stats() = trace.ingest();
  for (const auto& frame : trace.frames())
    engine.push_frame(trace.bytes(frame), frame.ts, frame.orig_len);
  return engine.finish(per_stream);
}

}  // namespace rtcc::stream
