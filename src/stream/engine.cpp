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

using rtcc::filter::Disposition;

namespace {

/// Probe window mirroring filter::stream_sni: the ClientHello sits in
/// the first packets of a TCP stream.
constexpr std::uint8_t kSniProbePackets = 8;

/// Past every timestamp a pcap record can carry: 32-bit seconds plus a
/// sub-second part the reader clamps below one.
constexpr double kPcapClockEnd = 4294967297.0;  // 2^32 + 1 s

/// Table 1 accounting for one flow under its final disposition.
void account(CallAnalysis& out, const FlowRecord& rec, Disposition d) {
  const bool udp = rec.udp();
  if (udp) {
    ++out.raw_udp_streams;
    out.raw_udp_datagrams += rec.packet_count;
  } else {
    ++out.raw_tcp_streams;
    out.raw_tcp_segments += rec.packet_count;
  }
  const bool removed1 = d == Disposition::kStage1Timespan;
  const bool removed2 = rtcc::filter::is_stage2(d);
  auto& stage = removed1 ? (udp ? out.stage1_udp : out.stage1_tcp)
                : removed2 ? (udp ? out.stage2_udp : out.stage2_tcp)
                           : (udp ? out.rtc_udp : out.rtc_tcp);
  ++stage.streams;
  stage.packets += rec.packet_count;
}

}  // namespace

std::size_t StreamingAnalyzer::IpPairHash::operator()(
    const IpPair& p) const noexcept {
  const rtcc::net::IpAddrHash ih;
  std::size_t h = ih(p.first);
  h ^= ih(p.second) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

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
      nshards_(rtcc::report::effective_shards(opts)),
      settle_all_(fcfg.schedule.window_begin() <= 0 &&
                  fcfg.schedule.window_end() >= kPcapClockEnd) {}

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
    emit_epoch(/*final_pass=*/false, take_worklist());
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
  note_witnesses(rec);

  if (!rec.condemned) {
    if (rec.udp()) {
      rec.payload->push(decoded->payload, ts,
                        dir == Direction::kAtoB ? 0 : 1,
                        decoded->reassembled);
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

bool StreamingAnalyzer::is_device(const IpAddr& ip) const {
  return std::find(fcfg_.device_ips.begin(), fcfg_.device_ips.end(), ip) !=
         fcfg_.device_ips.end();
}

void StreamingAnalyzer::note_witnesses(FlowRecord& rec) {
  const double wb = fcfg_.schedule.window_begin();
  // Stage 1 enclosure is monotone in the packet span: once the span
  // leaves the expanded window the flow is condemned for good, and its
  // non-device endpoints become outside 3-tuples (stage 2a evidence).
  if (!rec.outside &&
      !(rec.first_ts >= wb && rec.last_ts <= fcfg_.schedule.window_end())) {
    rec.outside = true;
    if (!rec.condemned) condemn(rec);
    const FlowKey& k = rec.key;
    for (const auto& [ip, port] : {std::pair{k.a, k.a_port},
                                   std::pair{k.b, k.b_port}}) {
      if (is_device(ip)) continue;
      const ThreeTuple t{ip, port, k.transport};
      if (outside_tuples_.insert(t).second) fire_bucket(by_tuple_, t);
    }
  }
  // Stage 2c evidence: the flow's IP pair was active before the call.
  if (!rec.precall && rec.first_ts < wb) {
    rec.precall = true;
    const IpPair pair{rec.key.a, rec.key.b};
    if (precall_pairs_.insert(pair).second) fire_bucket(by_pair_, pair);
  }
}

template <typename Map, typename Key>
void StreamingAnalyzer::fire_bucket(Map& buckets, const Key& key) {
  const auto it = buckets.find(key);
  if (it == buckets.end()) return;
  auto& records = table_.records();
  for (const Ref& ref : it->second) {
    FlowRecord& rec = records[ref.slot];
    // Skip stale entries: the record settled through another witness
    // and was released (its slot possibly reused since).
    if (rec.emitted && rec.ordinal == ref.ordinal) amend_.push_back(ref.slot);
  }
  buckets.erase(it);
}

void StreamingAnalyzer::index_unsettled(const FlowRecord& rec) {
  const FlowKey& k = rec.key;
  const Ref ref{rec.slot, rec.ordinal};
  const bool a_dev = is_device(k.a);
  const bool b_dev = is_device(k.b);
  // An outside tuple already seen would have made the record 2a —
  // settled — so every tuple indexed here is still unseen.
  if (!a_dev) by_tuple_[ThreeTuple{k.a, k.a_port, k.transport}].push_back(ref);
  if (!b_dev) by_tuple_[ThreeTuple{k.b, k.b_port, k.transport}].push_back(ref);
  const bool local_remote =
      (!a_dev && k.a.is_local_scope()) || (!b_dev && k.b.is_local_scope());
  const IpPair pair{k.a, k.b};
  if (local_remote && precall_pairs_.count(pair) == 0)
    by_pair_[pair].push_back(ref);
}

void StreamingAnalyzer::on_evict(FlowRecord& rec, EvictReason reason) {
  if (reason == EvictReason::kDrain) return;  // finish() analyzes kept flows
  pending_.push_back(rec.slot);
  // Mid-capture eviction drops the payload bytes, so the flow must be
  // analyzed *now*, speculatively: whether it is kept is only known at
  // finish(), which discards the partial if the flow ends up filtered.
  if (rec.udp() && !rec.condemned && rec.payload &&
      !rec.payload->packets().empty()) {
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
  const std::size_t n = payload->packets().size();
  batch.reserve(n);
  payload->for_each([&](const FlowPacket& fp, rtcc::util::BytesView bytes) {
    batch.push(bytes, fp.ts, fp.dir);
    if (fp.reasm) ++part.nodes.decode.suspended;
  });
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
    // The keepalive pins the flow's payload slabs until the shard
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

Disposition StreamingAnalyzer::disposition_of(const FlowRecord& rec) const {
  // ---- Stage 1: timespan enclosure (filter::enclosed_in_window) ----
  if (rec.outside) return Disposition::kStage1Timespan;
  // ---- Stage 2 (filter::run_pipeline, from retained metadata and the
  // witness sets instead of a stream table) ----
  const FlowKey& k = rec.key;
  const bool a_dev = is_device(k.a);
  const bool b_dev = is_device(k.b);
  const auto outside = [&](const IpAddr& ip, std::uint16_t port) {
    return outside_tuples_.count(ThreeTuple{ip, port, k.transport}) > 0;
  };
  // 2a — 3-tuple timing.
  if ((!a_dev && outside(k.a, k.a_port)) || (!b_dev && outside(k.b, k.b_port)))
    return Disposition::kStage2ThreeTuple;
  // 2b — TLS SNI blocklist (TCP only).
  if (k.transport == Transport::kTcp && rec.sni &&
      rtcc::filter::sni_blocked(*rec.sni, fcfg_.sni_blocklist))
    return Disposition::kStage2Sni;
  // 2c — local-scope remote whose IP pair appeared pre-call.
  if (((!a_dev && k.a.is_local_scope()) || (!b_dev && k.b.is_local_scope())) &&
      precall_pairs_.count(IpPair{k.a, k.b}) > 0)
    return Disposition::kStage2LocalIp;
  // 2d — port-based exclusion.
  if (fcfg_.excluded_ports.count(k.a_port) > 0 ||
      fcfg_.excluded_ports.count(k.b_port) > 0)
    return Disposition::kStage2Port;
  return Disposition::kKept;
}

bool StreamingAnalyzer::settles(Disposition d) const {
  return settle_all_ || d == Disposition::kStage1Timespan ||
         d == Disposition::kStage2ThreeTuple;
}

void StreamingAnalyzer::set_epoch(double epoch_s, EpochSink sink) {
  epoch_s_ = epoch_s;
  sink_ = std::move(sink);
}

void StreamingAnalyzer::finish_epoch() {
  if (!sink_) return;
  emit_epoch(/*final_pass=*/false, take_worklist());
  epoch_anchor_ = clock_;
}

std::vector<std::size_t> StreamingAnalyzer::take_worklist() {
  auto& records = table_.records();
  std::vector<std::size_t> slots;
  slots.reserve(pending_.size() + amend_.size());
  // Provisional verdicts cover only retired flows (frozen span, frozen
  // metadata) whose speculative analysis — if any — has drained out of
  // the shard workers; anything else waits for a later epoch.
  std::size_t waiting = 0;
  for (const std::size_t slot : pending_) {
    const FlowRecord& rec = records[slot];
    if (rec.analysis_ready &&
        !rec.analysis_ready->load(std::memory_order_acquire))
      pending_[waiting++] = slot;
    else
      slots.push_back(slot);
  }
  pending_.resize(waiting);
  slots.insert(slots.end(), amend_.begin(), amend_.end());
  amend_.clear();
  std::sort(slots.begin(), slots.end(),
            [&records](std::size_t x, std::size_t y) {
              return records[x].ordinal < records[y].ordinal;
            });
  // Several witnesses may have queued the same record this epoch.
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

void StreamingAnalyzer::emit_epoch(bool final_pass,
                                   const std::vector<std::size_t>& slots) {
  EpochReport ep;
  ep.epoch = epoch_index_++;
  ep.clock_end = clock_;
  ep.frames = epoch_frames_;
  ep.bytes = epoch_bytes_;
  ep.final_pass = final_pass;
  epoch_frames_ = 0;
  epoch_bytes_ = 0;
  if (!sink_) return;  // window counters still reset: epochs stay disjoint

  auto& records = table_.records();
  std::vector<std::size_t> emitted;  // slot of each verdict, in order
  for (const std::size_t slot : slots) {
    FlowRecord& rec = records[slot];
    const Disposition d = disposition_of(rec);
    const bool first = !rec.emitted;
    if (!first && d == rec.emitted_disposition)
      continue;  // verdict stands — emitted ordinals never repeat
    const bool settled = final_pass || settles(d);
    if (first && !settled) index_unsettled(rec);
    rec.emitted = true;
    rec.emitted_disposition = d;
    FlowVerdict v;
    v.ordinal = rec.ordinal;
    v.key = rec.key;
    v.first_ts = rec.first_ts;
    v.last_ts = rec.last_ts;
    v.packets = rec.packet_count;
    v.disposition = d;
    v.final_pass = final_pass;
    v.amends = !first;
    v.settled = settled;
    const bool ready = !rec.analysis_ready ||
                       rec.analysis_ready->load(std::memory_order_acquire);
    if (d == Disposition::kKept && rec.udp() && rec.partial != nullptr && ready)
      v.partial = rec.partial.get();
    ep.verdicts.push_back(std::move(v));
    emitted.push_back(slot);
  }
  ep.flows = table_.stats();
  sink_(ep);
  if (final_pass) return;  // finish() accounts every held record itself

  // The sink is done with the partials: fold the settled flows into the
  // running aggregate and free their records.
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    const FlowVerdict& v = ep.verdicts[i];
    if (!v.settled) continue;
    FlowRecord& rec = records[emitted[i]];
    account(folded_, rec, v.disposition);
    if (v.disposition == Disposition::kKept && rec.partial != nullptr)
      rtcc::report::merge(folded_, *rec.partial);
    table_.release(emitted[i]);
  }
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
  const std::vector<std::size_t> held = table_.held_slots();

  // ---- Table 1 accounting of the held records, in stream-table order;
  // folded records were accounted when they settled ----
  CallAnalysis out;
  out.raw_bytes = raw_bytes_;
  out.ingest = capture_;
  out.ingest.merge(decoder_.stats());
  std::vector<std::size_t> kept_udp;
  for (const std::size_t slot : held) {
    const FlowRecord& rec = records[slot];
    const Disposition d = disposition_of(rec);
    account(out, rec, d);
    if (d == Disposition::kKept && rec.udp()) kept_udp.push_back(slot);
  }

  // ---- Finalize kept flows not already analyzed at eviction ----
  for (const std::size_t slot : kept_udp) {
    FlowRecord& rec = records[slot];
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
  emit_epoch(/*final_pass=*/true, held);

  // ---- Merge (merge() is order-insensitive, pinned by the merge-order
  // oracle, so the folded aggregate plus the held partials match the
  // batch path's stream-order merge byte for byte) ----
  rtcc::report::merge(out, folded_);
  if (per_stream != nullptr) {
    per_stream->clear();
    per_stream->reserve(kept_udp.size());
  }
  for (const std::size_t slot : kept_udp) {
    CallAnalysis& part = *records[slot].partial;
    rtcc::report::merge(out, part);
    if (per_stream != nullptr) per_stream->push_back(std::move(part));
  }
  out.flows = table_.stats();
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
