#include "emul/perturb.hpp"

#include <algorithm>

namespace rtcc::emul {

rtcc::net::Trace perturb(const rtcc::net::Trace& trace,
                         const PerturbConfig& config) {
  rtcc::util::Rng rng(config.seed);

  // Decide survivors/jitter/dups first over cheap (ts, source-frame)
  // descriptors, then copy bytes into the output trace in final order.
  struct Item {
    double ts;
    const rtcc::net::Frame* src;
  };
  std::vector<Item> items;
  items.reserve(trace.size());

  for (const auto& frame : trace.frames()) {
    if (rng.chance(config.drop_p)) continue;

    double ts = frame.ts;
    if (rng.chance(config.reorder_p)) {
      const double shift =
          (rng.uniform() * 2.0 - 1.0) * config.reorder_jitter_s;
      ts = std::max(0.0, ts + shift);
    }
    items.push_back(Item{ts, &frame});

    if (rng.chance(config.dup_p)) {
      // Retransmission-style near-duplicate.
      items.push_back(Item{ts + 0.0005, &frame});
    }
  }

  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.ts < b.ts; });

  // Like clone_trace: linktype, the capture-layer ingest ledger and
  // per-frame orig_len all survive the perturbation — a perturbed
  // capture is still the same capture to the PR 4 ledger oracles, and
  // the weather layer (emul/weather.hpp) composes on top of this.
  rtcc::net::Trace out;
  out.set_linktype(trace.linktype());
  out.ingest() = trace.ingest();
  out.reserve(items.size());
  for (const auto& item : items)
    out.add_frame(item.ts, trace.bytes(*item.src)).orig_len =
        item.src->orig_len;
  return out;
}

rtcc::net::Trace clone_trace(const rtcc::net::Trace& trace) {
  rtcc::net::Trace out;
  out.set_linktype(trace.linktype());
  out.ingest() = trace.ingest();
  out.reserve(trace.size());
  for (const auto& frame : trace.frames())
    out.add_frame(frame.ts, trace.bytes(frame)).orig_len = frame.orig_len;
  return out;
}

rtcc::net::Trace translate_time(const rtcc::net::Trace& trace, double dt) {
  rtcc::net::Trace out;
  out.set_linktype(trace.linktype());
  out.ingest() = trace.ingest();
  out.reserve(trace.size());
  for (const auto& frame : trace.frames())
    out.add_frame(frame.ts + dt, trace.bytes(frame)).orig_len = frame.orig_len;
  return out;
}

}  // namespace rtcc::emul
