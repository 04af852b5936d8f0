#include "emul/weather.hpp"

#include <algorithm>

#include "net/headers.hpp"

namespace rtcc::emul {

using rtcc::util::Bytes;
using rtcc::util::BytesView;
using rtcc::util::load_be16;
using rtcc::util::store_be16;

namespace {

/// True when `f` is an unfragmented Ethernet IPv4 UDP frame whose
/// stored bytes span exactly the IP datagram (the only shape the MTU
/// clamp can split without inventing bytes).
bool clampable(BytesView f, std::size_t mtu, std::size_t* ihl_out) {
  if (f.size() <= mtu) return false;
  if (f.size() < 14 + 20 || load_be16(f.data() + 12) != 0x0800) return false;
  const std::uint8_t* ip = f.data() + 14;
  if ((ip[0] >> 4) != 4) return false;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
  const std::uint16_t total_len = load_be16(ip + 2);
  if (ihl < 20 || ip[9] != 17) return false;
  if ((load_be16(ip + 6) & 0x3FFF) != 0) return false;  // already a fragment
  if (14 + static_cast<std::size_t>(total_len) != f.size()) return false;
  if (total_len <= ihl) return false;
  *ihl_out = ihl;
  return true;
}

}  // namespace

WeatherResult apply_weather(const rtcc::net::Trace& trace,
                            const WeatherConfig& config) {
  rtcc::util::Rng rng(config.seed);
  WeatherResult out;
  out.trace.set_linktype(trace.linktype());
  out.trace.ingest() = trace.ingest();

  struct Item {
    double ts;
    const rtcc::net::Frame* src;
  };
  std::vector<Item> items;
  items.reserve(trace.size());

  bool bad = false;           // Gilbert–Elliott channel state
  double burst_until = -1.0;  // jitter-burst end (original time axis)
  for (const auto& frame : trace.frames()) {
    // Evolve the GE chain once per frame, then draw the state's loss.
    if (!bad && rng.chance(config.ge_p)) {
      bad = true;
      ++out.stats.bursts;
    } else if (bad && rng.chance(config.ge_r)) {
      bad = false;
    }
    if (rng.chance(bad ? config.loss_bad : config.loss_good)) {
      ++out.stats.dropped;
      continue;
    }

    double ts = frame.ts;
    if (rng.chance(config.reorder_p)) {
      ts = std::max(0.0, ts + (rng.uniform() * 2.0 - 1.0) *
                             config.reorder_window_s);
      ++out.stats.reordered;
    }
    // Jitter bursts delay every frame whose *original* timestamp falls
    // inside the burst window — shared-queue delay, not per-packet.
    if (frame.ts < burst_until) {
      ts += rng.uniform() * config.jitter_s;
      ++out.stats.delayed;
    } else if (rng.chance(config.jitter_burst_p)) {
      burst_until = frame.ts + config.jitter_burst_s;
      ts += rng.uniform() * config.jitter_s;
      ++out.stats.delayed;
    }
    items.push_back(Item{ts, &frame});

    if (rng.chance(config.dup_p)) {
      const int copies = 1 + static_cast<int>(rng.below(
                                 static_cast<std::uint32_t>(
                                     std::max(1, config.dup_run))));
      for (int c = 1; c <= copies; ++c) {
        items.push_back(Item{ts + config.dup_gap_s * c, &frame});
        ++out.stats.duplicated;
      }
    }
  }

  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.ts < b.ts; });

  const bool clamp = config.mtu >= 14 + 20 + 8;
  std::uint16_t ident = 0;
  Bytes buf;
  out.trace.reserve(items.size());
  for (const auto& item : items) {
    const BytesView f = trace.bytes(*item.src);
    std::size_t ihl = 0;
    if (!clamp || !clampable(f, config.mtu, &ihl)) {
      out.trace.add_frame(item.ts, f).orig_len = item.src->orig_len;
      continue;
    }
    // Split the L4 bytes into MTU-sized pieces at 8-byte-aligned
    // offsets; fragments are consecutive at the same timestamp, so the
    // downstream FrameDecoder sees them back to back.
    const std::size_t l4_len = f.size() - 14 - ihl;
    std::size_t chunk = 8 * ((config.mtu - 14 - ihl) / 8);
    if (chunk == 0) chunk = 8;
    ident = static_cast<std::uint16_t>(ident + 1);
    if (ident == 0) ident = 1;
    for (std::size_t off = 0; off < l4_len; off += chunk) {
      const std::size_t len = std::min(chunk, l4_len - off);
      const bool more = off + len < l4_len;
      buf.assign(f.begin(), f.begin() + 14 + ihl);
      buf.insert(buf.end(), f.begin() + 14 + ihl + off,
                 f.begin() + 14 + ihl + off + len);
      std::uint8_t* nip = buf.data() + 14;
      store_be16(nip + 2, static_cast<std::uint16_t>(ihl + len));
      store_be16(nip + 4, ident);
      store_be16(nip + 6,
                 static_cast<std::uint16_t>((more ? 0x2000 : 0) | (off / 8)));
      store_be16(nip + 10, 0);
      store_be16(nip + 10,
                 rtcc::net::internet_checksum(BytesView{nip, ihl}));
      out.trace.add_frame(item.ts, buf);
      ++out.stats.frag_frames;
    }
    ++out.stats.frag_datagrams;
  }
  return out;
}

}  // namespace rtcc::emul
