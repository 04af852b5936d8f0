#include "net/pcap.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define RTCC_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace rtcc::net {

using rtcc::util::Bytes;
using rtcc::util::BytesView;

namespace {

constexpr std::uint32_t kMagicNative = 0xA1B2C3D4;    // microseconds
constexpr std::uint32_t kMagicSwapped = 0xD4C3B2A1;
constexpr std::uint32_t kMagicNativeNs = 0xA1B23C4D;  // nanoseconds
constexpr std::uint32_t kMagicSwappedNs = 0x4D3CB2A1;
constexpr std::uint32_t kSnapLen = 262144;

std::uint32_t load32(const std::uint8_t* p, bool swap) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  if (swap) v = __builtin_bswap32(v);
  return v;
}

void push32(Bytes& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 4);
}

void push16(Bytes& out, std::uint16_t v) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), p, p + 2);
}

void set_error(std::string* error, const char* msg) {
  if (error) *error = msg;
}

/// Shared record walk of both decode paths: validates the global header,
/// then hands (ts, payload offset, incl_len, orig_len) for every intact
/// record to the sink — which either copies the bytes or registers a
/// view. Fail-soft: a torn tail record ends the walk and increments
/// stats.torn_tail instead of failing the whole file; a sub-second
/// field >= its unit is clamped to the last representable tick and
/// counted; incl_len < orig_len counts as snaplen-clipped. Hard errors
/// remain only for files that cannot be a capture at all.
template <typename FrameSink>
bool parse_pcap(BytesView data, std::string* error, IngestStats& stats,
                std::uint32_t& linktype, FrameSink&& on_frame) {
  if (data.size() < 24) {
    set_error(error, "pcap: file shorter than global header");
    return false;
  }
  std::uint32_t magic;
  std::memcpy(&magic, data.data(), 4);
  bool swap = false;
  bool nanos = false;
  if (magic == kMagicNative) {
  } else if (magic == kMagicSwapped) {
    swap = true;
  } else if (magic == kMagicNativeNs) {
    nanos = true;
  } else if (magic == kMagicSwappedNs) {
    swap = true;
    nanos = true;
  } else {
    set_error(error, "pcap: bad magic number");
    return false;
  }
  // Any linktype is accepted here; frames under one the decoder does
  // not understand are counted per-frame (unsupported_linktype) at
  // decode time, so the capture-layer accounting still runs.
  linktype = load32(data.data() + 20, swap);

  const std::uint32_t unit = nanos ? 1000000000u : 1000000u;
  const double scale = nanos ? 1e-9 : 1e-6;
  std::size_t pos = 24;
  while (pos < data.size()) {
    if (pos + 16 > data.size()) {
      ++stats.torn_tail;  // record header cut mid-bytes
      break;
    }
    const std::uint32_t sec = load32(data.data() + pos, swap);
    std::uint32_t sub = load32(data.data() + pos + 4, swap);
    const std::uint32_t incl = load32(data.data() + pos + 8, swap);
    const std::uint32_t orig = load32(data.data() + pos + 12, swap);
    pos += 16;
    if (incl > data.size() || pos + incl > data.size()) {
      ++stats.torn_tail;  // record payload cut mid-bytes
      break;
    }
    ++stats.frames_seen;
    if (sub >= unit) {
      // A fractional-second value >= one second would reorder frames;
      // clamp to the last representable tick (deterministic) and count.
      sub = unit - 1;
      ++stats.bad_usec;
    }
    if (orig > incl) ++stats.snaplen_clipped;
    const double ts =
        static_cast<double>(sec) + static_cast<double>(sub) * scale;
    on_frame(ts, pos, incl, orig);
    pos += incl;
  }
  return true;
}

}  // namespace

Frame& Trace::add_frame(double ts, BytesView bytes) {
  Frame f;
  f.ts = ts;
  f.len = static_cast<std::uint32_t>(bytes.size());
  f.off = bytes.empty() ? 0 : arena_.append(bytes);
  return add_frame(f);
}

Frame& Trace::add_frame(const Frame& f) {
  total_bytes_ += f.size();
  frames_.push_back(f);
  return frames_.back();
}

void Trace::adopt_arena(FrameArena&& arena) {
  // Offsets of already-registered view frames would shift if slabs were
  // merged, so adoption is only defined onto an empty arena.
  if (!arena_.empty()) return;
  arena_ = std::move(arena);
}

Bytes encode_pcap(const Trace& trace) {
  return encode_pcap_ex(trace, PcapEncodeOptions{});
}

Bytes encode_pcap_ex(const Trace& trace, const PcapEncodeOptions& opts) {
  const auto emit32 = [&](Bytes& out, std::uint32_t v) {
    push32(out, opts.swapped ? __builtin_bswap32(v) : v);
  };
  const auto emit16 = [&](Bytes& out, std::uint16_t v) {
    push16(out, opts.swapped ? static_cast<std::uint16_t>(
                                   (v >> 8) | (v << 8))
                             : v);
  };
  const double sub_unit = opts.nanosecond ? 1e9 : 1e6;
  const auto sub_mod = opts.nanosecond ? 1000000000LL : 1000000LL;

  Bytes out;
  out.reserve(24 + trace.size() * 16 + trace.total_bytes());
  push32(out, opts.swapped
                  ? __builtin_bswap32(opts.nanosecond ? kMagicNativeNs
                                                      : kMagicNative)
                  : (opts.nanosecond ? kMagicNativeNs : kMagicNative));
  emit16(out, 2);  // version major
  emit16(out, 4);  // version minor
  emit32(out, 0);  // thiszone
  emit32(out, 0);  // sigfigs
  emit32(out, kSnapLen);
  emit32(out, trace.linktype());

  for (const auto& f : trace.frames()) {
    const double ts = f.ts < 0 ? 0.0 : f.ts;
    const auto sec = static_cast<std::uint32_t>(ts);
    const auto sub = static_cast<std::uint32_t>(
        std::llround((ts - static_cast<double>(sec)) * sub_unit) % sub_mod);
    const BytesView bytes = trace.bytes(f);
    const auto incl = static_cast<std::uint32_t>(bytes.size());
    emit32(out, sec);
    emit32(out, sub);
    emit32(out, incl);
    // Preserve the on-the-wire length of snaplen-clipped captures.
    emit32(out, f.orig_len != 0 ? f.orig_len : incl);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

std::optional<Trace> decode_pcap(BytesView data, std::string* error) {
  Trace trace;
  std::uint32_t linktype = kLinkEthernet;
  if (!parse_pcap(data, error, trace.ingest(), linktype,
                  [&](double ts, std::size_t pos, std::uint32_t incl,
                      std::uint32_t orig) {
                    trace.add_frame(ts, data.subspan(pos, incl)).orig_len =
                        orig;
                  }))
    return std::nullopt;
  trace.set_linktype(linktype);
  return trace;
}

std::optional<Trace> decode_pcap_zero_copy(BytesView data,
                                           std::shared_ptr<void> keepalive,
                                           std::string* error) {
  Trace trace;
  const std::uint64_t base = trace.adopt_buffer(data, std::move(keepalive));
  std::uint32_t linktype = kLinkEthernet;
  if (!parse_pcap(data, error, trace.ingest(), linktype,
                  [&](double ts, std::size_t pos, std::uint32_t incl,
                      std::uint32_t orig) {
                    trace.add_frame(Frame{ts, base + pos, incl, orig});
                  }))
    return std::nullopt;
  trace.set_linktype(linktype);
  return trace;
}

std::optional<Trace> decode_pcap_owned(Bytes data, std::string* error) {
  auto owner = std::make_shared<Bytes>(std::move(data));
  return decode_pcap_zero_copy(BytesView{*owner}, owner, error);
}

namespace {

std::optional<Trace> read_pcap_buffered(std::FILE* fp, std::string* error) {
  Bytes data;
  std::uint8_t buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), fp)) > 0)
    data.insert(data.end(), buf, buf + n);
  return decode_pcap_owned(std::move(data), error);
}

}  // namespace

std::optional<Trace> read_pcap(const std::string& path, std::string* error) {
#ifdef RTCC_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    set_error(error, "pcap: cannot open file");
    return std::nullopt;
  }
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    const auto len = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      std::shared_ptr<void> unmapper(map,
                                     [len](void* p) { ::munmap(p, len); });
      return decode_pcap_zero_copy(
          BytesView{static_cast<const std::uint8_t*>(map), len},
          std::move(unmapper), error);
    }
  }
  // mmap unavailable (empty file, pipe, weird fs): single-buffer read.
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> fp(::fdopen(fd, "rb"),
                                                     &std::fclose);
  if (!fp) ::close(fd);
#else
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> fp(
      std::fopen(path.c_str(), "rb"), &std::fclose);
#endif
  if (!fp) {
    set_error(error, "pcap: cannot open file");
    return std::nullopt;
  }
  return read_pcap_buffered(fp.get(), error);
}

bool write_pcap(const std::string& path, const Trace& trace,
                std::string* error) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> fp(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (!fp) {
    set_error(error, "pcap: cannot open file for writing");
    return false;
  }
  Bytes data = encode_pcap(trace);
  if (std::fwrite(data.data(), 1, data.size(), fp.get()) != data.size()) {
    set_error(error, "pcap: short write");
    return false;
  }
  return true;
}

}  // namespace rtcc::net
