// Classic libpcap (.pcap) file reader/writer.
//
// Reading accepts what real captures contain: microsecond magic
// (0xA1B2C3D4) and Wireshark's nanosecond magic (0xA1B23C4D), both byte
// orders, and any linktype — records are walked regardless and the
// linktype is stored on the Trace for per-frame L2 dispatch at decode
// time (see net/headers.hpp). The walk is fail-soft: a torn tail record
// (kill-9 mid-capture) ends the walk and is counted, a sub-second field
// >= its unit is clamped and counted, and incl_len < orig_len marks the
// frame snaplen-clipped — all in Trace::ingest() (net/ingest.hpp).
// Hard errors remain only for files that cannot be a capture at all
// (shorter than the global header, unknown magic). Files are written in
// native little-endian microsecond order like tcpdump does, preserving
// the trace's linktype and each frame's orig_len.
//
// Reading is zero-copy: read_pcap mmaps the file (read() with a single
// whole-file buffer as fallback), adopts the buffer into the trace's
// FrameArena, and registers each frame as an {offset, len} view over
// the file bytes — no per-packet allocation or copy.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/arena.hpp"
#include "net/headers.hpp"

namespace rtcc::net {

/// An ordered capture: what one Wireshark session on one device saw.
/// Frames are appended through add_frame (never by mutating a frames()
/// element), which keeps the byte total cached; their bytes always
/// live in the trace's FrameArena.
class Trace {
 public:
  Trace() = default;
  Trace(Trace&&) noexcept = default;
  Trace& operator=(Trace&&) noexcept = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] const std::vector<Frame>& frames() const { return frames_; }
  [[nodiscard]] std::size_t size() const { return frames_.size(); }
  [[nodiscard]] bool empty() const { return frames_.empty(); }
  /// Sum of all frame sizes — cached on append, O(1).
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] const FrameArena& arena() const { return arena_; }
  [[nodiscard]] FrameArena& arena() { return arena_; }

  /// pcap linktype governing how frames() bytes are decoded. Synthetic
  /// traces are Ethernet; captures carry whatever their header said.
  [[nodiscard]] std::uint32_t linktype() const { return linktype_; }
  void set_linktype(std::uint32_t linktype) { linktype_ = linktype; }

  /// Capture-layer ingestion diagnostics (all-zero for synthetic
  /// traces; populated by the pcap reader). Decode-layer counters are
  /// added downstream by group_streams.
  [[nodiscard]] const IngestStats& ingest() const { return ingest_; }
  [[nodiscard]] IngestStats& ingest() { return ingest_; }

  /// Resolves a frame's wire bytes.
  [[nodiscard]] rtcc::util::BytesView bytes(const Frame& f) const {
    return arena_.view(f.off, f.len);
  }
  [[nodiscard]] rtcc::util::BytesView frame_bytes(std::size_t i) const {
    return bytes(frames_[i]);
  }

  void reserve(std::size_t n) { frames_.reserve(n); }

  /// Copies `bytes` onto this trace's arena and appends the frame.
  Frame& add_frame(double ts, rtcc::util::BytesView bytes);

  /// Adopts a prebuilt frame: a view into this trace's arena (e.g.
  /// produced by build_frame_arena against arena() or an arena later
  /// passed to adopt_arena).
  Frame& add_frame(const Frame& f);

  /// Takes over an externally built arena (the emulator builds frames
  /// into a CallContext arena, sorts the descriptors, then hands the
  /// arena to the call's trace). Only valid while this arena is empty.
  void adopt_arena(FrameArena&& arena);

  /// Registers an externally owned immutable buffer (mmap'ed file,
  /// whole-file read) in the arena; returns its base offset for
  /// registering view frames over it.
  std::uint64_t adopt_buffer(rtcc::util::BytesView data,
                             std::shared_ptr<void> keepalive) {
    return arena_.adopt(data, std::move(keepalive));
  }

 private:
  FrameArena arena_;
  std::vector<Frame> frames_;
  std::uint64_t total_bytes_ = 0;
  std::uint32_t linktype_ = kLinkEthernet;
  IngestStats ingest_;
};

struct PcapError {
  std::string message;
};

/// Reads an entire .pcap file. Returns an error message only for files
/// that cannot be a capture (short global header, unknown magic); every
/// record-level defect is fail-soft and counted in the trace's
/// ingest(). The file is mmap'ed (or read once into a single adopted
/// buffer) and frames are zero-copy views into it.
[[nodiscard]] std::optional<Trace> read_pcap(const std::string& path,
                                             std::string* error = nullptr);

/// Writes `trace` as a classic pcap file (snaplen 262144).
[[nodiscard]] bool write_pcap(const std::string& path, const Trace& trace,
                              std::string* error = nullptr);

/// In-memory round trip used heavily by tests. decode_pcap copies frame
/// bytes out of `data` onto the trace's arena.
[[nodiscard]] rtcc::util::Bytes encode_pcap(const Trace& trace);

/// Capture-artifact knobs for encode_pcap_ex. The default reproduces
/// encode_pcap (native little-endian, microsecond magic); the variants
/// produce the byte-level rewritings real tooling emits — Wireshark's
/// nanosecond magic and opposite-endian global/record headers — which
/// must decode back to the same capture (testkit::meta relies on this).
struct PcapEncodeOptions {
  bool nanosecond = false;  // write 0xA1B23C4D and ns sub-second fields
  bool swapped = false;     // byte-swap every header field (foreign endian)
};

[[nodiscard]] rtcc::util::Bytes encode_pcap_ex(const Trace& trace,
                                               const PcapEncodeOptions& opts);
[[nodiscard]] std::optional<Trace> decode_pcap(rtcc::util::BytesView data,
                                               std::string* error = nullptr);

/// Zero-copy decode: `data` is adopted into the trace's arena and every
/// frame becomes a view into it. `keepalive` is held for the life of
/// the trace (the mmap unmapper or owning buffer; may be null when the
/// caller guarantees `data` outlives the trace, as benches do).
[[nodiscard]] std::optional<Trace> decode_pcap_zero_copy(
    rtcc::util::BytesView data, std::shared_ptr<void> keepalive = nullptr,
    std::string* error = nullptr);

/// Zero-copy decode taking ownership of a whole-file buffer.
[[nodiscard]] std::optional<Trace> decode_pcap_owned(
    rtcc::util::Bytes data, std::string* error = nullptr);

}  // namespace rtcc::net
