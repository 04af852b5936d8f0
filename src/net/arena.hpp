// Arena-backed trace storage: one or few large slabs per trace instead
// of one heap allocation per captured frame.
//
// The analysis pipeline only ever *reads* bytes-on-the-wire, so frames
// can be {offset, len} views into immutable contiguous slabs. The arena
// supports three producers:
//   * append()  — copy bytes onto the slab tail (pcap decode of a
//     borrowed buffer);
//   * alloc()   — reserve contiguous bytes for in-place frame building
//     (the emulator writes Ethernet/IP/UDP headers straight into the
//     slab, no temporary vectors);
//   * adopt()   — register an externally owned immutable buffer (an
//     mmap'ed pcap file or a whole-file read) as a slab, making decode
//     zero-copy: frames become views over the file bytes themselves.
//
// Offsets are global and monotonically increasing across slabs; a frame
// is always contiguous within a single slab (alloc/append never split).
// Slabs never move once created, so views and raw pointers into the
// arena are stable for the arena's lifetime. Arenas are move-only:
// copying would either share a mutable tail or silently deep-copy
// multi-megabyte traces — both are bugs we'd rather not compile.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/bytes.hpp"

namespace rtcc::net {

class FrameArena {
 public:
  /// Owned slabs grow in 1 MiB steps: large enough that a full-scale
  /// 5-minute call (tens of MB) needs tens of slabs, small enough that
  /// a short trace doesn't waste memory.
  static constexpr std::size_t kSlabSize = std::size_t{1} << 20;

  FrameArena() = default;
  FrameArena(FrameArena&&) noexcept = default;
  FrameArena& operator=(FrameArena&&) noexcept = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  /// Total bytes registered (logical size; also the next offset).
  [[nodiscard]] std::uint64_t size() const { return size_; }
  [[nodiscard]] std::size_t slab_count() const { return slabs_.size(); }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Copies `bytes` onto the tail and returns its offset.
  std::uint64_t append(rtcc::util::BytesView bytes);

  /// Reserves `n` contiguous writable bytes and returns the pointer;
  /// `off` receives the global offset. The caller fills all `n` bytes.
  std::uint8_t* alloc(std::size_t n, std::uint64_t& off);

  /// Registers an externally owned immutable buffer as its own slab and
  /// returns its base offset. `keepalive` is held until the arena dies
  /// (pass the mmap unmapper or the owning vector; may be null when the
  /// caller guarantees `data` outlives the arena).
  std::uint64_t adopt(rtcc::util::BytesView data,
                      std::shared_ptr<void> keepalive);

  /// Resolves a view previously returned by append/alloc/adopt. Views
  /// that were never handed out (out of range or straddling a slab
  /// boundary) resolve to an empty view.
  [[nodiscard]] rtcc::util::BytesView view(std::uint64_t off,
                                           std::size_t len) const;

 private:
  struct Slab {
    std::unique_ptr<std::uint8_t[]> owned;  // null for adopted slabs
    std::shared_ptr<void> keepalive;        // adopted-buffer owner
    const std::uint8_t* data = nullptr;
    std::size_t used = 0;
    std::size_t cap = 0;  // == used for adopted slabs
    std::uint64_t base = 0;
  };

  /// Ensures the tail slab is owned with >= n free bytes.
  Slab& writable_tail(std::size_t n);

  std::vector<Slab> slabs_;
  std::uint64_t size_ = 0;
};

}  // namespace rtcc::net
