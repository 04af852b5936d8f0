#include "net/arena.hpp"

#include <algorithm>
#include <cstring>

namespace rtcc::net {

FrameArena::Slab& FrameArena::writable_tail(std::size_t n) {
  if (!slabs_.empty()) {
    Slab& tail = slabs_.back();
    if (tail.owned && tail.cap - tail.used >= n) return tail;
  }
  Slab slab;
  slab.cap = std::max(kSlabSize, n);
  // for_overwrite: a value-initialized slab would memset the whole
  // megabyte before the producer overwrites every byte anyway.
  slab.owned = std::make_unique_for_overwrite<std::uint8_t[]>(slab.cap);
  slab.data = slab.owned.get();
  slab.base = size_;
  slabs_.push_back(std::move(slab));
  return slabs_.back();
}

std::uint8_t* FrameArena::alloc(std::size_t n, std::uint64_t& off) {
  Slab& tail = writable_tail(n);
  off = tail.base + tail.used;
  std::uint8_t* p = tail.owned.get() + tail.used;
  tail.used += n;
  size_ = off + n;
  return p;
}

std::uint64_t FrameArena::append(rtcc::util::BytesView bytes) {
  if (bytes.empty()) return size_;
  std::uint64_t off = 0;
  std::uint8_t* p = alloc(bytes.size(), off);
  std::memcpy(p, bytes.data(), bytes.size());
  return off;
}

std::uint64_t FrameArena::adopt(rtcc::util::BytesView data,
                                std::shared_ptr<void> keepalive) {
  Slab slab;
  slab.keepalive = std::move(keepalive);
  slab.data = data.data();
  slab.used = data.size();
  slab.cap = data.size();
  slab.base = size_;
  slabs_.push_back(std::move(slab));
  size_ += data.size();
  return slabs_.back().base;
}

rtcc::util::BytesView FrameArena::view(std::uint64_t off,
                                       std::size_t len) const {
  if (len == 0) return {};
  // Last slab whose base <= off. Slab counts are tiny (size/1MiB), so a
  // binary search costs a handful of well-predicted branches.
  auto it = std::upper_bound(
      slabs_.begin(), slabs_.end(), off,
      [](std::uint64_t o, const Slab& s) { return o < s.base; });
  if (it == slabs_.begin()) return {};
  const Slab& slab = *std::prev(it);
  const std::uint64_t local = off - slab.base;
  if (local > slab.used || len > slab.used - local) return {};
  return {slab.data + local, len};
}

}  // namespace rtcc::net
