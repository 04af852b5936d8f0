// FrameArena storage semantics plus the pcap edge cases the zero-copy
// decoder (adopt: frames view the file buffer) must share bit-for-bit
// with the copying decoder (append: decode_pcap copies each record onto
// the arena, as the retired owned-buffer storage did — the "legacy"
// cases below): swapped-byte-order files, truncation, and
// snaplen-clipped records.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "net/arena.hpp"
#include "net/pcap.hpp"

namespace rtcc::net {
namespace {

using rtcc::util::Bytes;
using rtcc::util::BytesView;

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(seed + i * 7);
  return out;
}

TEST(FrameArena, AppendRoundTripsAndOffsetsAreMonotonic) {
  FrameArena arena;
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const Bytes b = pattern(10 + static_cast<std::size_t>(i),
                            static_cast<std::uint8_t>(i));
    const std::uint64_t off = arena.append(BytesView{b});
    EXPECT_GE(off, prev);
    prev = off;
    const auto v = arena.view(off, b.size());
    ASSERT_EQ(v.size(), b.size());
    EXPECT_EQ(Bytes(v.begin(), v.end()), b);
  }
  EXPECT_EQ(arena.slab_count(), 1u);  // 100 small frames share one slab
}

TEST(FrameArena, LargeAppendsSpanSlabsButFramesStayContiguous) {
  FrameArena arena;
  const Bytes big = pattern(FrameArena::kSlabSize / 2 + 100, 3);
  const auto off1 = arena.append(BytesView{big});
  const auto off2 = arena.append(BytesView{big});  // won't fit slab 1 tail
  EXPECT_EQ(arena.slab_count(), 2u);
  for (auto off : {off1, off2}) {
    const auto v = arena.view(off, big.size());
    ASSERT_EQ(v.size(), big.size());
    EXPECT_EQ(Bytes(v.begin(), v.end()), big);
  }
  // An append larger than a whole slab gets a dedicated slab.
  const Bytes huge = pattern(FrameArena::kSlabSize + 17, 9);
  const auto off3 = arena.append(BytesView{huge});
  EXPECT_EQ(arena.view(off3, huge.size()).size(), huge.size());
}

TEST(FrameArena, AllocPointersAreStableAcrossGrowth) {
  FrameArena arena;
  std::uint64_t off = 0;
  std::uint8_t* p = arena.alloc(32, off);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 32);
  // Force more slabs; the first allocation must not move.
  for (int i = 0; i < 3; ++i) {
    std::uint64_t ignored = 0;
    arena.alloc(FrameArena::kSlabSize, ignored);
  }
  const auto v = arena.view(off, 32);
  ASSERT_EQ(v.size(), 32u);
  EXPECT_EQ(v.data(), p);
  for (std::uint8_t b : v) EXPECT_EQ(b, 0xAB);
}

TEST(FrameArena, AdoptThenAppendMix) {
  auto file = std::make_shared<Bytes>(pattern(1000, 5));
  FrameArena arena;
  arena.append(BytesView{pattern(8, 1)});
  const auto base = arena.adopt(BytesView{*file}, file);
  const auto after = arena.append(BytesView{pattern(8, 2)});
  EXPECT_GE(arena.slab_count(), 3u);  // adopted slab is never a tail

  const auto v = arena.view(base + 10, 20);
  ASSERT_EQ(v.size(), 20u);
  EXPECT_EQ(v.data(), file->data() + 10);  // genuinely zero-copy
  EXPECT_EQ(arena.view(after, 8).size(), 8u);
}

TEST(FrameArena, InvalidViewsResolveEmpty) {
  FrameArena arena;
  const auto off = arena.append(BytesView{pattern(16, 0)});
  EXPECT_TRUE(arena.view(off, 0).empty());
  EXPECT_TRUE(arena.view(arena.size(), 1).empty());      // past the end
  EXPECT_TRUE(arena.view(off, 17).empty());              // overruns slab
  EXPECT_TRUE(FrameArena{}.view(0, 1).empty());          // empty arena
}

// ---- pcap edge cases ------------------------------------------------------

void put32(Bytes& out, std::uint32_t v, bool be) {
  if (be)
    out.insert(out.end(), {static_cast<std::uint8_t>(v >> 24),
                           static_cast<std::uint8_t>(v >> 16),
                           static_cast<std::uint8_t>(v >> 8),
                           static_cast<std::uint8_t>(v)});
  else
    out.insert(out.end(), {static_cast<std::uint8_t>(v),
                           static_cast<std::uint8_t>(v >> 8),
                           static_cast<std::uint8_t>(v >> 16),
                           static_cast<std::uint8_t>(v >> 24)});
}

void put16(Bytes& out, std::uint16_t v, bool be) {
  if (be)
    out.insert(out.end(), {static_cast<std::uint8_t>(v >> 8),
                           static_cast<std::uint8_t>(v)});
  else
    out.insert(out.end(), {static_cast<std::uint8_t>(v),
                           static_cast<std::uint8_t>(v >> 8)});
}

/// Hand-assembled pcap with explicit byte order and full control over
/// incl_len/orig_len (encode_pcap always writes native order and
/// incl == orig, so clipped/swapped cases need manual bytes).
Bytes make_pcap(bool be, const std::vector<Bytes>& payloads,
                std::uint32_t orig_extra = 0) {
  Bytes out;
  put32(out, 0xA1B2C3D4, be);
  put16(out, 2, be);
  put16(out, 4, be);
  put32(out, 0, be);       // thiszone
  put32(out, 0, be);       // sigfigs
  put32(out, 262144, be);  // snaplen
  put32(out, 1, be);       // LINKTYPE_ETHERNET
  std::uint32_t sec = 1;
  for (const auto& p : payloads) {
    put32(out, sec++, be);
    put32(out, 250000, be);
    put32(out, static_cast<std::uint32_t>(p.size()), be);
    put32(out, static_cast<std::uint32_t>(p.size()) + orig_extra, be);
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

/// true = zero-copy decode ("arena"), false = copying decode ("legacy").
class PcapEdgeCases : public testing::TestWithParam<bool> {
 protected:
  /// `file` must outlive the returned trace on the zero-copy path.
  static std::optional<Trace> decode(const Bytes& file) {
    return GetParam() ? decode_pcap_zero_copy(BytesView{file})
                      : decode_pcap(BytesView{file});
  }
};

TEST_P(PcapEdgeCases, BigEndianMagicDecodes) {
  const std::vector<Bytes> payloads = {pattern(60, 1), pattern(90, 2)};
  const Bytes file = make_pcap(/*be=*/true, payloads);
  auto trace = decode(file);
  ASSERT_TRUE(trace);
  ASSERT_EQ(trace->size(), 2u);
  EXPECT_NEAR(trace->frames()[0].ts, 1.25, 1e-9);
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const auto v = trace->frame_bytes(i);
    EXPECT_EQ(Bytes(v.begin(), v.end()), payloads[i]);
  }
}

TEST_P(PcapEdgeCases, TruncatedFinalRecordFailSoft) {
  // Cut into the last record's *bytes*: the intact first frame is kept
  // and the torn tail is counted, not fatal.
  Bytes file = make_pcap(false, {pattern(60, 1), pattern(60, 2)});
  file.resize(file.size() - 10);
  auto trace = decode(file);
  ASSERT_TRUE(trace);
  EXPECT_EQ(trace->size(), 1u);
  EXPECT_EQ(trace->ingest().frames_seen, 1u);
  EXPECT_EQ(trace->ingest().torn_tail, 1u);

  // Cut into the record *header*: zero frames, still not fatal.
  Bytes header_cut = make_pcap(false, {pattern(60, 1)});
  header_cut.resize(24 + 8);
  auto cut = decode(header_cut);
  ASSERT_TRUE(cut);
  EXPECT_EQ(cut->size(), 0u);
  EXPECT_EQ(cut->ingest().frames_seen, 0u);
  EXPECT_EQ(cut->ingest().torn_tail, 1u);
}

TEST_P(PcapEdgeCases, SnaplenClippedRecordKeepsInclBytes) {
  // incl_len = 48, orig_len = 48 + 500: the capture clipped the packet.
  const Bytes file = make_pcap(false, {pattern(48, 3)}, /*orig_extra=*/500);
  auto trace = decode(file);
  ASSERT_TRUE(trace);
  ASSERT_EQ(trace->size(), 1u);
  EXPECT_EQ(trace->frame_bytes(0).size(), 48u);
  EXPECT_EQ(trace->ingest().snaplen_clipped, 1u);
  EXPECT_EQ(trace->frames()[0].orig_len, 548u);
  EXPECT_TRUE(trace->frames()[0].snaplen_clipped());
}

INSTANTIATE_TEST_SUITE_P(BothModes, PcapEdgeCases, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "arena" : "legacy";
                         });

TEST(PcapZeroCopy, FramesAliasTheInputBuffer) {
  auto owner = std::make_shared<Bytes>(make_pcap(false, {pattern(60, 1)}));
  auto trace = decode_pcap_zero_copy(BytesView{*owner}, owner);
  ASSERT_TRUE(trace);
  ASSERT_EQ(trace->size(), 1u);
  const auto v = trace->frame_bytes(0);
  ASSERT_EQ(v.size(), 60u);
  // The frame's bytes ARE the file's bytes — no copy was made.
  EXPECT_GE(v.data(), owner->data());
  EXPECT_LE(v.data() + v.size(), owner->data() + owner->size());
}

TEST(PcapZeroCopy, OwnedBufferDecodeSurvivesCallerRelease) {
  Bytes file = make_pcap(false, {pattern(60, 4), pattern(70, 5)});
  const Bytes expect0 = pattern(60, 4);
  auto trace = decode_pcap_owned(std::move(file));  // trace owns the buffer
  ASSERT_TRUE(trace);
  const auto v = trace->frame_bytes(0);
  EXPECT_EQ(Bytes(v.begin(), v.end()), expect0);
}

TEST(PcapEquivalence, ArenaAndLegacyRoundTripsAreByteIdentical) {
  // Zero-copy and copying decode both re-encode to the input file.
  const Bytes file =
      make_pcap(false, {pattern(60, 1), pattern(400, 2), pattern(90, 3)});
  auto copied = decode_pcap(BytesView{file});
  ASSERT_TRUE(copied);
  EXPECT_EQ(encode_pcap(*copied), file);
  auto zc = decode_pcap_zero_copy(BytesView{file});
  ASSERT_TRUE(zc);
  EXPECT_EQ(encode_pcap(*zc), file);
}

TEST(PcapFile, MmapAndLegacyReadsAgree) {
  // read_pcap (mmap'ed, zero-copy) vs a copying decode of the file's
  // bytes read back by hand.
  Trace trace;
  for (int i = 0; i < 20; ++i)
    trace.add_frame(0.25 * i, BytesView{pattern(60 + i, i)});
  const std::string path = testing::TempDir() + "rtcc_arena_file.pcap";
  ASSERT_TRUE(write_pcap(path, trace));

  Bytes file;
  if (std::FILE* fp = std::fopen(path.c_str(), "rb")) {
    std::uint8_t buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, fp)) > 0)
      file.insert(file.end(), buf, buf + n);
    std::fclose(fp);
  }
  std::optional<Trace> loaded[2] = {decode_pcap(BytesView{file}),
                                    read_pcap(path)};
  std::remove(path.c_str());
  ASSERT_TRUE(loaded[0]);
  ASSERT_TRUE(loaded[1]);

  ASSERT_EQ(loaded[0]->size(), loaded[1]->size());
  ASSERT_EQ(loaded[0]->size(), trace.size());
  EXPECT_EQ(loaded[0]->total_bytes(), loaded[1]->total_bytes());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto a = loaded[0]->frame_bytes(i);
    const auto b = loaded[1]->frame_bytes(i);
    ASSERT_EQ(Bytes(a.begin(), a.end()), Bytes(b.begin(), b.end()));
  }
}

TEST(TraceCache, TotalBytesTracksAppends) {
  Trace trace;
  EXPECT_EQ(trace.total_bytes(), 0u);
  trace.add_frame(0.0, BytesView{pattern(100, 1)});
  trace.add_frame(1.0, BytesView{pattern(42, 2)});
  EXPECT_EQ(trace.total_bytes(), 142u);
}

}  // namespace
}  // namespace rtcc::net
