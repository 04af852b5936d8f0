// Runtime SIMD dispatch: level parsing/selection, kernel table, and
// the anchored-vs-naive sweep pinned under every forced level. Levels
// the build or CPU cannot execute skip (never fail) so the suite is
// portable across x86-64 tiers and AArch64.
#include <gtest/gtest.h>

#include "dpi/anchor_scan.hpp"
#include "dpi/scanning_dpi.hpp"
#include "dpi/simd_dispatch.hpp"
#include "testkit/mutators.hpp"
#include "testkit/oracles.hpp"
#include "testkit/seeds.hpp"
#include "util/rng.hpp"

namespace {

using rtcc::dpi::SimdLevel;
using rtcc::util::Bytes;
using rtcc::util::BytesView;

TEST(SimdDispatch, ParseLevelNames) {
  EXPECT_EQ(rtcc::dpi::parse_simd_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(rtcc::dpi::parse_simd_level("SSE2"), SimdLevel::kSse2);
  EXPECT_EQ(rtcc::dpi::parse_simd_level("Avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(rtcc::dpi::parse_simd_level("neon"), SimdLevel::kNeon);
  // "auto" is a selection policy, not a level.
  EXPECT_EQ(rtcc::dpi::parse_simd_level("auto"), std::nullopt);
  EXPECT_EQ(rtcc::dpi::parse_simd_level(""), std::nullopt);
  EXPECT_EQ(rtcc::dpi::parse_simd_level("avx512"), std::nullopt);
}

TEST(SimdDispatch, ToStringParsesBack) {
  for (const auto level : {SimdLevel::kScalar, SimdLevel::kSse2,
                           SimdLevel::kAvx2, SimdLevel::kNeon})
    EXPECT_EQ(rtcc::dpi::parse_simd_level(rtcc::dpi::to_string(level)), level);
}

TEST(SimdDispatch, DetectedLevelIsSupported) {
  EXPECT_TRUE(rtcc::dpi::simd_level_supported(SimdLevel::kScalar));
  EXPECT_TRUE(
      rtcc::dpi::simd_level_supported(rtcc::dpi::detected_simd_level()));
#if defined(__x86_64__) || defined(_M_X64)
  // SSE2 is architectural on x86-64.
  EXPECT_TRUE(rtcc::dpi::simd_level_supported(SimdLevel::kSse2));
  EXPECT_FALSE(rtcc::dpi::simd_level_supported(SimdLevel::kNeon));
#endif
}

TEST(SimdDispatch, KernelTableMatchesSupport) {
  // Scalar has no kernel by contract; every supported vector level
  // must expose one, every unsupported level must not.
  EXPECT_EQ(rtcc::dpi::anchor_block_fn(SimdLevel::kScalar), nullptr);
  for (const auto level :
       {SimdLevel::kSse2, SimdLevel::kAvx2, SimdLevel::kNeon}) {
    if (rtcc::dpi::simd_level_supported(level))
      EXPECT_NE(rtcc::dpi::anchor_block_fn(level), nullptr)
          << rtcc::dpi::to_string(level);
    else
      EXPECT_EQ(rtcc::dpi::anchor_block_fn(level), nullptr)
          << rtcc::dpi::to_string(level);
  }
}

TEST(SimdDispatch, SetLevelAppliesOrFallsBack) {
  const SimdLevel prev = rtcc::dpi::simd_level();
  for (const auto level : {SimdLevel::kScalar, SimdLevel::kSse2,
                           SimdLevel::kAvx2, SimdLevel::kNeon}) {
    const SimdLevel applied = rtcc::dpi::set_simd_level(level);
    if (rtcc::dpi::simd_level_supported(level))
      EXPECT_EQ(applied, level);
    else
      EXPECT_EQ(applied, rtcc::dpi::detected_simd_level());
    EXPECT_EQ(rtcc::dpi::simd_level(), applied);
  }
  rtcc::dpi::set_simd_level(prev);
}

TEST(SimdDispatch, ModeGuardRestores) {
  const SimdLevel prev = rtcc::dpi::simd_level();
  {
    const rtcc::dpi::SimdModeGuard guard(SimdLevel::kScalar);
    EXPECT_EQ(rtcc::dpi::simd_level(), SimdLevel::kScalar);
  }
  EXPECT_EQ(rtcc::dpi::simd_level(), prev);
}

/// Anchored-vs-reference and anchored-vs-naive sweeps with the level
/// pinned: random payloads across block-boundary sizes, then full seed
/// streams through the scan-equivalence oracle, as seeded and tiled to
/// every chunk edge length.
void sweep_level(SimdLevel level) {
  const rtcc::dpi::SimdModeGuard guard(level);
  ASSERT_EQ(rtcc::dpi::simd_level(), level);

  rtcc::util::Rng rng(0x51eed ^ (1u << static_cast<unsigned>(level)));
  // Sizes straddling the kernel-block and staging-chunk edges: empty,
  // sub-header, one block ± 1, the default max_offset region, one
  // kernel chunk (64 blocks) ± and a multi-chunk payload.
  for (const std::size_t size :
       {0u, 1u, 11u, 63u, 64u, 65u, 200u, 221u, 1500u, 4096u, 4200u}) {
    const Bytes buf = rng.bytes(size);
    const auto err = rtcc::testkit::check_anchor_parity(BytesView{buf});
    EXPECT_FALSE(err.has_value()) << "size " << size << ": " << *err;
  }
  rtcc::util::Rng tile_rng(0x711e);
  for (const auto family : rtcc::testkit::all_seed_families()) {
    auto stream = rtcc::testkit::make_seed_stream(family, rng, 5);
    const auto err = rtcc::testkit::check_scan_equivalence(stream.datagrams);
    EXPECT_FALSE(err.has_value())
        << rtcc::testkit::to_string(family) << ": " << *err;
    for (const std::size_t n : rtcc::testkit::kChunkEdgeLengths) {
      const auto tiled =
          rtcc::testkit::mutate_batch_boundary(stream.datagrams, n, tile_rng);
      const auto tiled_err = rtcc::testkit::check_scan_equivalence(tiled);
      EXPECT_FALSE(tiled_err.has_value())
          << rtcc::testkit::to_string(family) << " n=" << n << ": "
          << *tiled_err;
    }
  }
}

TEST(SimdDispatch, ScalarSweep) { sweep_level(SimdLevel::kScalar); }

TEST(SimdDispatch, Sse2Sweep) {
  if (!rtcc::dpi::simd_level_supported(SimdLevel::kSse2))
    GTEST_SKIP() << "SSE2 not supported on this build/CPU";
  sweep_level(SimdLevel::kSse2);
}

TEST(SimdDispatch, Avx2Sweep) {
  if (!rtcc::dpi::simd_level_supported(SimdLevel::kAvx2))
    GTEST_SKIP() << "AVX2 not supported on this build/CPU";
  sweep_level(SimdLevel::kAvx2);
}

TEST(SimdDispatch, NeonSweep) {
  if (!rtcc::dpi::simd_level_supported(SimdLevel::kNeon))
    GTEST_SKIP() << "NEON not supported on this build/CPU";
  sweep_level(SimdLevel::kNeon);
}

TEST(SimdDispatch, CrossLevelParityOnSeedStreams) {
  rtcc::util::Rng rng(0xd15f);
  rtcc::util::Rng tile_rng(0x711e);
  for (const auto family : rtcc::testkit::all_seed_families()) {
    auto stream = rtcc::testkit::make_seed_stream(family, rng, 6);
    const auto err = rtcc::testkit::check_simd_parity(stream.datagrams);
    EXPECT_FALSE(err.has_value())
        << rtcc::testkit::to_string(family) << ": " << *err;
    for (const std::size_t n : rtcc::testkit::kChunkEdgeLengths) {
      const auto tiled =
          rtcc::testkit::mutate_batch_boundary(stream.datagrams, n, tile_rng);
      const auto tiled_err = rtcc::testkit::check_simd_parity(tiled);
      EXPECT_FALSE(tiled_err.has_value())
          << rtcc::testkit::to_string(family) << " n=" << n << ": "
          << *tiled_err;
    }
  }
}

}  // namespace
