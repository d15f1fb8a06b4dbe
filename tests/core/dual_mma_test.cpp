// Tests for the dual-MMA packed layout (paper Section 5.2, Figure 7b):
// provenance is a bijection, the reorder round-trips, and each thread's 32
// elements form one contiguous 16-byte chunk in a single quantization group.

#include "core/layout/dual_mma_layout.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"

namespace liquid {
namespace {

LqqWeights RandomLqq(std::size_t n, std::size_t k, std::uint64_t seed,
                     std::size_t group = 64) {
  Rng rng(seed);
  MatrixF w(n, k);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  LqqOptions opt;
  opt.group_size = group;
  return QuantizeWeightsLqq(w, opt);
}

TEST(DualMmaTest, ProvenanceIsBijection) {
  const auto prov = BuildDualMmaProvenance();
  ASSERT_EQ(prov.size(), static_cast<std::size_t>(kSupertileRegs));
  std::set<std::pair<int, int>> seen;
  for (const RegisterProvenance& p : prov) {
    for (const FragCoord& c : p.lane) {
      EXPECT_GE(c.row, 0);
      EXPECT_LT(c.row, kSupertileRows);
      EXPECT_GE(c.col, 0);
      EXPECT_LT(c.col, kSupertileCols);
      EXPECT_TRUE(seen.insert({c.row, c.col}).second);
    }
  }
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kSupertileRows * kSupertileCols));
}

TEST(DualMmaTest, RegisterLanesShareRowAndGroup) {
  // All 8 lanes of any packed register come from one row and one 32-wide
  // k-range — the precondition for single-(scale, offset) dequantization.
  const auto prov = BuildDualMmaProvenance();
  for (const RegisterProvenance& p : prov) {
    const int row = p.lane[0].row;
    const int col_block = p.lane[0].col / 32;
    for (const FragCoord& c : p.lane) {
      EXPECT_EQ(c.row, row);
      EXPECT_EQ(c.col / 32, col_block);
    }
  }
}

TEST(DualMmaTest, ThreadChunkCoversTwoMmas) {
  // Registers 0-1 of a thread read MMA1 columns (0..31), registers 2-3 read
  // MMA2 columns (32..63) — the "dual" in dual-MMA.
  for (int t = 0; t < kWgThreads; ++t) {
    for (int reg = 0; reg < kRegsPerThread; ++reg) {
      for (int lane = 0; lane < 8; ++lane) {
        const FragCoord c = DualMmaLaneCoord(t, reg, lane);
        if (reg < 2) {
          EXPECT_LT(c.col, 32);
        } else {
          EXPECT_GE(c.col, 32);
        }
      }
    }
  }
}

TEST(DualMmaTest, PackUnpackRoundTrip) {
  const LqqWeights w = RandomLqq(128, 256, 1);
  const DualMmaPackedWeights packed = PackDualMma(w);
  const auto u4 = UnpackDualMmaToU4(packed);
  for (std::size_t n = 0; n < w.n(); ++n) {
    for (std::size_t k = 0; k < w.k(); ++k) {
      ASSERT_EQ(u4[n * w.k() + k], w.U4At(n, k)) << n << "," << k;
    }
  }
}

TEST(DualMmaTest, TileCountAndSize) {
  const LqqWeights w = RandomLqq(192, 128, 2);
  const DualMmaPackedWeights packed = PackDualMma(w);
  EXPECT_EQ(packed.TilesN(), 3u);
  EXPECT_EQ(packed.TilesK(), 2u);
  EXPECT_EQ(packed.regs.size(), 3u * 2u * kSupertileRegs);
  // One supertile = 2 KiB of SMEM (512 registers).
  EXPECT_EQ(static_cast<int>(packed.Tile(0, 0).size()), kSupertileRegs);
}

TEST(DualMmaTest, GroupParamsPreserved) {
  const LqqWeights w = RandomLqq(64, 128, 3);
  const DualMmaPackedWeights packed = PackDualMma(w);
  ASSERT_EQ(packed.group_params.size(), w.group_params().size());
  for (std::size_t i = 0; i < w.group_params().size(); ++i) {
    EXPECT_EQ(packed.group_params[i].scale, w.group_params()[i].scale);
    EXPECT_EQ(packed.group_params[i].offset, w.group_params()[i].offset);
  }
}

TEST(DualMmaTest, GroupSize32Works) {
  // The smallest group size whose boundaries align with MMA fragments.
  const LqqWeights w = RandomLqq(64, 64, 4, /*group=*/32);
  const DualMmaPackedWeights packed = PackDualMma(w);
  const auto u4 = UnpackDualMmaToU4(packed);
  for (std::size_t n = 0; n < w.n(); ++n) {
    for (std::size_t k = 0; k < w.k(); ++k) {
      ASSERT_EQ(u4[n * w.k() + k], w.U4At(n, k));
    }
  }
}

}  // namespace
}  // namespace liquid
