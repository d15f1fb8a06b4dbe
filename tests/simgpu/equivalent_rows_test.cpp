// EquivalentRows is the key of every engine cost table: a count and its row
// class must price identically, field for field and bit for bit, on every
// kernel, grouping and shape the serving layer asks about.

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "simgpu/gemm_sim.hpp"

namespace liquid::simgpu {
namespace {

const HardwareSpec kH800 = HardwareSpec::H800();

/// Per-layer shapes of Llama-2-7B (fused QKV, O, fused gate+up, down), its
/// LM head, and one Mixtral-8x7B expert (gate+up, down); `m` is filled in.
const GemmShape kShapes[] = {
    {0, 12288, 4096}, {0, 4096, 4096},  {0, 22016, 4096}, {0, 4096, 11008},
    {0, 32000, 4096}, {0, 28672, 4096}, {0, 4096, 14336},
};

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every scalar of a result, as bit patterns, in a fixed order.
std::vector<std::uint64_t> Scalars(const GemmSimResult& r) {
  return {Bits(r.seconds),
          Bits(r.t_load),
          Bits(r.t_dequant),
          Bits(r.t_mma),
          static_cast<std::uint64_t>(r.waves),
          static_cast<std::uint64_t>(r.active_blocks),
          static_cast<std::uint64_t>(r.k_iters),
          Bits(r.mma_utilization),
          Bits(r.bubble_fraction),
          Bits(r.block.total),
          Bits(r.block.load_busy),
          Bits(r.block.dequant_busy),
          Bits(r.block.mma_busy)};
}

class EquivalentRowsTest : public ::testing::TestWithParam<KernelKind> {};

TEST_P(EquivalentRowsTest, EveryCountPricesLikeItsClass) {
  const KernelConfig cfg = KernelConfig::For(GetParam());
  constexpr std::size_t kMaxRows = 5000;
  for (const int grouped : {1, 8}) {
    GemmSimOptions options;
    options.grouped = grouped;
    for (GemmShape shape : kShapes) {
      std::map<std::size_t, std::vector<std::uint64_t>> by_class;
      for (std::size_t m = 0; m <= kMaxRows; ++m) {
        const std::size_t rows = EquivalentRows(cfg, m);
        auto it = by_class.find(rows);
        if (it == by_class.end()) {
          shape.m = rows;
          it = by_class
                   .emplace(rows,
                            Scalars(SimulateGemm(kH800, cfg, shape, options)))
                   .first;
        }
        shape.m = m;
        ASSERT_EQ(Scalars(SimulateGemm(kH800, cfg, shape, options)),
                  it->second)
            << ToString(GetParam()) << " grouped=" << grouped << " n="
            << shape.n << " k=" << shape.k << " m=" << m << " class=" << rows;
      }
    }
  }
}

TEST_P(EquivalentRowsTest, ClassIsAFixedPointAndNeverBelowTheCount) {
  const KernelConfig cfg = KernelConfig::For(GetParam());
  for (std::size_t m = 0; m <= 5000; ++m) {
    const std::size_t rows = EquivalentRows(cfg, m);
    EXPECT_EQ(EquivalentRows(cfg, rows), rows) << "m=" << m;
    if (rows != 1) {
      EXPECT_GE(rows, m) << "m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, EquivalentRowsTest,
    ::testing::Values(KernelKind::kTrtFp16, KernelKind::kTrtW8A8,
                      KernelKind::kTrtFp8, KernelKind::kTrtW4A16,
                      KernelKind::kQServeW4A8, KernelKind::kLiquidW4A8,
                      KernelKind::kLiquidW4A8Serial,
                      KernelKind::kLiquidW4A8ExCP,
                      KernelKind::kBaselineW4A8),
    [](const ::testing::TestParamInfo<KernelKind>& param_info) {
      std::string name = ToString(param_info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(EquivalentRowsCountTest, ClassesFollowTheTileRule) {
  const KernelConfig liquid = KernelConfig::For(KernelKind::kLiquidW4A8);
  const KernelConfig qserve = KernelConfig::For(KernelKind::kQServeW4A8);
  const KernelConfig gemv = KernelConfig::For(KernelKind::kTrtW8A8);
  ASSERT_EQ(liquid.tile_m, 256);
  ASSERT_EQ(qserve.tile_m, 128);
  ASSERT_TRUE(gemv.gemv_specialized);
  ASSERT_EQ(gemv.gemv_max_m, 16);
  // Below the tile: RoundUp8, with 0 priced as 1 row.
  for (const auto& [m, rows] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 8},
                                                        {1, 8},
                                                        {8, 8},
                                                        {9, 16},
                                                        {248, 248},
                                                        {249, 256},
                                                        {256, 256},
                                                        {257, 512},
                                                        {512, 512},
                                                        {513, 768}}) {
    EXPECT_EQ(EquivalentRows(liquid, m), rows) << "m=" << m;
  }
  EXPECT_EQ(EquivalentRows(qserve, 120), 120u);
  EXPECT_EQ(EquivalentRows(qserve, 121), 128u);
  EXPECT_EQ(EquivalentRows(qserve, 129), 256u);
  // The GEMV path never reads m: one class for every count it takes.
  for (std::size_t m = 0; m <= 16; ++m) {
    EXPECT_EQ(EquivalentRows(gemv, m), 1u) << "m=" << m;
  }
  EXPECT_EQ(EquivalentRows(gemv, 17), 24u);
}

TEST(EquivalentRowsCountTest, LiquidGemmHas47ClassesUpTo4096Rows) {
  const KernelConfig cfg = KernelConfig::For(KernelKind::kLiquidW4A8);
  std::map<std::size_t, int> classes;
  for (std::size_t m = 1; m <= 4096; ++m) ++classes[EquivalentRows(cfg, m)];
  EXPECT_EQ(classes.size(), 47u);
}

}  // namespace
}  // namespace liquid::simgpu
