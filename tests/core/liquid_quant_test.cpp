// Tests for LiquidQuant (paper Section 4), including an *exhaustive* machine
// check of the overflow-freedom proof: every reachable (group min, group max,
// element) combination of the second level stays inside UINT8 at every
// intermediate step of Eq. 10/12.

#include "core/quant/liquid_quant.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/swar.hpp"

namespace liquid {
namespace {

MatrixF RandomWeights(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  MatrixF w(n, k);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  return w;
}

TEST(LiquidQuantTest, PaperWraparoundExample) {
  // Section 4's worked example: q_u4 = 15, max = 119, min = -104, s = 15.
  // Naive bit-level addition overflows; Eq. 12 must recover 121.
  const std::uint8_t q_u4 = 15;
  const std::uint8_t s = 15;
  const std::uint8_t a = static_cast<std::uint8_t>(128 - 104);  // 2^7 + min
  EXPECT_EQ(LqqDequantElement(q_u4, s, a), 121);
}

TEST(LiquidQuantTest, ExhaustiveOverflowProof) {
  // For every group (min, max) pair within the protective range and every
  // INT8 value q in [min, max]: quantize to u4 with s = ceil((max-min)/15),
  // then check (1) q_u4*s <= 240 (multiplication stays in UINT8), (2)
  // q_u4*s + a <= 255 (addition stays in UINT8, Eq. 11), and (3) the XOR
  // recovers exactly q_u4*s + min as a signed INT8.
  for (int gmin = -119; gmin <= 119; ++gmin) {
    for (int gmax = gmin; gmax <= 119; ++gmax) {
      const int range = gmax - gmin;
      const int s = range == 0 ? 1 : (range + 14) / 15;
      ASSERT_LE(s, 16);
      const int a = 128 + gmin;
      ASSERT_GE(a, 0);
      ASSERT_LE(a, 255);
      // Check the extreme q values plus the rounding-critical midpoints.
      const int probes[] = {gmin, gmax, gmin + range / 2, gmin + range / 3};
      for (const int q : probes) {
        const int q_u8 = q - gmin;
        const int q_u4 = std::min((q_u8 + s / 2) / s, 15);
        const int prod = q_u4 * s;
        ASSERT_LE(prod, 240);
        ASSERT_LE(prod + a, 255) << "gmin=" << gmin << " gmax=" << gmax;
        const int expected = prod + gmin;  // the dequantized INT8 value
        ASSERT_GE(expected, -128);
        ASSERT_LE(expected, 127);
        ASSERT_EQ(LqqDequantElement(static_cast<std::uint8_t>(q_u4),
                                    static_cast<std::uint8_t>(s),
                                    static_cast<std::uint8_t>(a)),
                  expected);
      }
    }
  }
}

TEST(LiquidQuantTest, XorEqualsConditionalAdd128) {
  // Eq. 9/12: XOR 0x80 == adding (2x-1)*2^7 with x chosen per the proof.
  for (int v = 0; v <= 255; ++v) {
    const int xored = v ^ 0x80;
    const int expected = v >= 128 ? v - 128 : v + 128;
    EXPECT_EQ(xored, expected);
  }
}

TEST(LiquidQuantTest, GroupParamsInRange) {
  const MatrixF w = RandomWeights(32, 512, 1);
  const LqqWeights q = QuantizeWeightsLqq(w);
  for (const LqqGroupParams& p : q.group_params()) {
    EXPECT_GE(p.scale, 1);
    EXPECT_LE(p.scale, 16);
    EXPECT_GE(p.offset, 9);    // 128 - 119
    EXPECT_LE(p.offset, 247);  // 128 + 119
  }
}

TEST(LiquidQuantTest, SecondLevelErrorBoundedByHalfScale) {
  // |dequant(quant(q_i8)) - q_i8| <= s/2 per element (nearest rounding).
  const MatrixF w = RandomWeights(16, 256, 2);
  const FirstLevelResult first = QuantizeFirstLevel(w);
  const LqqWeights q = QuantizeSecondLevelLqq(first);
  const MatrixI8 rec = DequantizeSecondLevelReference(q);
  for (std::size_t n = 0; n < q.n(); ++n) {
    for (std::size_t k = 0; k < q.k(); ++k) {
      const LqqGroupParams& p = q.Params(n, k / q.group_size());
      EXPECT_LE(std::abs(static_cast<int>(rec.At(n, k)) -
                         static_cast<int>(first.q.At(n, k))),
                (p.scale + 1) / 2)
          << n << "," << k;
    }
  }
}

TEST(LiquidQuantTest, FullPipelineReconstruction) {
  const MatrixF w = RandomWeights(16, 256, 3);
  const LqqWeights q = QuantizeWeightsLqq(w);
  const MatrixF rec = DequantizeWeightsLqq(q);
  // 4-bit group quantization of Gaussian data: relative error well under 10%.
  EXPECT_LT(RelativeFrobeniusError(w.Flat(), rec.Flat()), 0.10);
  EXPECT_GT(SignalToQuantNoiseDb(w.Flat(), rec.Flat()), 20.0);
}

TEST(LiquidQuantTest, ConstantGroupIsExact) {
  MatrixF w(1, 64);
  for (auto& v : w.Flat()) v = 0.25f;
  const LqqWeights q = QuantizeWeightsLqq(w);
  const MatrixF rec = DequantizeWeightsLqq(q);
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_NEAR(rec.At(0, k), 0.25f, 0.25f / 119.0f);
  }
}

TEST(LiquidQuantTest, SecondLevelRejectsValuesOutsideProtectiveRange) {
  // Validated in every build type: the overflow proof needs |Q_i8| <= 119.
  for (const std::int8_t bad : {std::int8_t{120}, std::int8_t{-120},
                                std::int8_t{-128}, std::int8_t{127}}) {
    FirstLevelResult first{MatrixI8(2, 64), {1.0f, 1.0f}};
    first.q.At(1, 37) = bad;
    EXPECT_THROW(QuantizeSecondLevelLqq(first), std::invalid_argument)
        << "value " << static_cast<int>(bad);
  }
  FirstLevelResult edge{MatrixI8(1, 64), {1.0f}};
  edge.q.At(0, 0) = static_cast<std::int8_t>(kProtectiveMax);
  edge.q.At(0, 1) = static_cast<std::int8_t>(-kProtectiveMax);
  EXPECT_NO_THROW(QuantizeSecondLevelLqq(edge));
}

/// Every stored code of `q` meets the Section 4 bound, element by element.
void ExpectSection4Bound(const LqqWeights& q) {
  for (std::size_t n = 0; n < q.n(); ++n) {
    for (std::size_t k = 0; k < q.k(); ++k) {
      const LqqGroupParams& p = q.Params(n, k / q.group_size());
      ASSERT_LE(q.U4At(n, k) * p.scale + p.offset, 255)
          << "row " << n << " col " << k;
    }
  }
}

TEST(LiquidQuantTest, SecondLevelOutputMeetsTheBoundForEveryGroupRange) {
  // One 8-wide group per (min, max) pair of the protective range, holding
  // min, max and the rounding-critical values between them: every group the
  // quantizer can meet.  LqqWeights::FromParts would throw on a violation;
  // the element-wise check below restates the bound independently.
  std::vector<std::pair<int, int>> ranges;
  for (int gmin = -kProtectiveMax; gmin <= kProtectiveMax; ++gmin) {
    for (int gmax = gmin; gmax <= kProtectiveMax; ++gmax) {
      ranges.emplace_back(gmin, gmax);
    }
  }
  FirstLevelResult first{MatrixI8(ranges.size(), 8),
                         std::vector<float>(ranges.size(), 1.0f)};
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    const auto [gmin, gmax] = ranges[r];
    const int range = gmax - gmin;
    const int probes[8] = {gmin,          gmax,          gmin + range / 2,
                           gmin + range / 3, gmax - range / 30, gmax - 1,
                           gmin + 1,      gmax - range / 15};
    for (std::size_t c = 0; c < 8; ++c) {
      first.q.At(r, c) =
          static_cast<std::int8_t>(std::clamp(probes[c], gmin, gmax));
    }
  }
  LqqWeights q;
  ASSERT_NO_THROW(q = QuantizeSecondLevelLqq(first, {8}));
  ExpectSection4Bound(q);
}

TEST(LiquidQuantTest, QuantizerOutputMeetsTheBound) {
  for (const std::size_t g : {8u, 32u, 64u, 128u}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      MatrixF w = RandomWeights(9, 256, 40 + seed);
      w.At(seed, 3 * seed) = 1.0f;  // one outlier: wide groups elsewhere
      LqqWeights q;
      ASSERT_NO_THROW(q = QuantizeWeightsLqq(w, {g})) << "group " << g;
      ExpectSection4Bound(q);
    }
  }
}

/// A 1 x 8 weight whose one register holds `code` in every lane.
LqqWeights OneRegister(std::uint8_t code, LqqGroupParams params) {
  AlignedBuffer<std::uint32_t> packed(1);
  packed[0] = 0x11111111u * code;
  return LqqWeights::FromParts(1, 8, 8, std::move(packed), {params}, {1.0f});
}

TEST(LqqWeightsTest, FromPartsEnforcesTheBoundOnCodes) {
  // 15*16 + 15 = 255 is the largest sum Eq. 12 keeps inside UINT8.
  EXPECT_NO_THROW(OneRegister(15, {16, 15}));
  EXPECT_THROW(OneRegister(15, {16, 16}), std::invalid_argument);
  // Parameters that fail 15*s + a <= 255 are fine while the codes are low.
  EXPECT_NO_THROW(OneRegister(14, {16, 31}));
  EXPECT_THROW(OneRegister(14, {16, 32}), std::invalid_argument);
}

TEST(LqqWeightsTest, FromPartsRejectsMalformedShapes) {
  const auto build = [](std::size_t n, std::size_t k, std::size_t g,
                        std::size_t regs, std::size_t groups,
                        std::size_t scales) {
    return LqqWeights::FromParts(n, k, g, AlignedBuffer<std::uint32_t>(regs),
                                 std::vector<LqqGroupParams>(groups),
                                 std::vector<float>(scales, 1.0f));
  };
  EXPECT_NO_THROW(build(2, 64, 32, 16, 4, 2));
  EXPECT_THROW(build(2, 64, 0, 16, 4, 2), std::invalid_argument);
  EXPECT_THROW(build(2, 64, 12, 16, 4, 2), std::invalid_argument);
  EXPECT_THROW(build(2, 48, 32, 12, 3, 2), std::invalid_argument);
  EXPECT_THROW(build(2, 64, 32, 15, 4, 2), std::invalid_argument);
  EXPECT_THROW(build(2, 64, 32, 16, 3, 2), std::invalid_argument);
  EXPECT_THROW(build(2, 64, 32, 16, 4, 1), std::invalid_argument);
}

TEST(LqqWeightsTest, MovedFromWeightIsEmpty) {
  LqqWeights w = QuantizeWeightsLqq(RandomWeights(4, 128, 6));
  const LqqWeights taken = std::move(w);
  EXPECT_EQ(taken.n(), 4u);
  EXPECT_EQ(taken.packed().size(), 4u * 128 / 8);
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from state is the test
  EXPECT_EQ(w.n(), 0u);
  EXPECT_EQ(w.k(), 0u);
  EXPECT_TRUE(w.packed().empty());
  EXPECT_TRUE(w.group_params().empty());
  EXPECT_TRUE(w.channel_scale().empty());
}

TEST(LiquidQuantTest, U4AccessorMatchesPackedRegisters) {
  const MatrixF w = RandomWeights(8, 128, 4);
  const LqqWeights q = QuantizeWeightsLqq(w);
  for (std::size_t n = 0; n < q.n(); ++n) {
    for (std::size_t r = 0; r < q.RegistersPerRow(); ++r) {
      const auto lanes = UnpackNibblesInterleaved(q.Register(n, r));
      for (std::size_t j = 0; j < 8; ++j) {
        EXPECT_EQ(q.U4At(n, r * 8 + j), lanes[j]);
        EXPECT_LE(lanes[j], 15);
      }
    }
  }
}

TEST(LiquidQuantTest, StorageBytesAccounting) {
  const MatrixF w = RandomWeights(64, 512, 5);
  const LqqWeights q = QuantizeWeightsLqq(w);
  // 64*512 u4 = 16 KiB packed + (64*8 groups)*2 B + 64*4 B channel scales.
  EXPECT_EQ(q.StorageBytes(), 64u * 512 / 2 + 64 * 8 * 2 + 64 * 4);
}

// Property sweep: the pipeline invariants hold across group sizes and shapes.
struct LqqSweepParam {
  std::size_t n;
  std::size_t k;
  std::size_t group;
};

class LqqSweepTest : public ::testing::TestWithParam<LqqSweepParam> {};

TEST_P(LqqSweepTest, RoundTripAndRanges) {
  const auto [n, k, g] = GetParam();
  const MatrixF w = RandomWeights(n, k, 1000 + n * 7 + k);
  LqqOptions opt;
  opt.group_size = g;
  const LqqWeights q = QuantizeWeightsLqq(w, opt);
  EXPECT_EQ(q.GroupsPerRow(), k / g);
  const FirstLevelResult first = QuantizeFirstLevel(w);
  const MatrixI8 rec = DequantizeSecondLevelReference(q);
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t col = 0; col < k; ++col) {
      const LqqGroupParams& p = q.Params(row, col / g);
      // Dequantized value within half a step of the first-level value and
      // inside INT8.
      EXPECT_LE(std::abs(static_cast<int>(rec.At(row, col)) -
                         static_cast<int>(first.q.At(row, col))),
                (p.scale + 1) / 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LqqSweepTest,
    ::testing::Values(LqqSweepParam{1, 64, 64}, LqqSweepParam{4, 128, 32},
                      LqqSweepParam{8, 256, 64}, LqqSweepParam{16, 256, 128},
                      LqqSweepParam{3, 192, 64}, LqqSweepParam{64, 512, 256},
                      LqqSweepParam{2, 64, 8}, LqqSweepParam{5, 320, 64}));

}  // namespace
}  // namespace liquid
