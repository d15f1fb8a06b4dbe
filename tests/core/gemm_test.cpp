// End-to-end numerical tests of the functional GEMM kernels: every quantized
// path against the FP32 reference, the integer paths against exact integer
// recomputation, and the dual-MMA layout path against the linear path
// (bit-identical, since they dequantize the same registers).

#include "core/gemm/gemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace liquid {
namespace {

struct Problem {
  MatrixF x;
  MatrixF w;
};

Problem MakeProblem(std::size_t m, std::size_t n, std::size_t k,
                    std::uint64_t seed) {
  Rng rng(seed);
  Problem p{MatrixF(m, k), MatrixF(n, k)};
  for (auto& v : p.x.Flat()) v = static_cast<float>(rng.Normal(0, 1.0));
  for (auto& v : p.w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  return p;
}

// Quantized GEMM vs FP32 reference: relative Frobenius error bounds chosen
// from the precision of each path.  Group-wise 4-bit weights on Gaussian data
// give ~20 dB SQNR, i.e. ~10% relative error before dot-product averaging.
constexpr double kTolW8A8 = 0.02;
constexpr double kTolW4A8 = 0.15;
constexpr double kTolW4A16 = 0.13;
constexpr double kTolFp16 = 0.005;

TEST(GemmTest, ReferenceMatchesHandComputed) {
  MatrixF x(2, 3);
  MatrixF w(2, 3);
  // x = [[1,2,3],[4,5,6]], w = [[1,0,1],[0,1,0]]
  float xv[] = {1, 2, 3, 4, 5, 6};
  float wv[] = {1, 0, 1, 0, 1, 0};
  std::copy(xv, xv + 6, x.Flat().begin());
  std::copy(wv, wv + 6, w.Flat().begin());
  const MatrixF y = GemmReference(x, w);
  EXPECT_FLOAT_EQ(y.At(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(y.At(1, 0), 10.0f);
  EXPECT_FLOAT_EQ(y.At(1, 1), 5.0f);
}

TEST(GemmTest, Fp16CloseToReference) {
  const Problem p = MakeProblem(8, 64, 128, 1);
  const MatrixF ref = GemmReference(p.x, p.w);
  const MatrixF y = GemmFp16(p.x, p.w);
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), y.Flat()), kTolFp16);
}

TEST(GemmTest, W8A8CloseToReference) {
  const Problem p = MakeProblem(8, 64, 128, 2);
  const MatrixF ref = GemmReference(p.x, p.w);
  const auto wq = QuantizeWeightsW8A8(p.w);
  const auto xq = QuantizeActivationsPerToken(p.x);
  const MatrixF y = GemmW8A8(xq, wq);
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), y.Flat()), kTolW8A8);
}

TEST(GemmTest, W4A8LiquidCloseToReference) {
  const Problem p = MakeProblem(8, 64, 256, 3);
  const MatrixF ref = GemmReference(p.x, p.w);
  const MatrixF y = LiquidGemm(p.x, QuantizeWeightsLqq(p.w));
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), y.Flat()), kTolW4A8);
}

TEST(GemmTest, W4A8QserveCloseToReference) {
  const Problem p = MakeProblem(8, 64, 256, 4);
  const MatrixF ref = GemmReference(p.x, p.w);
  const auto wq = QuantizeWeightsQserve(p.w);
  const auto xq = QuantizeActivationsPerToken(p.x);
  const MatrixF y = GemmW4A8Qserve(xq, wq);
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), y.Flat()), kTolW4A8);
}

TEST(GemmTest, W4A16CloseToReference) {
  const Problem p = MakeProblem(8, 64, 256, 5);
  const MatrixF ref = GemmReference(p.x, p.w);
  const auto wq = QuantizeWeightsW4A16(p.w);
  const MatrixF y = GemmW4A16(p.x, wq);
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), y.Flat()), kTolW4A16);
}

TEST(GemmTest, LiquidGemmExactlyMatchesIntegerRecomputation) {
  // The W4A8 kernel is *deterministic integer math*: recomputing the INT32
  // accumulation from the dequantized reference weights must reproduce the
  // output bit-for-bit (modulo the final float scaling, which is identical).
  const Problem p = MakeProblem(4, 8, 128, 6);
  const LqqWeights wq = QuantizeWeightsLqq(p.w);
  const QuantizedActivations xq = QuantizeActivationsPerToken(p.x);
  const MatrixF y = GemmW4A8Liquid(xq, wq);
  const MatrixI8 wref = DequantizeSecondLevelReference(wq);
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::size_t n = 0; n < 8; ++n) {
      std::int32_t acc = 0;
      for (std::size_t k = 0; k < 128; ++k) {
        acc += static_cast<std::int32_t>(xq.q.At(m, k)) * wref.At(n, k);
      }
      const float expect = static_cast<float>(acc) * xq.token_scale[m] *
                           wq.channel_scale()[n];
      EXPECT_EQ(y.At(m, n), expect) << m << "," << n;
    }
  }
}

TEST(GemmTest, DualMmaPathBitIdenticalToLinearPath) {
  const Problem p = MakeProblem(8, 128, 256, 7);
  const LqqWeights wq = QuantizeWeightsLqq(p.w);
  const DualMmaPackedWeights packed = PackDualMma(wq);
  const QuantizedActivations xq = QuantizeActivationsPerToken(p.x);
  const MatrixF linear = GemmW4A8Liquid(xq, wq);
  const MatrixF dual = GemmW4A8LiquidDualMma(xq, packed);
  ASSERT_EQ(linear.rows(), dual.rows());
  ASSERT_EQ(linear.cols(), dual.cols());
  for (std::size_t i = 0; i < linear.size(); ++i) {
    ASSERT_EQ(linear.Flat()[i], dual.Flat()[i]) << "flat index " << i;
  }
}

TEST(GemmTest, LiquidBeatsNothingButMatchesQserveAccuracyClass) {
  // Both W4A8 schemes should land in the same accuracy class on the same
  // problem (the paper's claim that LQQ does not sacrifice accuracy).
  const Problem p = MakeProblem(16, 64, 512, 8);
  const MatrixF ref = GemmReference(p.x, p.w);
  const auto xq = QuantizeActivationsPerToken(p.x);
  const MatrixF y_lqq = GemmW4A8Liquid(xq, QuantizeWeightsLqq(p.w));
  const MatrixF y_qs = GemmW4A8Qserve(xq, QuantizeWeightsQserve(p.w));
  const double e_lqq = RelativeFrobeniusError(ref.Flat(), y_lqq.Flat());
  const double e_qs = RelativeFrobeniusError(ref.Flat(), y_qs.Flat());
  EXPECT_LT(e_lqq, 1.5 * e_qs + 1e-6);
}

TEST(GemmTest, ShapeMismatchesThrowInEveryBuildType) {
  // These used to be plain asserts, which vanish under -DNDEBUG and turn a
  // shape bug into a silent out-of-bounds read.  They must throw in Release.
  const Problem p = MakeProblem(4, 8, 64, 20);
  const auto xq = QuantizeActivationsPerToken(p.x);

  // K mismatch between activations and weights.
  const Problem wrong = MakeProblem(4, 8, 128, 21);
  EXPECT_THROW(GemmReference(p.x, wrong.w), std::invalid_argument);
  EXPECT_THROW(GemmW8A8(xq, QuantizeWeightsW8A8(wrong.w)),
               std::invalid_argument);
  EXPECT_THROW(GemmW4A8Liquid(xq, QuantizeWeightsLqq(wrong.w)),
               std::invalid_argument);
  EXPECT_THROW(GemmW4A8Qserve(xq, QuantizeWeightsQserve(wrong.w)),
               std::invalid_argument);
  EXPECT_THROW(GemmW4A16(p.x, QuantizeWeightsW4A16(wrong.w, 64)),
               std::invalid_argument);

  // Quantizer preconditions: K not a multiple of group_size, bad group sizes.
  EXPECT_THROW(QuantizeWeightsW4A16(p.w, 48), std::invalid_argument);
  EXPECT_THROW(QuantizeWeightsLqq(p.w, {48}), std::invalid_argument);
  EXPECT_THROW(QuantizeWeightsLqq(p.w, {12}), std::invalid_argument);  // %8
  EXPECT_THROW(QuantizeWeightsQserve(p.w, {0}), std::invalid_argument);
}

TEST(GemmTest, W4A16ZeroPointIsOnTheQuantizationGrid) {
  // The stored zero must be zero_q * scale for an integer zero_q in [0, 15] —
  // i.e. snapped to the quantization grid — so dequantization is exactly
  // (q - zero_q) * scale with no off-grid residual.
  const Problem p = MakeProblem(1, 32, 256, 22);
  const auto wq = QuantizeWeightsW4A16(p.w, 64);
  for (std::size_t i = 0; i < wq.group_zero.size(); ++i) {
    const float s = static_cast<float>(wq.group_scale[i]);
    const float z = static_cast<float>(wq.group_zero[i]);
    ASSERT_GT(s, 0.0f);
    const float ratio = z / s;
    // Half rounding of zero_q * scale perturbs the ratio by at most
    // ~2^-11 * 15 ≈ 0.008.
    EXPECT_NEAR(ratio, std::nearbyint(ratio), 0.01f) << "group " << i;
    EXPECT_GE(std::nearbyint(ratio), 0.0f);
    EXPECT_LE(std::nearbyint(ratio), 15.0f);
  }
  // Grid-snapped zero must not hurt reconstruction: every weight within half a
  // quantization step (plus Half rounding slack) of its dequantized value.
  float max_err = 0.0f;
  for (std::size_t row = 0; row < wq.n; ++row) {
    for (std::size_t col = 0; col < wq.k; ++col) {
      const std::size_t gi = col / wq.group_size;
      const float s = static_cast<float>(
          wq.group_scale[row * (wq.k / wq.group_size) + gi]);
      const float err = std::abs(wq.Dequant(row, col) - p.w.At(row, col));
      max_err = std::max(max_err, err / std::max(s, 1e-20f));
    }
  }
  EXPECT_LT(max_err, 0.56f);  // 0.5 quantization + Half rounding slack
}

struct GemmShapeParam {
  std::size_t m;
  std::size_t n;
  std::size_t k;
};

class GemmShapeSweep : public ::testing::TestWithParam<GemmShapeParam> {};

TEST_P(GemmShapeSweep, AllPathsTrackReference) {
  const auto [m, n, k] = GetParam();
  const Problem p = MakeProblem(m, n, k, 100 + m + n + k);
  const MatrixF ref = GemmReference(p.x, p.w);
  const auto xq = QuantizeActivationsPerToken(p.x);

  const MatrixF w8 = GemmW8A8(xq, QuantizeWeightsW8A8(p.w));
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), w8.Flat()), kTolW8A8);

  const MatrixF w4 = GemmW4A8Liquid(xq, QuantizeWeightsLqq(p.w));
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), w4.Flat()), kTolW4A8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(GemmShapeParam{1, 64, 64},    // GEMV-like decode
                      GemmShapeParam{4, 64, 128},   // small batch
                      GemmShapeParam{16, 128, 256},
                      GemmShapeParam{64, 64, 192},  // non-square K
                      GemmShapeParam{3, 96, 320},   // odd M, N
                      GemmShapeParam{128, 64, 64}));

}  // namespace
}  // namespace liquid
