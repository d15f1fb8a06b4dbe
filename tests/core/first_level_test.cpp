#include "core/quant/first_level.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace liquid {
namespace {

MatrixF RandomWeights(std::size_t n, std::size_t k, std::uint64_t seed,
                      double outlier_frac = 0.0) {
  Rng rng(seed);
  MatrixF w(n, k);
  auto vals = outlier_frac > 0 ? rng.OutlierTensor(n * k, 0.05, outlier_frac, 15.0)
                               : rng.GaussianTensor(n * k, 0.05);
  for (std::size_t i = 0; i < w.size(); ++i) w.Flat()[i] = vals[i];
  return w;
}

// --- Scalar oracle: the per-element loops the vector ones replaced ----------

float OracleMaxAbs(std::span<const float> values) {
  float m = 0.0f;
  for (const float v : values) m = std::max(m, std::fabs(v));
  return m;
}

std::int8_t OracleClampRound(float value, int bound) {
  const float r = std::nearbyint(value);
  const float clamped =
      std::clamp(r, static_cast<float>(-bound), static_cast<float>(bound));
  return static_cast<std::int8_t>(clamped);
}

/// Per-row symmetric quantization to [-bound, bound] as a max chain, then a
/// divide and a libm nearbyint per element.
void OracleQuantize(const MatrixF& x, int bound, MatrixI8& q,
                    std::vector<float>& scales) {
  q = MatrixI8(x.rows(), x.cols());
  scales.resize(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const float absmax = OracleMaxAbs(x.Row(r));
    const float scale =
        absmax > 0.0f ? absmax / static_cast<float>(bound) : 1.0f;
    scales[r] = scale;
    const auto src = x.Row(r);
    const auto dst = q.Row(r);
    for (std::size_t k = 0; k < src.size(); ++k) {
      dst[k] = OracleClampRound(src[k] / scale, bound);
    }
  }
}

/// Rows of width k that probe the rounding and the absmax pass: Gaussian
/// rows, the absmax at either end with either sign, +-0 and all-zero rows,
/// exact .5 ties of both signs (the row's scale is exactly 1/4, so x / scale
/// lands on j + 0.5), denormals beside a normal absmax, an all-denormal row
/// and huge magnitudes.
MatrixF OracleRows(std::size_t k, int bound, std::uint64_t seed) {
  constexpr std::size_t kRows = 11;
  constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();
  Rng rng(seed);
  MatrixF x(kRows, k);
  for (std::size_t r = 0; r < 4; ++r) {
    for (float& v : x.Row(r)) v = static_cast<float>(rng.Normal(0, 1.5));
  }
  const float top = OracleMaxAbs(x.Row(0)) + 1.0f;
  x.At(0, 0) = -top;       // negative absmax first
  x.At(1, k - 1) = top;    // positive absmax last
  x.At(2, 0) = top;        // positive absmax first
  x.At(3, k - 1) = -top;   // negative absmax last
  // Row 4 stays all +0; row 5 alternates +0 and -0.
  for (std::size_t c = 0; c < k; c += 2) x.At(5, c) = -0.0f;
  // Rows 6 and 7: .5 ties of both signs under a scale of exactly 1/4.
  const float quarter = 0.25f;
  for (std::size_t c = 0; c < k; ++c) {
    const float tie = static_cast<float>(c % static_cast<std::size_t>(bound)) +
                      0.5f;
    x.At(6, c) = (c % 2 == 0 ? tie : -tie) * quarter;
    x.At(7, c) = (c % 3 == 0 ? -tie : tie) * quarter;
  }
  x.At(6, k / 2) = static_cast<float>(bound) * quarter;
  x.At(7, 0) = -static_cast<float>(bound) * quarter;
  // Row 8: denormals beside one normal value.
  for (std::size_t c = 0; c < k; ++c) {
    x.At(8, c) = (c % 2 == 0 ? 1.0f : -1.0f) * kDenormMin *
                 static_cast<float>(c + 1);
  }
  x.At(8, k / 3) = 1.0f;
  // Row 9: only denormals, so the scale itself is denormal.
  for (std::size_t c = 0; c < k; ++c) {
    x.At(9, c) = 1e-39f * static_cast<float>(static_cast<int>(c % 7) - 3) /
                 3.0f;
  }
  x.At(9, k - 1) = -1e-39f;
  // Row 10: huge magnitudes.
  for (float& v : x.Row(10)) v = static_cast<float>(rng.Normal(0, 1e30));
  return x;
}

void ExpectMatchesOracle(const MatrixF& x, int bound, const MatrixI8& q,
                         const std::vector<float>& scales) {
  MatrixI8 want;
  std::vector<float> want_scales;
  OracleQuantize(x, bound, want, want_scales);
  ASSERT_EQ(q.rows(), want.rows());
  ASSERT_EQ(q.cols(), want.cols());
  EXPECT_EQ(std::memcmp(q.data(), want.data(), want.size()), 0)
      << "K=" << x.cols() << " bound=" << bound;
  ASSERT_EQ(scales.size(), want_scales.size());
  for (std::size_t r = 0; r < scales.size(); ++r) {
    EXPECT_EQ(scales[r], want_scales[r])
        << "K=" << x.cols() << " bound=" << bound << " row " << r;
  }
}

TEST(QuantizerOracleTest, VectorLoopsMatchScalarLoopsBitForBit) {
  for (const std::size_t k : {1u, 7u, 9u, 31u, 4095u}) {
    const MatrixF x127 = OracleRows(k, 127, 100 + k);
    const QuantizedActivations acts = QuantizeActivationsPerToken(x127);
    ExpectMatchesOracle(x127, 127, acts.q, acts.token_scale);
    FirstLevelOptions full;
    full.protective_range = false;
    const FirstLevelResult w8a8 = QuantizeFirstLevel(x127, full);
    ExpectMatchesOracle(x127, 127, w8a8.q, w8a8.channel_scale);

    const MatrixF x119 = OracleRows(k, kProtectiveMax, 200 + k);
    const FirstLevelResult lqq = QuantizeFirstLevel(x119);
    ExpectMatchesOracle(x119, kProtectiveMax, lqq.q, lqq.channel_scale);
  }
}

TEST(QuantizerOracleTest, QuarterScaleRowsHoldExactTies) {
  // The tie rows above must really be ties, or they test nothing.
  for (const int bound : {127, kProtectiveMax}) {
    const MatrixF x = OracleRows(31, bound, 7);
    for (const std::size_t row : {6u, 7u}) {
      const float scale =
          OracleMaxAbs(x.Row(row)) / static_cast<float>(bound);
      ASSERT_EQ(scale, 0.25f);
      const float q = x.At(row, 1) / scale;
      EXPECT_EQ(q - std::floor(q), 0.5f) << "bound " << bound;
    }
  }
}

TEST(QuantizerOracleTest, ActivationQuantizationRejectsNonFiniteInput) {
  // NaN and +-inf each land in the vector body and in the scalar tail.
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const float v : bad) {
    for (const std::size_t col : {0u, 17u, 4094u}) {
      MatrixF x(3, 4095);
      for (float& e : x.Flat()) e = 0.5f;
      x.At(2, col) = v;
      EXPECT_THROW(QuantizeActivationsPerToken(x), std::invalid_argument)
          << v << " at column " << col;
    }
  }
}

TEST(QuantizerOracleTest, FirstLevelQuantizationRejectsNonFiniteInput) {
  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (const float v : bad) {
    for (const bool protective : {true, false}) {
      MatrixF w = RandomWeights(4, 37, 11);
      w.At(1, 36) = v;
      FirstLevelOptions options;
      options.protective_range = protective;
      EXPECT_THROW(QuantizeFirstLevel(w, options), std::invalid_argument)
          << v << " protective=" << protective;
    }
  }
}

TEST(QuantizerOracleTest, RowWhoseScaleUnderflowsQuantizesToZero) {
  // absmax / 127 rounds to zero below ~1e-43: such a row gets unit scale
  // and all-zero codes, as an all-zero row does, instead of dividing by 0.
  MatrixF x(1, 9);
  x.At(0, 4) = 8 * std::numeric_limits<float>::denorm_min();
  const QuantizedActivations q = QuantizeActivationsPerToken(x);
  EXPECT_EQ(q.token_scale[0], 1.0f);
  for (const std::int8_t v : q.q.Flat()) EXPECT_EQ(v, 0);
}

TEST(FirstLevelTest, ProtectiveRangeIsEnforced) {
  const MatrixF w = RandomWeights(16, 256, 1, 0.02);
  const FirstLevelResult q = QuantizeFirstLevel(w);
  for (const std::int8_t v : q.q.Flat()) {
    EXPECT_GE(v, -kProtectiveMax);
    EXPECT_LE(v, kProtectiveMax);
  }
}

TEST(FirstLevelTest, FullRangeWhenUnprotected) {
  MatrixF w(1, 4);
  w.At(0, 0) = 1.0f;
  w.At(0, 1) = -1.0f;
  w.At(0, 2) = 0.5f;
  w.At(0, 3) = 0.0f;
  FirstLevelOptions opt;
  opt.protective_range = false;
  const FirstLevelResult q = QuantizeFirstLevel(w, opt);
  EXPECT_EQ(q.q.At(0, 0), 127);
  EXPECT_EQ(q.q.At(0, 1), -127);
}

TEST(FirstLevelTest, MaxAbsElementHitsBound) {
  const MatrixF w = RandomWeights(8, 128, 2);
  const FirstLevelResult q = QuantizeFirstLevel(w);
  for (std::size_t n = 0; n < w.rows(); ++n) {
    int absmax = 0;
    for (const std::int8_t v : q.q.Row(n)) {
      absmax = std::max<int>(absmax, std::abs(static_cast<int>(v)));
    }
    EXPECT_EQ(absmax, kProtectiveMax) << "row " << n;
  }
}

TEST(FirstLevelTest, ReconstructionErrorWithinHalfStep) {
  const MatrixF w = RandomWeights(8, 128, 3);
  const FirstLevelResult q = QuantizeFirstLevel(w);
  const MatrixF rec = DequantizeFirstLevel(q);
  for (std::size_t n = 0; n < w.rows(); ++n) {
    const float half_step = q.channel_scale[n] * 0.5f * 1.0001f;
    for (std::size_t k = 0; k < w.cols(); ++k) {
      EXPECT_LE(std::fabs(rec.At(n, k) - w.At(n, k)), half_step);
    }
  }
}

TEST(FirstLevelTest, ZeroRowHasUnitScale) {
  MatrixF w(2, 8);  // all zeros
  const FirstLevelResult q = QuantizeFirstLevel(w);
  EXPECT_EQ(q.channel_scale[0], 1.0f);
  for (const std::int8_t v : q.q.Flat()) EXPECT_EQ(v, 0);
}

TEST(FirstLevelTest, SmoothingPreservesProduct) {
  // X * W^T must be unchanged by (X / s) * (W * s)^T.
  Rng rng(4);
  MatrixF x(4, 64);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  MatrixF w = RandomWeights(8, 64, 5);
  const auto smooth = ComputeSmoothScale(x, w, 0.5);

  // Direct dot product check on a few entries.
  MatrixF xs = x;
  MatrixF ws = w;
  SmoothActivations(xs, smooth);
  SmoothWeights(ws, smooth);
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::size_t n = 0; n < 8; ++n) {
      double before = 0;
      double after = 0;
      for (std::size_t k = 0; k < 64; ++k) {
        before += static_cast<double>(x.At(m, k)) * w.At(n, k);
        after += static_cast<double>(xs.At(m, k)) * ws.At(n, k);
      }
      EXPECT_NEAR(after, before, 1e-3 * (std::fabs(before) + 1.0));
    }
  }
}

TEST(FirstLevelTest, SmoothingReducesActivationOutlierImpact) {
  // With activation outliers in a few columns, smoothing shifts difficulty
  // into the weights: post-smoothing activation absmax per column shrinks.
  Rng rng(6);
  MatrixF x(16, 64);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  for (std::size_t m = 0; m < 16; ++m) x.At(m, 7) *= 50.0f;  // outlier channel
  MatrixF w = RandomWeights(8, 64, 7);
  const auto smooth = ComputeSmoothScale(x, w, 0.5);
  EXPECT_GT(smooth[7], smooth[3]);
}

TEST(FirstLevelTest, AlphaSearchReturnsCandidate) {
  Rng rng(8);
  MatrixF x(8, 64);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1));
  const MatrixF w = RandomWeights(8, 64, 9);
  const std::vector<double> grid{0.3, 0.5, 0.7};
  const double alpha = SearchSmoothAlpha(x, w, 64, grid);
  EXPECT_TRUE(alpha == 0.3 || alpha == 0.5 || alpha == 0.7);
}

TEST(ActivationQuantTest, PerTokenRoundTrip) {
  Rng rng(10);
  MatrixF x(8, 128);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 3));
  const QuantizedActivations q = QuantizeActivationsPerToken(x);
  const MatrixF rec = DequantizeActivations(q);
  for (std::size_t m = 0; m < x.rows(); ++m) {
    const float half_step = q.token_scale[m] * 0.5f * 1.0001f;
    for (std::size_t k = 0; k < x.cols(); ++k) {
      EXPECT_LE(std::fabs(rec.At(m, k) - x.At(m, k)), half_step);
    }
  }
}

TEST(ActivationQuantTest, ScalesArePerToken) {
  MatrixF x(2, 4);
  x.At(0, 0) = 127.0f;   // row 0 absmax 127 -> scale 1
  x.At(1, 0) = 254.0f;   // row 1 absmax 254 -> scale 2
  const QuantizedActivations q = QuantizeActivationsPerToken(x);
  EXPECT_FLOAT_EQ(q.token_scale[0], 1.0f);
  EXPECT_FLOAT_EQ(q.token_scale[1], 2.0f);
  EXPECT_EQ(q.q.At(0, 0), 127);
  EXPECT_EQ(q.q.At(1, 0), 127);
}

}  // namespace
}  // namespace liquid
