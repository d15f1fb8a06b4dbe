// Tests of the public PrepareWeights facade: smoothing search, dual-MMA
// packing conditions, and the end-to-end accuracy benefit on outlier data.

#include "core/api.hpp"

#include <gtest/gtest.h>

#include "core/gemm/gemm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace liquid {
namespace {

TEST(ApiTest, PrepareWeightsBuildsEverything) {
  Rng rng(1);
  MatrixF w(128, 256);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  MatrixF calib(16, 256);
  for (auto& v : calib.Flat()) v = static_cast<float>(rng.Normal(0, 1.0));

  const PreparedWeights prep = PrepareWeights(w, calib, {});
  EXPECT_EQ(prep.weights.n(), 128u);
  EXPECT_EQ(prep.weights.k(), 256u);
  EXPECT_EQ(prep.packed.TilesN(), 2u);
  EXPECT_EQ(prep.packed.TilesK(), 4u);
  EXPECT_EQ(prep.smooth_scale.size(), 256u);
  EXPECT_GT(prep.smooth_alpha, 0.0);
}

TEST(ApiTest, NoSmoothingLeavesScalesAtOne) {
  Rng rng(2);
  MatrixF w(64, 64);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  PrepareOptions opt;
  opt.smooth = false;
  const PreparedWeights prep = PrepareWeights(w, MatrixF(), opt);
  for (const float s : prep.smooth_scale) EXPECT_EQ(s, 1.0f);
  EXPECT_EQ(prep.smooth_alpha, 0.0);
}

TEST(ApiTest, UnalignedShapesSkipDualMmaPack) {
  Rng rng(3);
  MatrixF w(60, 64);  // N not a multiple of 64
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  PrepareOptions options;
  options.smooth = false;
  const PreparedWeights prep = PrepareWeights(w, MatrixF(), options);
  EXPECT_EQ(prep.packed.regs.size(), 0u);
  EXPECT_EQ(prep.weights.n(), 60u);  // linear weights still built
}

TEST(ApiTest, SmoothingImprovesOutlierActivationsAccuracy) {
  // With a strong activation outlier channel, the smoothed W4A8 pipeline
  // should beat the unsmoothed one end to end.
  Rng rng(4);
  const std::size_t m = 16, n = 64, k = 128;
  MatrixF x(m, k);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1.0));
  for (std::size_t i = 0; i < m; ++i) x.At(i, 5) *= 80.0f;
  MatrixF w(n, k);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  const MatrixF ref = GemmReference(x, w);

  // Unsmoothed.
  const MatrixF y_plain = LiquidGemm(x, QuantizeWeightsLqq(w));
  // Smoothed: apply the inverse scale to activations at runtime.
  const PreparedWeights prep = PrepareWeights(w, x, {});
  MatrixF xs = x;
  SmoothActivations(xs, prep.smooth_scale);
  const MatrixF y_smooth = LiquidGemm(xs, prep.weights);

  const double e_plain = RelativeFrobeniusError(ref.Flat(), y_plain.Flat());
  const double e_smooth = RelativeFrobeniusError(ref.Flat(), y_smooth.Flat());
  EXPECT_LT(e_smooth, e_plain);
}

}  // namespace
}  // namespace liquid
