// Quickstart: the 5-minute tour of the LiquidGEMM public API.
//
//   1. Build an FP32 weight matrix and a calibration activation sample.
//   2. PrepareWeights(): SmoothQuant smoothing + two-level LiquidQuant +
//      dual-MMA supertile packing (all offline).
//   3. LiquidGemm(): per-token activation quantization + W4A8 GEMM with
//      register-level dequantization in the main loop.
//   4. Compare against the FP32 reference and inspect memory savings.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/api.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

using namespace liquid;

int main() {
  // A weight matrix shaped like a small projection layer: 512 output
  // channels, 1024 input features.
  constexpr std::size_t kN = 512, kK = 1024, kBatch = 16, kCalib = 32;
  Rng rng(42);
  MatrixF weights(kN, kK);
  for (auto& v : weights.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));

  // Calibration activations (with a mild outlier channel, as real LLM
  // activations have) drive the SmoothQuant grid search.
  MatrixF calib(kCalib, kK);
  for (auto& v : calib.Flat()) v = static_cast<float>(rng.Normal(0, 1.0));
  for (std::size_t i = 0; i < kCalib; ++i) calib.At(i, 100) *= 25.0f;

  std::printf("== LiquidGEMM quickstart ==\n");
  const PreparedWeights prep = PrepareWeights(weights, calib, {});
  std::printf("offline: smooth alpha = %.1f, group size = %zu\n",
              prep.smooth_alpha, prep.weights.group_size());
  std::printf("weights: FP32 %s -> W4A8 %s (%.1fx smaller)\n",
              HumanBytes(static_cast<double>(weights.size()) * 4).c_str(),
              HumanBytes(static_cast<double>(prep.weights.StorageBytes())).c_str(),
              static_cast<double>(weights.size()) * 4 /
                  static_cast<double>(prep.weights.StorageBytes()));

  // Online: a batch of activations through the W4A8 pipeline.
  MatrixF x(kBatch, kK);
  for (auto& v : x.Flat()) v = static_cast<float>(rng.Normal(0, 1.0));
  for (std::size_t i = 0; i < kBatch; ++i) x.At(i, 100) *= 25.0f;

  const MatrixF reference = GemmReference(x, weights);

  MatrixF x_smoothed = x;
  SmoothActivations(x_smoothed, prep.smooth_scale);
  const MatrixF y = LiquidGemm(x_smoothed, prep.weights);

  std::printf("\nonline: Y = X * W^T, [%zu x %zu] * [%zu x %zu]^T\n", kBatch,
              kK, kN, kK);
  std::printf("relative Frobenius error vs FP32: %.4f\n",
              RelativeFrobeniusError(reference.Flat(), y.Flat()));
  std::printf("SQNR: %.1f dB\n",
              SignalToQuantNoiseDb(reference.Flat(), y.Flat()));

  // The dual-MMA packed path computes the identical result (bit-exact).
  const MatrixF y_packed = GemmW4A8LiquidDualMma(
      QuantizeActivationsPerToken(x_smoothed), prep.packed);
  bool identical = true;
  for (std::size_t i = 0; i < y.size(); ++i) {
    identical &= y.Flat()[i] == y_packed.Flat()[i];
  }
  std::printf("dual-MMA supertile path bit-identical: %s\n",
              identical ? "yes" : "NO (bug!)");
  return identical ? 0 : 1;
}
