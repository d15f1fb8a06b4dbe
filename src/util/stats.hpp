#pragma once
// Summary statistics used by the quantization-accuracy study and the benchmark
// harness (percentile latencies, MSE/SQNR of dequantized tensors).

#include <cstddef>
#include <span>
#include <vector>

namespace liquid {

struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Single-pass mean/stddev/min/max (Welford).
Summary Summarize(std::span<const double> values);
Summary Summarize(std::span<const float> values);

/// Linear-interpolated percentile; `p` in [0, 100]; 0 for no values.
/// Copies the values once and selects the two order statistics around the
/// rank (no full sort).
double Percentile(std::span<const double> values, double p);
/// Percentile without the copy: reorders `values` in place.
double PercentileInPlace(std::span<double> values, double p);
/// Several percentiles of one sample set, `ps` in non-increasing order, into
/// `out` (same size).  Reorders `values` in place and selects each rank
/// within the part below the previous one, so each result is the double
/// PercentileInPlace returns for it and the work is one selection pass
/// over ever smaller ranges.
void PercentilesInPlace(std::span<double> values, std::span<const double> ps,
                        std::span<double> out);

/// Mean squared error between a reference tensor and its reconstruction.
double MeanSquaredError(std::span<const float> reference,
                        std::span<const float> reconstructed);

/// Signal-to-quantization-noise ratio in dB: 10*log10(E[x^2] / MSE).
/// Higher is better; each extra quantization bit is worth ~6 dB.
double SignalToQuantNoiseDb(std::span<const float> reference,
                            std::span<const float> reconstructed);

/// Max absolute elementwise error.
double MaxAbsError(std::span<const float> reference,
                   std::span<const float> reconstructed);

/// Relative Frobenius-norm error: ||ref - rec||_F / ||ref||_F.
double RelativeFrobeniusError(std::span<const float> reference,
                              std::span<const float> reconstructed);

/// Geometric mean of positive values (speedup aggregation).
double GeometricMean(std::span<const double> values);

}  // namespace liquid
