#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace liquid {
namespace {

template <typename T>
Summary SummarizeImpl(std::span<const T> values) {
  Summary s;
  if (values.empty()) return s;
  s.count = values.size();
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double mean = 0.0;
  double m2 = 0.0;
  std::size_t n = 0;
  for (const T v : values) {
    const double x = static_cast<double>(v);
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = mean;
  s.stddev = n > 1 ? std::sqrt(m2 / static_cast<double>(n - 1)) : 0.0;
  return s;
}

}  // namespace

Summary Summarize(std::span<const double> values) {
  return SummarizeImpl(values);
}
Summary Summarize(std::span<const float> values) { return SummarizeImpl(values); }

double Percentile(std::span<const double> values, double p) {
  std::vector<double> scratch(values.begin(), values.end());
  return PercentileInPlace(scratch, p);
}

double PercentileInPlace(std::span<double> values, double p) {
  double out = 0;
  PercentilesInPlace(values, {&p, 1}, {&out, 1});
  return out;
}

void PercentilesInPlace(std::span<double> values, std::span<const double> ps,
                        std::span<double> out) {
  assert(out.size() == ps.size());
  const std::size_t n = values.size();
  // Invariant between ranks: values[bound] is the bound-th order statistic
  // and [0, bound) holds the `bound` smaller ones, so a lower rank selects
  // within [0, bound) (bound = n before the first rank).
  std::size_t bound = n;
  double lo_value = 0, hi_value = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (n == 0) {
      out[i] = 0.0;
      continue;
    }
    const double p = std::clamp(ps[i], 0.0, 100.0);
    const double rank = (p / 100.0) * static_cast<double>(n - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, n - 1);
    const double frac = rank - static_cast<double>(lo);
    assert(lo <= bound);  // ps is non-increasing
    if (lo < bound) {
      // The two order statistics a full sort would put at `lo` and `hi`:
      // select the low one, then the high one is the least of the values
      // after it, up to and including the previous rank's.
      const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto end =
          values.begin() + static_cast<std::ptrdiff_t>(std::min(bound + 1, n));
      std::nth_element(values.begin(), lo_it,
                       values.begin() + static_cast<std::ptrdiff_t>(bound));
      lo_value = *lo_it;
      hi_value = hi == lo ? lo_value : *std::min_element(lo_it + 1, end);
      bound = lo;
    }
    // (lo == bound: the same rank pair as the previous percentile.)
    out[i] = lo_value * (1.0 - frac) + hi_value * frac;
  }
}

double MeanSquaredError(std::span<const float> reference,
                        std::span<const float> reconstructed) {
  if (reference.empty() || reference.size() != reconstructed.size()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double d =
        static_cast<double>(reference[i]) - static_cast<double>(reconstructed[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(reference.size());
}

double SignalToQuantNoiseDb(std::span<const float> reference,
                            std::span<const float> reconstructed) {
  const double mse = MeanSquaredError(reference, reconstructed);
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  double power = 0.0;
  for (const float v : reference) {
    power += static_cast<double>(v) * static_cast<double>(v);
  }
  power /= static_cast<double>(reference.size());
  return 10.0 * std::log10(power / mse);
}

double MaxAbsError(std::span<const float> reference,
                   std::span<const float> reconstructed) {
  double worst = 0.0;
  const std::size_t n = std::min(reference.size(), reconstructed.size());
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(reference[i]) -
                                     static_cast<double>(reconstructed[i])));
  }
  return worst;
}

double RelativeFrobeniusError(std::span<const float> reference,
                              std::span<const float> reconstructed) {
  double num = 0.0;
  double den = 0.0;
  const std::size_t n = std::min(reference.size(), reconstructed.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double d =
        static_cast<double>(reference[i]) - static_cast<double>(reconstructed[i]);
    num += d * d;
    den += static_cast<double>(reference[i]) * static_cast<double>(reference[i]);
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::sqrt(num / den);
}

double GeometricMean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace liquid
