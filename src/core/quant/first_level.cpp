#include "core/quant/first_level.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace liquid {
namespace {

// Adding and subtracting 1.5 * 2^23 rounds a float v with |v| <= 2^22 to the
// nearest integer, ties to even: exactly std::nearbyint in the default
// rounding mode, but without the libm call, so the loop vectorizes.
constexpr float kRoundToEven = 12582912.0f;

/// max |v| over a row, or nullopt when the row holds a NaN or an infinity.
///
/// With its sign bit cleared, a float's bit pattern read as an int32 orders
/// like its magnitude, and every NaN and infinity lies above every finite
/// value.  The integer max is therefore exact, it flags non-finite input for
/// free, and unlike a float max chain (whose NaN semantics pin the order) it
/// is a reduction the compiler splits across vector lanes.
std::optional<float> FiniteAbsMax(std::span<const float> values) {
  constexpr std::int32_t kMagnitude = 0x7fffffff;
  constexpr std::int32_t kInfinityBits = 0x7f800000;
  std::int32_t max_bits = 0;
  for (const float v : values) {
    max_bits = std::max(max_bits, std::bit_cast<std::int32_t>(v) & kMagnitude);
  }
  if (max_bits >= kInfinityBits) return std::nullopt;
  return std::bit_cast<float>(max_bits);
}

/// Symmetric quantization of one row to [-bound, bound]: scale =
/// absmax/bound, q = round-half-even(x / scale).  A row whose absmax is zero,
/// or so small that absmax/bound underflows to zero, quantizes to zeros with
/// unit scale (avoids 0/0).  Returns the scale.  Throws
/// std::invalid_argument on a NaN or an infinity, which no finite scale
/// represents and which would otherwise reach the int8 cast as NaN.
float QuantizeRow(const char* who, std::size_t row,
                  std::span<const float> src, int bound,
                  std::span<std::int8_t> dst) {
  const std::optional<float> absmax = FiniteAbsMax(src);
  if (!absmax) {
    throw std::invalid_argument(std::string(who) + ": row " +
                                std::to_string(row) +
                                " holds a NaN or an infinity");
  }
  const float b = static_cast<float>(bound);
  float scale = *absmax / b;
  if (scale == 0.0f) scale = 1.0f;
  for (std::size_t k = 0; k < src.size(); ++k) {
    // Clamping before rounding equals rounding before clamping for an
    // integer bound, and keeps |v| inside kRoundToEven's exact range.
    const float v = std::clamp(src[k] / scale, -b, b);
    dst[k] = static_cast<std::int8_t>((v + kRoundToEven) - kRoundToEven);
  }
  return scale;
}

}  // namespace

FirstLevelResult QuantizeFirstLevel(const MatrixF& weights,
                                    FirstLevelOptions options) {
  const int bound = options.protective_range ? kProtectiveMax : 127;
  FirstLevelResult out;
  out.q = MatrixI8(weights.rows(), weights.cols());
  out.channel_scale.resize(weights.rows());
  for (std::size_t n = 0; n < weights.rows(); ++n) {
    out.channel_scale[n] = QuantizeRow("QuantizeFirstLevel", n, weights.Row(n),
                                       bound, out.q.Row(n));
  }
  return out;
}

MatrixF DequantizeFirstLevel(const FirstLevelResult& q) {
  MatrixF out(q.q.rows(), q.q.cols());
  for (std::size_t n = 0; n < q.q.rows(); ++n) {
    const auto src = q.q.Row(n);
    const auto dst = out.Row(n);
    for (std::size_t k = 0; k < src.size(); ++k) {
      dst[k] = static_cast<float>(src[k]) * q.channel_scale[n];
    }
  }
  return out;
}

std::vector<float> ComputeSmoothScale(const MatrixF& act_sample,
                                      const MatrixF& weights, double alpha) {
  const std::size_t k_dim = weights.cols();
  std::vector<float> smooth(k_dim, 1.0f);
  for (std::size_t k = 0; k < k_dim; ++k) {
    float act_max = 0.0f;
    for (std::size_t m = 0; m < act_sample.rows(); ++m) {
      act_max = std::max(act_max, std::fabs(act_sample.At(m, k)));
    }
    float w_max = 0.0f;
    for (std::size_t n = 0; n < weights.rows(); ++n) {
      w_max = std::max(w_max, std::fabs(weights.At(n, k)));
    }
    if (act_max <= 0.0f || w_max <= 0.0f) continue;
    const double s = std::pow(act_max, alpha) / std::pow(w_max, 1.0 - alpha);
    if (s > 0.0 && std::isfinite(s)) smooth[k] = static_cast<float>(s);
  }
  return smooth;
}

void SmoothWeights(MatrixF& weights, std::span<const float> smooth) {
  for (std::size_t n = 0; n < weights.rows(); ++n) {
    const auto row = weights.Row(n);
    for (std::size_t k = 0; k < row.size(); ++k) row[k] *= smooth[k];
  }
}

void SmoothActivations(MatrixF& activations, std::span<const float> smooth) {
  for (std::size_t m = 0; m < activations.rows(); ++m) {
    const auto row = activations.Row(m);
    for (std::size_t k = 0; k < row.size(); ++k) row[k] /= smooth[k];
  }
}

double SearchSmoothAlpha(const MatrixF& act_sample, const MatrixF& weights,
                         int group_size, std::span<const double> candidates) {
  // Score each alpha by the INT8 reconstruction error of the smoothed
  // weights; group_size is accepted for interface symmetry with the
  // second-level quantizers but the first level is per-channel.
  (void)group_size;
  double best_alpha = 0.5;
  double best_err = std::numeric_limits<double>::infinity();
  for (const double alpha : candidates) {
    const auto smooth = ComputeSmoothScale(act_sample, weights, alpha);
    MatrixF smoothed = weights;
    SmoothWeights(smoothed, smooth);
    const FirstLevelResult q = QuantizeFirstLevel(smoothed);
    const MatrixF rec = DequantizeFirstLevel(q);
    double err = 0.0;
    for (std::size_t i = 0; i < rec.size(); ++i) {
      const double d = static_cast<double>(rec.Flat()[i]) -
                       static_cast<double>(smoothed.Flat()[i]);
      err += d * d;
    }
    if (err < best_err) {
      best_err = err;
      best_alpha = alpha;
    }
  }
  return best_alpha;
}

QuantizedActivations QuantizeActivationsPerToken(const MatrixF& activations) {
  QuantizedActivations out;
  out.q = MatrixI8(activations.rows(), activations.cols());
  out.token_scale.resize(activations.rows());
  for (std::size_t m = 0; m < activations.rows(); ++m) {
    out.token_scale[m] = QuantizeRow("QuantizeActivationsPerToken", m,
                                     activations.Row(m), 127, out.q.Row(m));
  }
  return out;
}

MatrixF DequantizeActivations(const QuantizedActivations& acts) {
  MatrixF out(acts.q.rows(), acts.q.cols());
  for (std::size_t m = 0; m < acts.q.rows(); ++m) {
    const auto src = acts.q.Row(m);
    const auto dst = out.Row(m);
    for (std::size_t k = 0; k < src.size(); ++k) {
      dst[k] = static_cast<float>(src[k]) * acts.token_scale[m];
    }
  }
  return out;
}

}  // namespace liquid
