// Public GEMM entry points: shape validation + provider dispatch, plus the
// provider-independent offline quantizers (W8A8, W4A16).
//
// The kernels themselves live in gemm_reference.cpp / gemm_portable.cpp /
// gemm_avx2.cpp behind the GemmKernelTable in kernels.hpp.

#include "core/gemm/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/gemm/gemm_counters.hpp"
#include "core/gemm/kernels.hpp"

namespace liquid {
namespace {

// Shape preconditions throw (not assert): in a Release build an assert
// compiles out and a mismatched K silently reads out of bounds.
[[noreturn]] void ThrowShape(const char* kernel, const std::string& detail) {
  throw std::invalid_argument(std::string(kernel) + ": " + detail);
}

void CheckFloatGemm(const char* kernel, const MatrixF& x, const MatrixF& w) {
  if (x.cols() != w.cols()) {
    ThrowShape(kernel, "K mismatch: x is [" + std::to_string(x.rows()) + " x " +
                           std::to_string(x.cols()) + "], w is [" +
                           std::to_string(w.rows()) + " x " +
                           std::to_string(w.cols()) + "]");
  }
}

void CheckActivations(const char* kernel, const QuantizedActivations& x,
                      std::size_t k) {
  if (x.q.cols() != k) {
    ThrowShape(kernel, "K mismatch: activations have K=" +
                           std::to_string(x.q.cols()) + ", weights have K=" +
                           std::to_string(k));
  }
  if (x.token_scale.size() != x.q.rows()) {
    ThrowShape(kernel, "token_scale has " +
                           std::to_string(x.token_scale.size()) +
                           " entries for " + std::to_string(x.q.rows()) +
                           " token rows");
  }
}

void CheckChannelScale(const char* kernel, std::size_t scales, std::size_t n) {
  if (scales != n) {
    ThrowShape(kernel, "channel_scale has " + std::to_string(scales) +
                           " entries for " + std::to_string(n) +
                           " output channels");
  }
}

void CheckPackedW4A8(const char* kernel, std::size_t n, std::size_t k,
                     std::size_t group_size, std::size_t packed_regs,
                     std::size_t groups) {
  if (group_size == 0 || group_size % 8 != 0) {
    ThrowShape(kernel, "group_size " + std::to_string(group_size) +
                           " must be a positive multiple of 8");
  }
  if (k % group_size != 0) {
    ThrowShape(kernel, "K=" + std::to_string(k) +
                           " is not a multiple of group_size=" +
                           std::to_string(group_size));
  }
  if (packed_regs != n * (k / 8)) {
    ThrowShape(kernel, "packed register count " + std::to_string(packed_regs) +
                           " != n*k/8 = " + std::to_string(n * (k / 8)));
  }
  if (groups != n * (k / group_size)) {
    ThrowShape(kernel, "group_params count " + std::to_string(groups) +
                           " != n*k/group_size = " +
                           std::to_string(n * (k / group_size)));
  }
}

// Host-resident bytes the kernel actually touches (arithmetic-intensity
// accounting): quantized activations are INT8 + one fp32 scale per token;
// float activations/weights are fp32 storage (the fp16 kernel simulates
// half precision over fp32-resident matrices).
std::size_t ActivationBytes(const QuantizedActivations& x) {
  return x.q.rows() * x.q.cols() + x.token_scale.size() * 4;
}

std::size_t ActivationBytes(const MatrixF& x) { return x.rows() * x.cols() * 4; }

}  // namespace

MatrixF GemmReference(const MatrixF& x, const MatrixF& w,
                      GemmProvider provider) {
  CheckFloatGemm("GemmReference", x, w);
  gemmstats::Count(gemmstats::Kernel::kFp32, x.rows(), w.rows(), x.cols(),
                   w.rows() * w.cols() * 4, ActivationBytes(x));
  return detail::Kernels(provider).fp32(x, w);
}

MatrixF GemmFp16(const MatrixF& x, const MatrixF& w, GemmProvider provider) {
  CheckFloatGemm("GemmFp16", x, w);
  gemmstats::Count(gemmstats::Kernel::kFp16, x.rows(), w.rows(), x.cols(),
                   w.rows() * w.cols() * 4, ActivationBytes(x));
  return detail::Kernels(provider).fp16(x, w);
}

W8A8Weights QuantizeWeightsW8A8(const MatrixF& weights) {
  FirstLevelOptions options;
  options.protective_range = false;  // plain symmetric INT8
  FirstLevelResult first = QuantizeFirstLevel(weights, options);
  W8A8Weights out;
  out.q = std::move(first.q);
  out.channel_scale = std::move(first.channel_scale);
  return out;
}

MatrixF GemmW8A8(const QuantizedActivations& x, const W8A8Weights& w,
                 GemmProvider provider) {
  CheckActivations("GemmW8A8", x, w.q.cols());
  CheckChannelScale("GemmW8A8", w.channel_scale.size(), w.q.rows());
  gemmstats::Count(gemmstats::Kernel::kW8A8, x.q.rows(), w.q.rows(),
                   w.q.cols(), w.StorageBytes(), ActivationBytes(x));
  return detail::Kernels(provider).w8a8(x, w);
}

float W4A16Weights::Dequant(std::size_t row, std::size_t col) const {
  const std::uint8_t byte = packed[row * (k / 2) + col / 2];
  const std::uint8_t q =
      (col % 2 == 0) ? (byte & 0x0Fu) : static_cast<std::uint8_t>(byte >> 4);
  const std::size_t g = row * (k / group_size) + col / group_size;
  return static_cast<float>(q) * group_scale[g].ToFloat() -
         group_zero[g].ToFloat();
}

W4A16Weights QuantizeWeightsW4A16(const MatrixF& weights,
                                  std::size_t group_size) {
  const std::size_t n = weights.rows();
  const std::size_t k = weights.cols();
  if (group_size == 0) {
    ThrowShape("QuantizeWeightsW4A16", "group_size must be >= 1");
  }
  if (k % group_size != 0 || k % 2 != 0) {
    ThrowShape("QuantizeWeightsW4A16",
               "K=" + std::to_string(k) + " must be a multiple of 2 and of "
               "group_size=" + std::to_string(group_size));
  }
  W4A16Weights out;
  out.n = n;
  out.k = k;
  out.group_size = group_size;
  out.packed.assign(n * k / 2, 0);
  out.group_scale.resize(n * (k / group_size));
  out.group_zero.resize(n * (k / group_size));
  for (std::size_t row = 0; row < n; ++row) {
    for (std::size_t gi = 0; gi < k / group_size; ++gi) {
      float lo = weights.At(row, gi * group_size);
      float hi = lo;
      for (std::size_t j = 1; j < group_size; ++j) {
        const float v = weights.At(row, gi * group_size + j);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      float scale = (hi - lo) / 15.0f;
      if (scale <= 0.0f) scale = 1.0f;
      out.group_scale[row * (k / group_size) + gi] = Half(scale);
      const float s_eff =
          out.group_scale[row * (k / group_size) + gi].ToFloat();
      // AWQ-style: w ≈ (q - z_q)*s with the zero point z_q snapped to the
      // quantization grid, so dequantization never leaves the INT4 lattice.
      const int zero_q = static_cast<int>(
          std::clamp(std::nearbyint(-lo / s_eff), 0.0f, 15.0f));
      out.group_zero[row * (k / group_size) + gi] =
          Half(static_cast<float>(zero_q) * s_eff);
      const float z_eff = out.group_zero[row * (k / group_size) + gi].ToFloat();
      for (std::size_t j = 0; j < group_size; ++j) {
        const std::size_t col = gi * group_size + j;
        const float v = weights.At(row, col);
        const int q = static_cast<int>(
            std::clamp(std::nearbyint((v + z_eff) / s_eff), 0.0f, 15.0f));
        std::uint8_t& byte = out.packed[row * (k / 2) + col / 2];
        if (col % 2 == 0) {
          byte = static_cast<std::uint8_t>((byte & 0xF0u) | q);
        } else {
          byte = static_cast<std::uint8_t>((byte & 0x0Fu) | (q << 4));
        }
      }
    }
  }
  return out;
}

MatrixF GemmW4A16(const MatrixF& x, const W4A16Weights& w,
                  GemmProvider provider) {
  if (x.cols() != w.k) {
    ThrowShape("GemmW4A16", "K mismatch: x has K=" + std::to_string(x.cols()) +
                                ", weights have K=" + std::to_string(w.k));
  }
  if (w.group_size == 0 || w.k % w.group_size != 0 || w.k % 2 != 0 ||
      w.packed.size() != w.n * w.k / 2) {
    ThrowShape("GemmW4A16", "malformed W4A16Weights (n=" + std::to_string(w.n) +
                                ", k=" + std::to_string(w.k) + ", group_size=" +
                                std::to_string(w.group_size) + ")");
  }
  gemmstats::Count(gemmstats::Kernel::kW4A16, x.rows(), w.n, w.k,
                   w.StorageBytes(), ActivationBytes(x));
  return detail::Kernels(provider).w4a16(x, w);
}

MatrixF GemmW4A8Liquid(const QuantizedActivations& x, const LqqWeights& w,
                       GemmProvider provider) {
  // The weight's shape and Section 4 bound were validated when it was built.
  CheckActivations("GemmW4A8Liquid", x, w.k());
  gemmstats::Count(gemmstats::Kernel::kW4A8Lqq, x.q.rows(), w.n(), w.k(),
                   w.StorageBytes(), ActivationBytes(x));
  return detail::Kernels(provider).w4a8_lqq(x, w);
}

MatrixF GemmW4A8LiquidDualMma(const QuantizedActivations& x,
                              const DualMmaPackedWeights& w,
                              GemmProvider provider) {
  CheckActivations("GemmW4A8LiquidDualMma", x, w.k);
  CheckChannelScale("GemmW4A8LiquidDualMma", w.channel_scale.size(), w.n);
  if (w.n % kSupertileRows != 0 || w.k % kSupertileCols != 0) {
    ThrowShape("GemmW4A8LiquidDualMma",
               "supertile layout needs N, K multiples of 64; got N=" +
                   std::to_string(w.n) + ", K=" + std::to_string(w.k));
  }
  gemmstats::Count(gemmstats::Kernel::kW4A8DualMma, x.q.rows(), w.n, w.k,
                   w.regs.size() * sizeof(std::uint32_t) +
                       w.group_params.size() * sizeof(LqqGroupParams) +
                       w.channel_scale.size() * 4,
                   ActivationBytes(x));
  return detail::Kernels(provider).w4a8_dual(x, w);
}

MatrixF GemmW4A8Qserve(const QuantizedActivations& x, const QserveWeights& w,
                       GemmProvider provider) {
  CheckActivations("GemmW4A8Qserve", x, w.k);
  CheckChannelScale("GemmW4A8Qserve", w.channel_scale.size(), w.n);
  CheckPackedW4A8("GemmW4A8Qserve", w.n, w.k, w.group_size, w.packed.size(),
                  w.group_params.size());
  gemmstats::Count(gemmstats::Kernel::kW4A8Qserve, x.q.rows(), w.n, w.k,
                   w.StorageBytes(), ActivationBytes(x));
  return detail::Kernels(provider).w4a8_qserve(x, w);
}

MatrixF LiquidGemm(const MatrixF& x, const LqqWeights& w,
                   GemmProvider provider) {
  return GemmW4A8Liquid(QuantizeActivationsPerToken(x), w, provider);
}

}  // namespace liquid
