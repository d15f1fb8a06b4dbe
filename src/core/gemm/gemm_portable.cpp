// Portable GEMM provider: OpenMP-tiled, cache-blocked pure C++ — the
// fallback used when the SIMD provider is compiled out (non-x86) or disabled
// (LIQUID_GEMM_PROVIDER=portable, -DLIQUID_ENABLE_AVX2=OFF).
//
// Structure: the weight matrix is processed in panels of kPanelRows output
// channels.  The W4A8 paths dequantize a whole panel into per-thread scratch
// once, then stream every activation row across the panel, so each X row is
// read once per panel instead of once per output channel.  Integer dots are
// unrolled with independent partial accumulators — INT32 addition is
// associative, so results stay bit-identical to the reference provider.  The
// float paths hoist the soft-float binary16 rounding out of the O(M·N·K)
// loop (the reference re-rounds both operands on every MAC).

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dequant/dequant.hpp"
#include "core/gemm/kernels.hpp"

namespace liquid::detail {
namespace {

constexpr std::size_t kPanelRows = 16;  ///< weight rows per dequantized panel

std::int32_t DotI8Unrolled(const std::int8_t* a, const std::int8_t* b,
                           std::size_t k) {
  std::int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    acc0 += static_cast<std::int32_t>(a[i]) * b[i];
    acc1 += static_cast<std::int32_t>(a[i + 1]) * b[i + 1];
    acc2 += static_cast<std::int32_t>(a[i + 2]) * b[i + 2];
    acc3 += static_cast<std::int32_t>(a[i + 3]) * b[i + 3];
  }
  for (; i < k; ++i) acc0 += static_cast<std::int32_t>(a[i]) * b[i];
  return acc0 + acc1 + acc2 + acc3;
}

float DotF32Unrolled(const float* a, const float* b, std::size_t k) {
  float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < k; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

/// Shared skeleton for the W4A8 panel paths: `dequant_row(nu, out)` fills the
/// INT8 row for output channel nu.
template <typename DequantRowFn>
MatrixF PanelGemmI8(const QuantizedActivations& x, std::size_t n_dim,
                    std::size_t k, std::span<const float> channel_scale,
                    DequantRowFn&& dequant_row) {
  const std::size_t m_dim = x.q.rows();
  MatrixF y(m_dim, n_dim);
  const std::ptrdiff_t panels =
      static_cast<std::ptrdiff_t>((n_dim + kPanelRows - 1) / kPanelRows);
#pragma omp parallel
  {
    std::vector<std::int8_t> panel(kPanelRows * k);
#pragma omp for schedule(static)
    for (std::ptrdiff_t p = 0; p < panels; ++p) {
      const std::size_t n0 = static_cast<std::size_t>(p) * kPanelRows;
      const std::size_t nt = std::min(kPanelRows, n_dim - n0);
      for (std::size_t j = 0; j < nt; ++j) {
        dequant_row(n0 + j, std::span<std::int8_t>(&panel[j * k], k));
      }
      for (std::size_t m = 0; m < m_dim; ++m) {
        const std::int8_t* xr = x.q.Row(m).data();
        for (std::size_t j = 0; j < nt; ++j) {
          const std::int32_t acc = DotI8Unrolled(xr, &panel[j * k], k);
          y.At(m, n0 + j) = static_cast<float>(acc) * x.token_scale[m] *
                            channel_scale[n0 + j];
        }
      }
    }
  }
  return y;
}

MatrixF PortableFp32(const MatrixF& x, const MatrixF& w) {
  MatrixF y(x.rows(), w.rows());
  const std::size_t n_dim = w.rows();
  const std::ptrdiff_t panels =
      static_cast<std::ptrdiff_t>((n_dim + kPanelRows - 1) / kPanelRows);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t p = 0; p < panels; ++p) {
    const std::size_t n0 = static_cast<std::size_t>(p) * kPanelRows;
    const std::size_t nt = std::min(kPanelRows, n_dim - n0);
    for (std::size_t m = 0; m < x.rows(); ++m) {
      const float* xr = x.Row(m).data();
      for (std::size_t j = 0; j < nt; ++j) {
        y.At(m, n0 + j) = DotF32Unrolled(xr, w.Row(n0 + j).data(), x.cols());
      }
    }
  }
  return y;
}

MatrixF PortableFp16(const MatrixF& x, const MatrixF& w) {
  const MatrixF xh = RoundMatrixToHalf(x);
  const MatrixF wh = RoundMatrixToHalf(w);
  return PortableFp32(xh, wh);
}

MatrixF PortableW8A8(const QuantizedActivations& x, const W8A8Weights& w) {
  const std::size_t m_dim = x.q.rows();
  const std::size_t n_dim = w.q.rows();
  const std::size_t k = x.q.cols();
  MatrixF y(m_dim, n_dim);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t m = 0; m < static_cast<std::ptrdiff_t>(m_dim); ++m) {
    const std::size_t mu = static_cast<std::size_t>(m);
    const std::int8_t* xr = x.q.Row(mu).data();
    for (std::size_t n = 0; n < n_dim; ++n) {
      const std::int32_t acc = DotI8Unrolled(xr, w.q.Row(n).data(), k);
      y.At(mu, n) = static_cast<float>(acc) * x.token_scale[mu] *
                    w.channel_scale[n];
    }
  }
  return y;
}

MatrixF PortableW4A16(const MatrixF& x, const W4A16Weights& w) {
  const MatrixF xh = RoundMatrixToHalf(x);
  const std::size_t m_dim = x.rows();
  MatrixF y(m_dim, w.n);
#pragma omp parallel
  {
    std::vector<float> wrow(w.k);
#pragma omp for schedule(static)
    for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(w.n); ++n) {
      const std::size_t nu = static_cast<std::size_t>(n);
      for (std::size_t k = 0; k < w.k; ++k) {
        wrow[k] = QuantizeToHalf(w.Dequant(nu, k));
      }
      for (std::size_t m = 0; m < m_dim; ++m) {
        y.At(m, nu) = DotF32Unrolled(xh.Row(m).data(), wrow.data(), w.k);
      }
    }
  }
  return y;
}

MatrixF PortableW4A8Lqq(const QuantizedActivations& x, const LqqWeights& w) {
  return PanelGemmI8(x, w.n(), w.k(), w.channel_scale(),
                     [&w](std::size_t nu, std::span<std::int8_t> out) {
                       LqqDequantRow(w, nu, out);
                     });
}

MatrixF PortableW4A8Qserve(const QuantizedActivations& x,
                           const QserveWeights& w) {
  return PanelGemmI8(x, w.n, w.k, w.channel_scale,
                     [&w](std::size_t nu, std::span<std::int8_t> out) {
                       QserveDequantRow(w, nu, out);
                     });
}

MatrixF PortableW4A8DualMma(const QuantizedActivations& x,
                            const DualMmaPackedWeights& w) {
  // Consume the supertile layout by inverting it to the natural-order UINT4
  // matrix, then dequantize rows with the per-group scalar LUT — a second,
  // structurally different witness that the reordered layout holds the same
  // weights (the reference provider walks the provenance map instead).
  const std::vector<std::uint8_t> u4 = UnpackDualMmaToU4(w);
  return PanelGemmI8(
      x, w.n, w.k, w.channel_scale,
      [&w, &u4](std::size_t nu, std::span<std::int8_t> out) {
        const std::uint8_t* row = &u4[nu * w.k];
        for (std::size_t g = 0; g < w.k / w.group_size; ++g) {
          const LqqGroupParams& p = w.Params(nu, g);
          std::int8_t lut[16];
          for (int q = 0; q < 16; ++q) {
            lut[q] = LqqDequantElement(static_cast<std::uint8_t>(q), p.scale,
                                       p.offset);
          }
          for (std::size_t j = 0; j < w.group_size; ++j) {
            const std::size_t col = g * w.group_size + j;
            out[col] = lut[row[col]];
          }
        }
      });
}

}  // namespace

MatrixF RoundMatrixToHalf(const MatrixF& m) {
  MatrixF out(m.rows(), m.cols());
  const auto src = m.Flat();
  const auto dst = out.Flat();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = QuantizeToHalf(src[i]);
  return out;
}

const GemmKernelTable& PortableKernels() {
  static const GemmKernelTable table{
      PortableFp32,   PortableFp16,       PortableW8A8,      PortableW4A16,
      PortableW4A8Lqq, PortableW4A8Qserve, PortableW4A8DualMma};
  return table;
}

}  // namespace liquid::detail
