// Reference GEMM provider: the original scalar kernels, kept as the
// numerical oracle every other provider is tested against.
//
// Two hot-loop fixes relative to the seed code, both behavior-preserving:
//   * the per-output-channel `std::vector<int8_t> wrow(k)` scratch in the
//     W4A8 kernels is hoisted to one allocation per OpenMP thread (the seed
//     allocated and freed it N times per GEMM, inside the parallel loop);
//   * shape checks moved to the dispatch layer (gemm.cpp), where they throw
//     in every build type instead of assert-ing only in Debug.

#include <cstdint>
#include <vector>

#include "core/dequant/dequant.hpp"
#include "core/gemm/kernels.hpp"

namespace liquid::detail {
namespace {

/// INT8 dot product with INT32 accumulation (tensor-core IMMA semantics).
std::int32_t DotI8(const std::int8_t* a, const std::int8_t* b, std::size_t k) {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < k; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

MatrixF RefFp32(const MatrixF& x, const MatrixF& w) {
  MatrixF y(x.rows(), w.rows());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t m = 0; m < static_cast<std::ptrdiff_t>(x.rows()); ++m) {
    const auto xr = x.Row(static_cast<std::size_t>(m));
    for (std::size_t n = 0; n < w.rows(); ++n) {
      const auto wr = w.Row(n);
      float acc = 0.0f;
      for (std::size_t k = 0; k < xr.size(); ++k) acc += xr[k] * wr[k];
      y.At(static_cast<std::size_t>(m), n) = acc;
    }
  }
  return y;
}

MatrixF RefFp16(const MatrixF& x, const MatrixF& w) {
  MatrixF y(x.rows(), w.rows());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t m = 0; m < static_cast<std::ptrdiff_t>(x.rows()); ++m) {
    const auto xr = x.Row(static_cast<std::size_t>(m));
    for (std::size_t n = 0; n < w.rows(); ++n) {
      const auto wr = w.Row(n);
      float acc = 0.0f;  // tensor cores accumulate FP16 products in FP32
      for (std::size_t k = 0; k < xr.size(); ++k) {
        acc += QuantizeToHalf(xr[k]) * QuantizeToHalf(wr[k]);
      }
      y.At(static_cast<std::size_t>(m), n) = acc;
    }
  }
  return y;
}

MatrixF RefW8A8(const QuantizedActivations& x, const W8A8Weights& w) {
  MatrixF y(x.q.rows(), w.q.rows());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t m = 0; m < static_cast<std::ptrdiff_t>(x.q.rows()); ++m) {
    const std::size_t mu = static_cast<std::size_t>(m);
    for (std::size_t n = 0; n < w.q.rows(); ++n) {
      const std::int32_t acc =
          DotI8(x.q.Row(mu).data(), w.q.Row(n).data(), x.q.cols());
      y.At(mu, n) = static_cast<float>(acc) * x.token_scale[mu] *
                    w.channel_scale[n];
    }
  }
  return y;
}

MatrixF RefW4A16(const MatrixF& x, const W4A16Weights& w) {
  MatrixF y(x.rows(), w.n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t m = 0; m < static_cast<std::ptrdiff_t>(x.rows()); ++m) {
    const std::size_t mu = static_cast<std::size_t>(m);
    const auto xr = x.Row(mu);
    for (std::size_t n = 0; n < w.n; ++n) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < w.k; ++k) {
        acc += QuantizeToHalf(xr[k]) * QuantizeToHalf(w.Dequant(n, k));
      }
      y.At(mu, n) = acc;
    }
  }
  return y;
}

MatrixF RefW4A8Lqq(const QuantizedActivations& x, const LqqWeights& w) {
  MatrixF y(x.q.rows(), w.n());
#pragma omp parallel
  {
    // Per-thread scratch, hoisted out of the channel loop.
    std::vector<std::int8_t> wrow(w.k());
#pragma omp for schedule(static)
    for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(w.n()); ++n) {
      const std::size_t nu = static_cast<std::size_t>(n);
      // Main loop, weight-stationary per output channel: SWAR dequant of the
      // packed row, then INT8 MMA against every token.
      LqqDequantRow(w, nu, wrow);
      for (std::size_t m = 0; m < x.q.rows(); ++m) {
        const std::int32_t acc = DotI8(x.q.Row(m).data(), wrow.data(), w.k());
        // Epilogue: first-level dequantization (token scale x channel scale).
        y.At(m, nu) = static_cast<float>(acc) * x.token_scale[m] *
                      w.channel_scale()[nu];
      }
    }
  }
  return y;
}

MatrixF RefW4A8Qserve(const QuantizedActivations& x, const QserveWeights& w) {
  MatrixF y(x.q.rows(), w.n);
#pragma omp parallel
  {
    std::vector<std::int8_t> wrow(w.k);
#pragma omp for schedule(static)
    for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(w.n); ++n) {
      const std::size_t nu = static_cast<std::size_t>(n);
      QserveDequantRow(w, nu, wrow);
      for (std::size_t m = 0; m < x.q.rows(); ++m) {
        const std::int32_t acc = DotI8(x.q.Row(m).data(), wrow.data(), w.k);
        y.At(m, nu) = static_cast<float>(acc) * x.token_scale[m] *
                      w.channel_scale[nu];
      }
    }
  }
  return y;
}

MatrixF RefW4A8DualMma(const QuantizedActivations& x,
                       const DualMmaPackedWeights& w) {
  const std::size_t m_dim = x.q.rows();
  MatrixF y(m_dim, w.n);
  const auto provenance = BuildDualMmaProvenance();

  // Per-tile INT32 accumulators, exactly like a thread block's RF fragment.
#pragma omp parallel
  {
    std::vector<std::int32_t> acc(m_dim * kSupertileRows);
#pragma omp for schedule(static)
    for (std::ptrdiff_t tn = 0; tn < static_cast<std::ptrdiff_t>(w.TilesN());
         ++tn) {
      const std::size_t tnu = static_cast<std::size_t>(tn);
      acc.assign(m_dim * kSupertileRows, 0);
      for (std::size_t tk = 0; tk < w.TilesK(); ++tk) {
        const auto tile = w.Tile(tnu, tk);
        const std::size_t col0 = tk * kSupertileCols;
        for (std::size_t r = 0; r < tile.size(); ++r) {
          // Dequantize this register with its group's parameters.  All 8
          // lanes of a register share one row and sit inside one K-group
          // because the group size (64) covers the whole supertile width.
          const FragCoord& first = provenance[r].lane[0];
          const std::size_t row =
              tnu * kSupertileRows + static_cast<std::size_t>(first.row);
          const std::size_t group =
              (col0 + static_cast<std::size_t>(first.col)) / w.group_size;
          const LqqGroupParams& p = w.Params(row, group);
          const Dequanted8 d = LqqDequant8(tile[r], p.scale, p.offset);
          std::int8_t vals[8];
          StoreDequanted8(d, vals);
          for (int lane = 0; lane < 8; ++lane) {
            const FragCoord& c =
                provenance[r].lane[static_cast<std::size_t>(lane)];
            const std::size_t col = col0 + static_cast<std::size_t>(c.col);
            for (std::size_t m = 0; m < m_dim; ++m) {
              acc[m * kSupertileRows + static_cast<std::size_t>(c.row)] +=
                  static_cast<std::int32_t>(x.q.At(m, col)) *
                  static_cast<std::int32_t>(vals[lane]);
            }
          }
        }
      }
      for (std::size_t m = 0; m < m_dim; ++m) {
        for (std::size_t rr = 0; rr < kSupertileRows; ++rr) {
          const std::size_t nu = tnu * kSupertileRows + rr;
          y.At(m, nu) = static_cast<float>(acc[m * kSupertileRows + rr]) *
                        x.token_scale[m] * w.channel_scale[nu];
        }
      }
    }
  }
  return y;
}

}  // namespace

const GemmKernelTable& ReferenceKernels() {
  static const GemmKernelTable table{RefFp32,     RefFp16,      RefW8A8,
                                     RefW4A16,    RefW4A8Lqq,   RefW4A8Qserve,
                                     RefW4A8DualMma};
  return table;
}

}  // namespace liquid::detail
