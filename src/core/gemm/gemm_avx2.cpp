// AVX2/FMA GEMM provider.
//
// Compiled with -mavx2 -mfma (x86 only; see LIQUID_ENABLE_AVX2 in
// CMakeLists.txt) and selected at runtime only when CPUID reports AVX2+FMA,
// so the library itself stays runnable on any x86-64.
//
// Techniques:
//   * INT8 dot (W8A8, and QServe / Dual-MMA after dequant): sign-extend both
//     operands to int16 and _mm256_madd_epi16 — the TitanInfer idiom that
//     dodges _mm256_maddubs_epi16, whose u8*s8 pair sums saturate at int16
//     for full-range bytes.  INT32 accumulation is associative, so results
//     are bit-identical to the scalar reference.
//   * QServe / Dual-MMA W4A8 dequant: the second-level dequant is a pure
//     function of the 4-bit code given the group parameters, so each group
//     becomes a 16-byte lookup table applied to 8 packed registers (64
//     codes) at a time with _mm256_shuffle_epi8, filling an INT8 panel.
//   * LiquidGEMM W4A8, dequant-free: under the Section 4 bound, which every
//     LqqWeights holds by construction, Eq. 12 is the affine map
//     q*s + (a - 128), so INT8 weights are never built.  The
//     4-bit codes go straight into _mm256_maddubs_epi16 (codes <= 15 keep
//     its pair sums far below saturation), one _mm256_madd_epi16 by the
//     group scale widens to int32, and (a - 128) multiplies per-group
//     activation sums computed once per call.  Tiles of 4 tokens x 2 weight
//     rows; bit-identical to the reference.
//   * Float paths: FMA with hoisted binary16 rounding (tolerance-tested;
//     accumulation order differs from the reference).

#if defined(LIQUID_HAS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dequant/dequant.hpp"
#include "core/gemm/kernels.hpp"

namespace liquid::detail {
namespace {

constexpr std::size_t kPanelRows = 16;

inline std::int32_t HorizontalSum(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

std::int32_t DotI8Avx2(const std::int8_t* a, const std::int8_t* b,
                       std::size_t k) {
  // Two independent accumulator chains so the add latency doesn't serialize
  // the madd throughput.
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 32 <= k; i += 32) {
    const __m256i a_lo = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i b_lo = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    const __m256i a_hi = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i + 16)));
    const __m256i b_hi = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i + 16)));
    acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(a_lo, b_lo));
    acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(a_hi, b_hi));
  }
  std::int32_t sum = HorizontalSum(_mm256_add_epi32(acc0, acc1));
  for (; i < k; ++i) {
    sum += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return sum;
}

/// 4-row register-blocked variant: widens each activation chunk once and
/// streams it against four weight rows, quartering the cvtepi8 traffic on the
/// activation side and giving the madd chains independent accumulators.
void DotI8Avx2x4(const std::int8_t* a, const std::int8_t* const b[4],
                 std::size_t k, std::int32_t out[4]) {
  __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                    _mm256_setzero_si256(), _mm256_setzero_si256()};
  std::size_t i = 0;
  for (; i + 16 <= k; i += 16) {
    const __m256i a16 = _mm256_cvtepi8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    for (int j = 0; j < 4; ++j) {
      const __m256i b16 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b[j] + i)));
      acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(a16, b16));
    }
  }
  for (int j = 0; j < 4; ++j) out[j] = HorizontalSum(acc[j]);
  for (; i < k; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[j] += static_cast<std::int32_t>(a[i]) *
                static_cast<std::int32_t>(b[j][i]);
    }
  }
}

float DotF32Fma(const float* a, const float* b, std::size_t k) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= k; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= k; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  const __m256 acc = _mm256_add_ps(acc0, acc1);
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  float sum = _mm_cvtss_f32(s);
  for (; i < k; ++i) sum += a[i] * b[i];
  return sum;
}

/// Builds the 16-entry code→INT8 QServe dequant table for one group in four
/// SIMD ops: lut[q] = (q * scale + add) mod 256.  QServe's q*s - s*z wraps
/// in int8 exactly as the mod-256 of (q*s + (256 - s*z)).
inline __m128i BuildDequantLut(int scale, int add) {
  const __m128i q_lo = _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7);
  const __m128i q_hi = _mm_setr_epi16(8, 9, 10, 11, 12, 13, 14, 15);
  const __m128i s = _mm_set1_epi16(static_cast<short>(scale));
  const __m128i a = _mm_set1_epi16(static_cast<short>(add));
  const __m128i byte_mask = _mm_set1_epi16(0x00FF);
  const __m128i lo =
      _mm_and_si128(_mm_add_epi16(_mm_mullo_epi16(q_lo, s), a), byte_mask);
  const __m128i hi =
      _mm_and_si128(_mm_add_epi16(_mm_mullo_epi16(q_hi, s), a), byte_mask);
  return _mm_packus_epi16(lo, hi);
}

/// Fused LUT dequant of one packed row: `group_lut(g)` returns the 16-byte
/// code→INT8 table for group g; registers are consumed 8 at a time (64
/// elements per shuffle round-trip), with a scalar tail for ragged groups.
template <typename GroupLutFn>
void LutDequantPackedRow(const std::uint32_t* regs, std::size_t num_regs,
                         std::size_t regs_per_group, GroupLutFn&& group_lut,
                         std::int8_t* out) {
  const __m256i nib_mask = _mm256_set1_epi8(0x0F);
  std::size_t r = 0;
  for (std::size_t g = 0; r < num_regs; ++g) {
    alignas(16) std::int8_t lut[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(lut), group_lut(g));
    const __m256i lutv = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(lut)));
    std::size_t rem = std::min(regs_per_group, num_regs - r);
    while (rem >= 8) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(regs + r));
      // Nibble split matches UnpackU4x8: low nibbles are lanes w0..w3 of each
      // register, high nibbles are w4..w7.
      const __m256i lo = _mm256_and_si256(v, nib_mask);
      const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), nib_mask);
      const __m256i dlo = _mm256_shuffle_epi8(lutv, lo);
      const __m256i dhi = _mm256_shuffle_epi8(lutv, hi);
      // Interleave per-register dwords back to natural k-order:
      // out[8r..8r+3] = low lanes, out[8r+4..8r+7] = high lanes.
      const __m256i u0 = _mm256_unpacklo_epi32(dlo, dhi);
      const __m256i u1 = _mm256_unpackhi_epi32(dlo, dhi);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r * 8),
                          _mm256_permute2x128_si256(u0, u1, 0x20));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r * 8 + 32),
                          _mm256_permute2x128_si256(u0, u1, 0x31));
      r += 8;
      rem -= 8;
    }
    for (; rem > 0; --rem, ++r) {
      const std::uint32_t reg = regs[r];
      for (int b = 0; b < 4; ++b) {
        const std::uint8_t byte =
            static_cast<std::uint8_t>((reg >> (8 * b)) & 0xFFu);
        out[r * 8 + b] = lut[byte & 0x0Fu];
        out[r * 8 + 4 + b] = lut[byte >> 4];
      }
    }
  }
}

/// Panel skeleton shared by the INT8 paths (see gemm_portable.cpp): dequant a
/// panel of weight rows once, then stream activation rows across it.
template <typename DequantRowFn>
MatrixF PanelGemmI8Avx2(const QuantizedActivations& x, std::size_t n_dim,
                        std::size_t k, const std::vector<float>& channel_scale,
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
        dequant_row(n0 + j, &panel[j * k]);
      }
      for (std::size_t m = 0; m < m_dim; ++m) {
        const std::int8_t* xr = x.q.Row(m).data();
        std::size_t j = 0;
        for (; j + 4 <= nt; j += 4) {
          const std::int8_t* rows[4] = {&panel[j * k], &panel[(j + 1) * k],
                                        &panel[(j + 2) * k],
                                        &panel[(j + 3) * k]};
          std::int32_t acc[4];
          DotI8Avx2x4(xr, rows, k, acc);
          for (int jj = 0; jj < 4; ++jj) {
            y.At(m, n0 + j + static_cast<std::size_t>(jj)) =
                static_cast<float>(acc[jj]) * x.token_scale[m] *
                channel_scale[n0 + j + static_cast<std::size_t>(jj)];
          }
        }
        for (; j < nt; ++j) {
          const std::int32_t acc = DotI8Avx2(xr, &panel[j * k], k);
          y.At(m, n0 + j) = static_cast<float>(acc) * x.token_scale[m] *
                            channel_scale[n0 + j];
        }
      }
    }
  }
  return y;
}

MatrixF Avx2Fp32(const MatrixF& x, const MatrixF& w) {
  MatrixF y(x.rows(), w.rows());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(w.rows()); ++n) {
    const std::size_t nu = static_cast<std::size_t>(n);
    const float* wr = w.Row(nu).data();
    for (std::size_t m = 0; m < x.rows(); ++m) {
      y.At(m, nu) = DotF32Fma(x.Row(m).data(), wr, x.cols());
    }
  }
  return y;
}

MatrixF Avx2Fp16(const MatrixF& x, const MatrixF& w) {
  const MatrixF xh = RoundMatrixToHalf(x);
  const MatrixF wh = RoundMatrixToHalf(w);
  return Avx2Fp32(xh, wh);
}

MatrixF Avx2W8A8(const QuantizedActivations& x, const W8A8Weights& w) {
  const std::size_t m_dim = x.q.rows();
  const std::size_t n_dim = w.q.rows();
  const std::size_t k = x.q.cols();
  MatrixF y(m_dim, n_dim);
  const std::ptrdiff_t blocks = static_cast<std::ptrdiff_t>(n_dim / 4);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t blk = 0; blk < blocks; ++blk) {
    const std::size_t n0 = static_cast<std::size_t>(blk) * 4;
    const std::int8_t* rows[4] = {w.q.Row(n0).data(), w.q.Row(n0 + 1).data(),
                                  w.q.Row(n0 + 2).data(),
                                  w.q.Row(n0 + 3).data()};
    for (std::size_t m = 0; m < m_dim; ++m) {
      std::int32_t acc[4];
      DotI8Avx2x4(x.q.Row(m).data(), rows, k, acc);
      for (int j = 0; j < 4; ++j) {
        y.At(m, n0 + static_cast<std::size_t>(j)) =
            static_cast<float>(acc[j]) * x.token_scale[m] *
            w.channel_scale[n0 + static_cast<std::size_t>(j)];
      }
    }
  }
  for (std::size_t nu = static_cast<std::size_t>(blocks) * 4; nu < n_dim;
       ++nu) {
    const std::int8_t* wr = w.q.Row(nu).data();
    for (std::size_t m = 0; m < m_dim; ++m) {
      const std::int32_t acc = DotI8Avx2(x.q.Row(m).data(), wr, k);
      y.At(m, nu) = static_cast<float>(acc) * x.token_scale[m] *
                    w.channel_scale[nu];
    }
  }
  return y;
}

MatrixF Avx2W4A16(const MatrixF& x, const W4A16Weights& w) {
  const MatrixF xh = RoundMatrixToHalf(x);
  const std::size_t m_dim = x.rows();
  MatrixF y(m_dim, w.n);
#pragma omp parallel
  {
    std::vector<float> wrow(w.k);
#pragma omp for schedule(static)
    for (std::ptrdiff_t n = 0; n < static_cast<std::ptrdiff_t>(w.n); ++n) {
      const std::size_t nu = static_cast<std::size_t>(n);
      for (std::size_t kk = 0; kk < w.k; ++kk) {
        wrow[kk] = QuantizeToHalf(w.Dequant(nu, kk));
      }
      for (std::size_t m = 0; m < m_dim; ++m) {
        y.At(m, nu) = DotF32Fma(xh.Row(m).data(), wrow.data(), w.k);
      }
    }
  }
  return y;
}

// --- LiquidGEMM main loop ---------------------------------------------------
//
// Under the Section 4 bound every stored code has q*s + a <= 255 (validated
// by GemmW4A8Liquid), so Eq. 12's (q*s + a) XOR 0x80 is exactly the integer
// q*s + (a - 128), and
//   sum_k x_k*w_k = sum_g [ s_g * sum_{k in g} x_k*q_k
//                           + (a_g - 128) * sum_{k in g} x_k ].
// The kernel computes the right-hand side directly from the packed codes.

/// Register tile: kLqqMr tokens x kLqqNr weight rows of INT32 accumulators
/// (8 accumulators + 4 code registers fit the 16 ymm registers).
constexpr std::size_t kLqqMr = 4;
constexpr std::size_t kLqqNr = 2;
/// Weight rows per OpenMP work item; the panel's parameter tables are
/// expanded once and reused by every token tile.
constexpr std::size_t kLqqPanelRows = 32;
/// One 256-bit load: 8 packed registers, 64 codes.
constexpr std::size_t kChunkRegs = 8;
constexpr std::size_t kChunkCodes = 64;
/// At most 256 int8 activations per int16 sum: 256 * -128 = -32768.
constexpr std::size_t kMaxSumSpanRegs = 32;
/// The offset pass consumes 16 int16 sums per madd.
constexpr std::size_t kSumsPerVector = 16;

constexpr std::size_t RoundUp(std::size_t v, std::size_t m) {
  return (v + m - 1) / m * m;
}

/// Codes per activation sum: the largest whole-register divisor of the group
/// holding at most 256 codes, so each sum fits int16 and lies in one group.
std::size_t SumSpanCodes(std::size_t group_size) {
  const std::size_t regs = group_size / 8;
  std::size_t span = std::min(regs, kMaxSumSpanRegs);
  while (regs % span != 0) --span;
  return span * 8;
}

/// Reorders one token's activations into the codes' nibble order and sums
/// them per span.  Each 64-code chunk becomes the 4 activations of every
/// register that meet low nibbles (its even dwords), then the 4 that meet
/// high nibbles (its odd dwords).  A K tail is zero-padded to a whole chunk.
void PrepareLqqToken(const std::int8_t* x, std::size_t k, std::size_t span,
                     std::int8_t* out, std::int16_t* sums) {
  const __m256i even_odd = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  std::int8_t tail[kChunkCodes] = {};
  for (std::size_t c = 0; c < k; c += kChunkCodes) {
    const std::int8_t* src = x + c;
    if (k - c < kChunkCodes) {
      std::copy(src, x + k, tail);
      src = tail;
    }
    const __m256i a = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)), even_odd);
    const __m256i b = _mm256_permutevar8x32_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 32)),
        even_odd);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c),
                        _mm256_permute2x128_si256(a, b, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c + 32),
                        _mm256_permute2x128_si256(a, b, 0x31));
  }
  for (std::size_t s = 0; s < k / span; ++s) {
    std::int32_t sum = 0;
    for (std::size_t i = 0; i < span; ++i) sum += x[s * span + i];
    sums[s] = static_cast<std::int16_t>(sum);
  }
}

/// Expands one weight row's group parameters into the tables the tile reads:
/// the scale in both int16 halves of an int32 (the madd multiplier), once
/// per chunk or per register, and a - 128 once per activation-sum span.
/// Entries past the row's last group stay zero.
void ExpandLqqRow(const LqqGroupParams* params, std::size_t groups,
                  std::size_t scales_per_group, std::size_t spans_per_group,
                  std::int32_t* scale, std::int16_t* offset) {
  if (scales_per_group == 1 && spans_per_group == 1) {
    // G = 64, the paper default: one entry of each per group.  The general
    // loop below runs ~20x slower here (fill_n of one entry per group),
    // about 1 ms per 4096-row call.
    for (std::size_t g = 0; g < groups; ++g) {
      scale[g] = params[g].scale * 0x10001;
      offset[g] = static_cast<std::int16_t>(params[g].offset - 128);
    }
    return;
  }
  for (std::size_t g = 0; g < groups; ++g) {
    std::fill_n(scale + g * scales_per_group, scales_per_group,
                params[g].scale * 0x10001);
    std::fill_n(offset + g * spans_per_group, spans_per_group,
                static_cast<std::int16_t>(params[g].offset - 128));
  }
}

/// Operands of one panel: reordered activations and their sums (per token),
/// packed codes and expanded parameter tables (per panel row).
struct LqqPanel {
  const std::int8_t* x;        ///< [M][x_stride], nibble order
  const std::int16_t* sums;    ///< [M][sum_stride]
  const std::uint32_t* regs;   ///< [rows][k_regs], the panel's packed codes
  const std::int32_t* scale;   ///< [rows][scale_stride]
  const std::int16_t* offset;  ///< [rows][sum_stride]
  std::size_t k_regs;
  std::size_t x_stride;
  std::size_t sum_stride;
  std::size_t scale_stride;
};

/// Output tile of MR tokens x NR weight rows, from token m0 and row n0 + j0
/// (panel row j0).  With kChunkScale every 64-code chunk lies in one group
/// and its scale is broadcast; otherwise each register's lane gets its own.
/// The broadcast keeps a panel's scale table 8x smaller (8 KiB instead of
/// 64 KiB at K = 4096), so it stays in L1.
template <std::size_t MR, std::size_t NR, bool kChunkScale>
void LqqTile(const LqqPanel& p, const QuantizedActivations& x,
             const LqqWeights& w, std::size_t m0, std::size_t n0,
             std::size_t j0, MatrixF& y) {
  const __m256i nib_mask = _mm256_set1_epi8(0x0F);
  const std::uint32_t* rows[NR];
  const std::int32_t* scales[NR];
  for (std::size_t j = 0; j < NR; ++j) {
    rows[j] = p.regs + (j0 + j) * p.k_regs;
    scales[j] = p.scale + (j0 + j) * p.scale_stride;
  }
  __m256i acc[MR][NR];
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) acc[i][j] = _mm256_setzero_si256();
  }
  // Codes x activations: maddubs pair sums are <= 2*15*128 = 3840 and the
  // low + high sum <= 7680, so int16 never saturates; one madd by the scale
  // then widens to int32 (Eq. 12's multiply).
  const auto accumulate = [&](std::size_t c, const __m256i (&v)[NR]) {
    __m256i lo[NR];
    __m256i hi[NR];
    __m256i scale[NR];
    for (std::size_t j = 0; j < NR; ++j) {
      lo[j] = _mm256_and_si256(v[j], nib_mask);
      hi[j] = _mm256_and_si256(_mm256_srli_epi32(v[j], 4), nib_mask);
      if constexpr (kChunkScale) {
        scale[j] = _mm256_set1_epi32(scales[j][c]);
      } else {
        scale[j] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(scales[j] + c * kChunkRegs));
      }
    }
    for (std::size_t i = 0; i < MR; ++i) {
      const std::int8_t* xc = p.x + (m0 + i) * p.x_stride + c * kChunkCodes;
      const __m256i xl =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xc));
      const __m256i xh =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xc + 32));
      for (std::size_t j = 0; j < NR; ++j) {
        const __m256i dot = _mm256_add_epi16(_mm256_maddubs_epi16(lo[j], xl),
                                             _mm256_maddubs_epi16(hi[j], xh));
        acc[i][j] =
            _mm256_add_epi32(acc[i][j], _mm256_madd_epi16(dot, scale[j]));
      }
    }
  };
  const std::size_t full = p.k_regs / kChunkRegs;
  // The next panel's codes are still in L3 or DRAM: fetch them into L2
  // while this panel computes, since the hardware prefetcher restarts at
  // every 4 KiB page.  A row with no counterpart in a next panel prefetches
  // its own codes instead, so no address leaves the packed array.
  std::size_t ahead[NR];
  for (std::size_t j = 0; j < NR; ++j) {
    ahead[j] = n0 + j0 + j + kLqqPanelRows < w.n() ? kLqqPanelRows * p.k_regs
                                                   : 0;
  }
  for (std::size_t c = 0; c < full; ++c) {
    __m256i v[NR];
    for (std::size_t j = 0; j < NR; ++j) {
      const std::uint32_t* src = rows[j] + c * kChunkRegs;
      _mm_prefetch(reinterpret_cast<const char*>(src + ahead[j]),
                   _MM_HINT_T1);
      v[j] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
    }
    accumulate(c, v);
  }
  if (const std::size_t tail = p.k_regs % kChunkRegs; tail != 0) {
    // K tail: masked-off registers load as zero codes, so neither the
    // memory past the row nor the zero-padded activations contribute.
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(tail)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    __m256i v[NR];
    for (std::size_t j = 0; j < NR; ++j) {
      v[j] = _mm256_maskload_epi32(
          reinterpret_cast<const int*>(rows[j] + full * kChunkRegs), mask);
    }
    accumulate(full, v);
  }
  // Offset term: (a - 128) x activation sum, 16 spans per madd.
  for (std::size_t s = 0; s < p.sum_stride; s += kSumsPerVector) {
    for (std::size_t j = 0; j < NR; ++j) {
      const __m256i off = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          p.offset + (j0 + j) * p.sum_stride + s));
      for (std::size_t i = 0; i < MR; ++i) {
        const __m256i sums =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                p.sums + (m0 + i) * p.sum_stride + s));
        acc[i][j] = _mm256_add_epi32(acc[i][j], _mm256_madd_epi16(off, sums));
      }
    }
  }
  // Epilogue in the reference's expression order.
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) {
      const std::size_t nu = n0 + j0 + j;
      y.At(m0 + i, nu) = static_cast<float>(HorizontalSum(acc[i][j])) *
                         x.token_scale[m0 + i] * w.channel_scale()[nu];
    }
  }
}

/// The tiles of MR tokens across one panel's rows, NR at a time.
template <std::size_t MR, bool kChunkScale>
void LqqTokenTiles(const LqqPanel& p, const QuantizedActivations& x,
                   const LqqWeights& w, std::size_t m0, std::size_t n0,
                   std::size_t rows, MatrixF& y) {
  std::size_t j = 0;
  for (; j + kLqqNr <= rows; j += kLqqNr) {
    LqqTile<MR, kLqqNr, kChunkScale>(p, x, w, m0, n0, j, y);
  }
  if (j < rows) LqqTile<MR, 1, kChunkScale>(p, x, w, m0, n0, j, y);
}

/// Every tile of one panel (rows n0 .. n0 + rows): kLqqMr tokens at a time,
/// then the remaining tokens one by one.
template <bool kChunkScale>
void LqqPanelToOutput(const LqqPanel& p, const QuantizedActivations& x,
                      const LqqWeights& w, std::size_t n0, std::size_t rows,
                      MatrixF& y) {
  const std::size_t m_dim = x.q.rows();
  std::size_t m0 = 0;
  for (; m0 + kLqqMr <= m_dim; m0 += kLqqMr) {
    LqqTokenTiles<kLqqMr, kChunkScale>(p, x, w, m0, n0, rows, y);
  }
  for (; m0 < m_dim; ++m0) {
    LqqTokenTiles<1, kChunkScale>(p, x, w, m0, n0, rows, y);
  }
}

MatrixF Avx2W4A8Lqq(const QuantizedActivations& x, const LqqWeights& w) {
  const std::size_t m_dim = x.q.rows();
  const std::size_t k = w.k();
  const std::size_t span = SumSpanCodes(w.group_size());
  const bool chunk_scale = w.group_size() % kChunkCodes == 0;
  const std::size_t scales_per_group =
      chunk_scale ? w.group_size() / kChunkCodes : w.group_size() / 8;
  const std::size_t x_stride = RoundUp(k, kChunkCodes);
  const std::size_t sum_stride = RoundUp(k / span, kSumsPerVector);
  const std::size_t scale_stride =
      chunk_scale ? x_stride / kChunkCodes : x_stride / 8;
  std::vector<std::int8_t> xs(m_dim * x_stride);
  std::vector<std::int16_t> sums(m_dim * sum_stride);
  MatrixF y(m_dim, w.n());
  const std::ptrdiff_t panels = static_cast<std::ptrdiff_t>(
      (w.n() + kLqqPanelRows - 1) / kLqqPanelRows);
#pragma omp parallel
  {
#pragma omp for schedule(static)
    for (std::ptrdiff_t m = 0; m < static_cast<std::ptrdiff_t>(m_dim); ++m) {
      const std::size_t mu = static_cast<std::size_t>(m);
      PrepareLqqToken(x.q.Row(mu).data(), k, span, &xs[mu * x_stride],
                      &sums[mu * sum_stride]);
    }
    std::vector<std::int32_t> scale(kLqqPanelRows * scale_stride);
    std::vector<std::int16_t> offset(kLqqPanelRows * sum_stride);
    LqqPanel p{.x = xs.data(),
               .sums = sums.data(),
               .regs = nullptr,
               .scale = scale.data(),
               .offset = offset.data(),
               .k_regs = w.RegistersPerRow(),
               .x_stride = x_stride,
               .sum_stride = sum_stride,
               .scale_stride = scale_stride};
#pragma omp for schedule(static)
    for (std::ptrdiff_t pi = 0; pi < panels; ++pi) {
      const std::size_t n0 = static_cast<std::size_t>(pi) * kLqqPanelRows;
      const std::size_t rows = std::min(kLqqPanelRows, w.n() - n0);
      for (std::size_t j = 0; j < rows; ++j) {
        ExpandLqqRow(&w.group_params()[(n0 + j) * w.GroupsPerRow()],
                     w.GroupsPerRow(), scales_per_group, w.group_size() / span,
                     &scale[j * scale_stride], &offset[j * sum_stride]);
      }
      p.regs = w.packed().data() + n0 * w.RegistersPerRow();
      if (chunk_scale) {
        LqqPanelToOutput<true>(p, x, w, n0, rows, y);
      } else {
        LqqPanelToOutput<false>(p, x, w, n0, rows, y);
      }
    }
  }
  return y;
}

MatrixF Avx2W4A8Qserve(const QuantizedActivations& x, const QserveWeights& w) {
  const std::size_t regs_per_row = w.RegistersPerRow();
  const std::size_t regs_per_group = w.group_size / 8;
  return PanelGemmI8Avx2(
      x, w.n, w.k, w.channel_scale,
      [&](std::size_t nu, std::int8_t* out) {
        LutDequantPackedRow(
            w.packed.data() + nu * regs_per_row, regs_per_row, regs_per_group,
            [&](std::size_t g) {
              const QserveGroupParams& p = w.Params(nu, g);
              return BuildDequantLut(p.scale, 256 - p.zero_scaled);
            },
            out);
      });
}

MatrixF Avx2W4A8DualMma(const QuantizedActivations& x,
                        const DualMmaPackedWeights& w) {
  // Invert the supertile layout to natural-order UINT4 codes, then the
  // per-group LUT applies directly (codes are already unpacked bytes < 16).
  const std::vector<std::uint8_t> u4 = UnpackDualMmaToU4(w);
  return PanelGemmI8Avx2(
      x, w.n, w.k, w.channel_scale,
      [&](std::size_t nu, std::int8_t* out) {
        const std::uint8_t* row = &u4[nu * w.k];
        for (std::size_t g = 0; g < w.k / w.group_size; ++g) {
          const LqqGroupParams& p = w.Params(nu, g);
          alignas(16) std::int8_t lut[16];
          for (int q = 0; q < 16; ++q) {
            lut[q] = LqqDequantElement(static_cast<std::uint8_t>(q), p.scale,
                                       p.offset);
          }
          const __m256i lutv = _mm256_broadcastsi128_si256(
              _mm_load_si128(reinterpret_cast<const __m128i*>(lut)));
          std::size_t col = g * w.group_size;
          const std::size_t end = col + w.group_size;
          for (; col + 32 <= end; col += 32) {
            const __m256i codes = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(row + col));
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + col),
                                _mm256_shuffle_epi8(lutv, codes));
          }
          for (; col < end; ++col) out[col] = lut[row[col]];
        }
      });
}

}  // namespace

const GemmKernelTable& Avx2Kernels() {
  static const GemmKernelTable table{Avx2Fp32,    Avx2Fp16,      Avx2W8A8,
                                     Avx2W4A16,   Avx2W4A8Lqq,   Avx2W4A8Qserve,
                                     Avx2W4A8DualMma};
  return table;
}

}  // namespace liquid::detail

#else  // !LIQUID_HAS_AVX2

#include <stdexcept>

#include "core/gemm/kernels.hpp"

namespace liquid::detail {

// Link-time stub for non-x86 / AVX2-disabled builds; dispatch guards on
// GemmProviderAvailable() so this is unreachable.
const GemmKernelTable& Avx2Kernels() {
  throw std::logic_error("AVX2 GEMM provider is not compiled into this build");
}

}  // namespace liquid::detail

#endif  // LIQUID_HAS_AVX2
