#pragma once
// Functional CPU GEMM kernels for every precision configuration the paper
// evaluates (Sections 2, 3, 7.3): FP16, W8A8, W4A16, W4A8-QServe and
// W4A8-LiquidGEMM.  These verify the *numerics* of the full dataflow —
// quantize → pack → (layout) → dequantize-in-main-loop → INT8 MMA → epilogue —
// end to end; the *performance* of the same dataflow on Hopper is modelled in
// src/simgpu.
//
// All kernels compute Y = X·Wᵀ (X: [M x K], W: [N x K], Y: [M x N]) and
// accumulate in INT32 (integer paths) or FP32 (floating paths), matching
// tensor-core semantics.
//
// Every kernel is provider-dispatched (see core/gemm/provider.hpp): the
// default `GemmProvider::kAuto` resolves to the fastest provider available on
// this machine (AVX2 → portable), overridable via the LIQUID_GEMM_PROVIDER
// environment variable or an explicit provider argument.  Integer-path
// providers produce bit-identical results; float-path providers differ only
// by accumulation order.
//
// Shape preconditions are *validated*, not asserted: mismatched shapes throw
// std::invalid_argument in every build type, including -DNDEBUG Release
// builds where a plain assert would vanish and turn a shape bug into a silent
// out-of-bounds read.

#include <cstdint>
#include <vector>

#include "core/gemm/provider.hpp"
#include "core/layout/dual_mma_layout.hpp"
#include "core/quant/first_level.hpp"
#include "core/quant/liquid_quant.hpp"
#include "core/quant/qserve_quant.hpp"
#include "core/types.hpp"
#include "util/half.hpp"

namespace liquid {

/// FP32 reference: exact (up to FP32 rounding and accumulation order)
/// Y = X·Wᵀ.
MatrixF GemmReference(const MatrixF& x, const MatrixF& w,
                      GemmProvider provider = GemmProvider::kAuto);

/// FP16 baseline: inputs rounded through binary16, FP32 accumulation —
/// TRT-FP16 tensor-core semantics.
MatrixF GemmFp16(const MatrixF& x, const MatrixF& w,
                 GemmProvider provider = GemmProvider::kAuto);

// --- W8A8 (symmetric GEMM, Figure 3a) --------------------------------------

struct W8A8Weights {
  MatrixI8 q;                        ///< [N x K], full [-127,127] range
  std::vector<float> channel_scale;  ///< [N]
  [[nodiscard]] std::size_t StorageBytes() const {
    return q.size() + channel_scale.size() * 4;
  }
};

W8A8Weights QuantizeWeightsW8A8(const MatrixF& weights);

/// INT8 x INT8 -> INT32 main loop; dequantization deferred to the epilogue.
MatrixF GemmW8A8(const QuantizedActivations& x, const W8A8Weights& w,
                 GemmProvider provider = GemmProvider::kAuto);

// --- W4A16 (TRT-style AWQ weight-only quantization) ------------------------

struct W4A16Weights {
  std::size_t n = 0;
  std::size_t k = 0;
  std::size_t group_size = 128;
  std::vector<std::uint8_t> packed;  ///< [n * k/2], two UINT4 per byte
  std::vector<Half> group_scale;     ///< [n * k/group_size]
  std::vector<Half> group_zero;      ///< [n * k/group_size], zero_q * scale
  [[nodiscard]] std::size_t StorageBytes() const {
    return packed.size() + group_scale.size() * 2 + group_zero.size() * 2;
  }
  [[nodiscard]] float Dequant(std::size_t row, std::size_t col) const;
};

/// AWQ-style group quantization.  The zero point is snapped to the
/// quantization grid (zero = round(-lo/scale) * scale), so dequantization is
/// exactly (q - zero_q) * scale.  Throws std::invalid_argument unless
/// group_size >= 1, k % group_size == 0 and k % 2 == 0.
W4A16Weights QuantizeWeightsW4A16(const MatrixF& weights,
                                  std::size_t group_size = 128);

/// FP16 activations x dequantized-FP16 weights, FP32 accumulation: the
/// asymmetric GEMM whose dequant runs on CUDA cores before every MMA.
MatrixF GemmW4A16(const MatrixF& x, const W4A16Weights& w,
                  GemmProvider provider = GemmProvider::kAuto);

// --- W4A8 -------------------------------------------------------------------

/// LiquidGEMM main loop over linearly packed registers: Eq. 12 dequant then
/// INT8 MMA, channel/token scales in the epilogue.  The reference and
/// portable providers dequantize with SWAR; the AVX2 provider never builds
/// INT8 weights and applies Eq. 12 as a per-group scale and offset instead.
///
/// The weight's shape and the Section 4 bound (q*s + a <= 255 for every
/// stored code, which keeps Eq. 12 inside UINT8 and makes it the exact map
/// q*s + a - 128) are invariants of LqqWeights, checked once when
/// LqqWeights::FromParts builds it.  A call therefore validates only the
/// activations (K and token_scale against the weight) and scans no weight
/// data before it dispatches.
MatrixF GemmW4A8Liquid(const QuantizedActivations& x, const LqqWeights& w,
                       GemmProvider provider = GemmProvider::kAuto);

/// Same numerics through the dual-MMA packed supertile layout (Section 5.2):
/// consumes registers in SMEM order and routes each dequantized lane through
/// the provenance map, proving the reordered layout computes the same GEMM.
MatrixF GemmW4A8LiquidDualMma(const QuantizedActivations& x,
                              const DualMmaPackedWeights& w,
                              GemmProvider provider = GemmProvider::kAuto);

/// QServe baseline main loop: vsub4-lowered dequant then INT8 MMA.
MatrixF GemmW4A8Qserve(const QuantizedActivations& x, const QserveWeights& w,
                       GemmProvider provider = GemmProvider::kAuto);

/// Convenience: full float-in/float-out W4A8 pipeline (activation quant +
/// LiquidGEMM).  This is the call sites' one-line entry point.  Throws
/// std::invalid_argument if x holds a NaN or an infinity.
MatrixF LiquidGemm(const MatrixF& x, const LqqWeights& w,
                   GemmProvider provider = GemmProvider::kAuto);

}  // namespace liquid
