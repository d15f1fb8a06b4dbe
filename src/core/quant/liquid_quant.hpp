#pragma once
// LiquidQuant (LQQ) second-level quantization (paper Section 4).
//
// The second level converts the first-level INT8 tensor (protective range
// [-119, 119]) to UINT4, group-wise along K.  LQQ's key idea is the
// *rotation*: instead of quantizing INT8 -> UINT4 around a zero point (QServe),
// it first shifts each group into the unsigned domain,
//
//     Q_u8 = Q_i8 - min(Q_i8),        (Eq. 7)
//     Q_u4 = round(Q_u8 / s_u8),      s_u8 = max(Q_u8) / 15,
//
// and pairs that with the "sweet dequantization" (Eq. 12)
//
//     Q^_i8 = (Q_u4 * s_u8 + a) XOR 0x80,      a = 2^7 + min(Q_i8),
//
// which recovers the INT8 *bit pattern* entirely inside the UINT8 domain:
// every intermediate is provably <= 255 (Section 4 proof; verified
// exhaustively in tests/core/liquid_quant_test.cpp), so four elements can be
// dequantized with one 32-bit IMAD + one XOR with no cross-byte carries.

#include <cstdint>
#include <vector>

#include "core/quant/first_level.hpp"
#include "core/types.hpp"
#include "util/buffer.hpp"

namespace liquid {

/// Per-group second-level parameters, both in [0, 255].
struct LqqGroupParams {
  std::uint8_t scale = 1;  ///< s_u8 in [1, 16]
  std::uint8_t offset = 0; ///< a = 128 + min(Q_i8), in [9, 247]
};

/// A fully quantized LQQ weight tensor, ready for the W4A8 GEMM main loop.
///
/// `packed` holds K/8 registers per output channel in the paper's interleaved
/// nibble order (Figure 8): register r of row n covers elements
/// k = 8r .. 8r+7, stored as bytes [(w4<<4)|w0, (w5<<4)|w1, (w6<<4)|w2,
/// (w7<<4)|w3].  This is the order the 3-instruction unpack expects; the
/// Dual-MMA SMEM placement (Section 5.2) is a permutation *of registers* on
/// top of this and lives in core/layout.
struct LqqWeights {
  std::size_t n = 0;           ///< output channels
  std::size_t k = 0;           ///< reduction dim (multiple of group_size)
  std::size_t group_size = 64; ///< paper default
  AlignedBuffer<std::uint32_t> packed;        ///< [n * k/8]
  std::vector<LqqGroupParams> group_params;   ///< [n * k/group_size]
  std::vector<float> channel_scale;           ///< [n], first-level scale

  [[nodiscard]] std::size_t RegistersPerRow() const { return k / 8; }
  [[nodiscard]] std::size_t GroupsPerRow() const { return k / group_size; }
  [[nodiscard]] const LqqGroupParams& Params(std::size_t row,
                                             std::size_t group) const {
    return group_params[row * GroupsPerRow() + group];
  }
  [[nodiscard]] std::uint32_t Register(std::size_t row, std::size_t reg) const {
    return packed[row * RegistersPerRow() + reg];
  }
  /// Raw UINT4 value at (row, col) — test/debug accessor.
  [[nodiscard]] std::uint8_t U4At(std::size_t row, std::size_t col) const;

  /// Memory footprint of weights + quantization parameters in bytes.
  [[nodiscard]] std::size_t StorageBytes() const {
    return packed.size() * 4 + group_params.size() * 2 +
           channel_scale.size() * 4;
  }
};

struct LqqOptions {
  std::size_t group_size = 64;  ///< paper default for LiquidServe
};

/// Second level only: INT8 (protective range) -> packed UINT4 + group params.
/// Throws std::invalid_argument unless k is a multiple of group_size,
/// group_size a multiple of 8, and every value within the protective range
/// [-kProtectiveMax, kProtectiveMax] the overflow proof needs.
LqqWeights QuantizeSecondLevelLqq(const FirstLevelResult& first,
                                  LqqOptions options = {});

/// Full two-level pipeline: FP32 weights -> LqqWeights.
LqqWeights QuantizeWeightsLqq(const MatrixF& weights, LqqOptions options = {});

/// Scalar reference dequantization of the second level (Eq. 12), element by
/// element.  The SWAR kernel in core/dequant must match this bit-for-bit.
MatrixI8 DequantizeSecondLevelReference(const LqqWeights& w);

/// Full dequantization back to float (second level then first level).
MatrixF DequantizeWeightsLqq(const LqqWeights& w);

/// Scalar Eq. 12 for a single element; exposed for exhaustive proofs in tests.
inline std::int8_t LqqDequantElement(std::uint8_t q_u4, std::uint8_t s_u8,
                                     std::uint8_t a) {
  const std::uint8_t v = static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(q_u4 * s_u8) + a);  // stays in UINT8 by proof
  return static_cast<std::int8_t>(static_cast<std::uint8_t>(v ^ 0x80u));
}

}  // namespace liquid
