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
#include <span>
#include <utility>
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
/// `packed()` holds K/8 registers per output channel in the paper's
/// interleaved nibble order (Figure 8): register r of row n covers elements
/// k = 8r .. 8r+7, stored as bytes [(w4<<4)|w0, (w5<<4)|w1, (w6<<4)|w2,
/// (w7<<4)|w3].  This is the order the 3-instruction unpack expects; the
/// Dual-MMA SMEM placement (Section 5.2) is a permutation *of registers* on
/// top of this and lives in core/layout.
///
/// The type holds its own invariant: every LqqWeights is well-shaped and
/// meets the Section 4 bound, q*s + a <= 255 for every stored code q of a
/// group with parameters (s, a).  The bound keeps Eq. 12 inside UINT8, which
/// makes it the exact affine map q*s + a - 128 the AVX2 kernel applies.  A
/// weight is built only by FromParts (the quantizers below go through it
/// too), so the check runs once per weight and the GEMM trusts it.  The
/// fields are read-only; a moved-from weight is the empty 0 x 0 weight.
class LqqWeights {
 public:
  LqqWeights() = default;
  LqqWeights(LqqWeights&& other) noexcept { *this = std::move(other); }
  LqqWeights& operator=(LqqWeights&& other) noexcept;

  /// The one way to build a weight from its parts.  Throws
  /// std::invalid_argument unless group_size is a positive multiple of 8,
  /// k a multiple of group_size, the three arrays hold n*k/8 registers,
  /// n*k/group_size group parameters and n channel scales, and every code
  /// meets the Section 4 bound.
  static LqqWeights FromParts(std::size_t n, std::size_t k,
                              std::size_t group_size,
                              AlignedBuffer<std::uint32_t> packed,
                              std::vector<LqqGroupParams> group_params,
                              std::vector<float> channel_scale);

  [[nodiscard]] std::size_t n() const { return n_; }  ///< output channels
  [[nodiscard]] std::size_t k() const { return k_; }  ///< reduction dim
  [[nodiscard]] std::size_t group_size() const { return group_size_; }
  [[nodiscard]] std::span<const std::uint32_t> packed() const {
    return packed_.span();
  }  ///< [n * k/8]
  [[nodiscard]] std::span<const LqqGroupParams> group_params() const {
    return group_params_;
  }  ///< [n * k/group_size]
  [[nodiscard]] std::span<const float> channel_scale() const {
    return channel_scale_;
  }  ///< [n], first-level scale

  [[nodiscard]] std::size_t RegistersPerRow() const { return k_ / 8; }
  [[nodiscard]] std::size_t GroupsPerRow() const { return k_ / group_size_; }
  [[nodiscard]] const LqqGroupParams& Params(std::size_t row,
                                             std::size_t group) const {
    return group_params_[row * GroupsPerRow() + group];
  }
  [[nodiscard]] std::uint32_t Register(std::size_t row, std::size_t reg) const {
    return packed_[row * RegistersPerRow() + reg];
  }
  /// Raw UINT4 value at (row, col) — test/debug accessor.
  [[nodiscard]] std::uint8_t U4At(std::size_t row, std::size_t col) const;

  /// Memory footprint of weights + quantization parameters in bytes.
  [[nodiscard]] std::size_t StorageBytes() const {
    return packed_.size() * 4 + group_params_.size() * 2 +
           channel_scale_.size() * 4;
  }

 private:
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::size_t group_size_ = 64;  ///< paper default
  AlignedBuffer<std::uint32_t> packed_;
  std::vector<LqqGroupParams> group_params_;
  std::vector<float> channel_scale_;
};

struct LqqOptions {
  std::size_t group_size = 64;  ///< paper default for LiquidServe
};

/// Second level only: INT8 (protective range) -> packed UINT4 + group params,
/// built through LqqWeights::FromParts.  Throws std::invalid_argument unless
/// k is a multiple of group_size, group_size a multiple of 8, and every value
/// within the protective range [-kProtectiveMax, kProtectiveMax] the overflow
/// proof needs.
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
