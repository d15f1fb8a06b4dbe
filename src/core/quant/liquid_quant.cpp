#include "core/quant/liquid_quant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/swar.hpp"

namespace liquid {
namespace {

/// Rounds a non-negative ratio to the nearest integer, ties away from zero
/// (the ⌊·⌉ of the paper applied to positive values).
std::uint8_t RoundDiv(std::uint32_t num, std::uint32_t den) {
  return static_cast<std::uint8_t>((num + den / 2) / den);
}

}  // namespace

std::uint8_t LqqWeights::U4At(std::size_t row, std::size_t col) const {
  const std::uint32_t reg = Register(row, col / 8);
  const auto lanes = UnpackNibblesInterleaved(reg);
  return lanes[col % 8];
}

LqqWeights QuantizeSecondLevelLqq(const FirstLevelResult& first,
                                  LqqOptions options) {
  const std::size_t n = first.q.rows();
  const std::size_t k = first.q.cols();
  const std::size_t g = options.group_size;
  // Validated (not asserted): under -DNDEBUG a violated precondition would
  // silently read out of bounds while packing.
  if (g == 0 || g % 8 != 0) {
    throw std::invalid_argument(
        "QuantizeSecondLevelLqq: group_size " + std::to_string(g) +
        " must be a positive multiple of 8 (whole packed registers)");
  }
  if (k % g != 0) {
    throw std::invalid_argument(
        "QuantizeSecondLevelLqq: K=" + std::to_string(k) +
        " is not a multiple of group_size=" + std::to_string(g));
  }

  LqqWeights out;
  out.n = n;
  out.k = k;
  out.group_size = g;
  out.packed.Resize(n * k / 8);
  out.group_params.resize(n * (k / g));
  out.channel_scale = first.channel_scale;

  const std::size_t groups_per_row = k / g;
  for (std::size_t row = 0; row < n; ++row) {
    const auto src = first.q.Row(row);
    for (std::size_t gi = 0; gi < groups_per_row; ++gi) {
      // Group statistics: the rotation shifts [min, max] to [0, max-min].
      int gmin = 127;
      int gmax = -128;
      for (std::size_t j = 0; j < g; ++j) {
        const int v = src[gi * g + j];
        gmin = std::min(gmin, v);
        gmax = std::max(gmax, v);
      }
      // The overflow proof, and with it the exactness of every W4A8 kernel,
      // needs the protective range; a hand-built FirstLevelResult may not
      // respect it.
      if (gmin < -kProtectiveMax || gmax > kProtectiveMax) {
        throw std::invalid_argument(
            "QuantizeSecondLevelLqq: row " + std::to_string(row) +
            " group " + std::to_string(gi) + " spans [" +
            std::to_string(gmin) + ", " + std::to_string(gmax) +
            "], outside the protective range [-" +
            std::to_string(kProtectiveMax) + ", " +
            std::to_string(kProtectiveMax) + "]");
      }
      const std::uint32_t range = static_cast<std::uint32_t>(gmax - gmin);
      // s_u8 = ceil(range / 15), clamped to >= 1.  Ceiling (rather than
      // nearest) guarantees round(q_u8 / s) <= 15; with the protective range,
      // range <= 238 so s_u8 <= 16 — the bound the overflow proof needs.
      const std::uint8_t scale =
          range == 0 ? std::uint8_t{1}
                     : static_cast<std::uint8_t>((range + 14) / 15);
      const std::uint8_t offset =
          static_cast<std::uint8_t>(128 + gmin);  // a = 2^7 + min(Q_i8)

      LqqGroupParams& params = out.group_params[row * groups_per_row + gi];
      params.scale = scale;
      params.offset = offset;

      // Quantize the group and pack registers (8 elements each).
      for (std::size_t r = 0; r < g / 8; ++r) {
        std::array<std::uint8_t, 8> lanes{};
        for (std::size_t j = 0; j < 8; ++j) {
          const int q_i8 = src[gi * g + r * 8 + j];
          const std::uint32_t q_u8 = static_cast<std::uint32_t>(q_i8 - gmin);
          std::uint8_t q_u4 = RoundDiv(q_u8, scale);
          q_u4 = std::min<std::uint8_t>(q_u4, 15);
          lanes[j] = q_u4;
        }
        const std::size_t reg_index =
            row * (k / 8) + (gi * g) / 8 + r;
        out.packed[reg_index] = PackNibblesInterleaved(lanes);
      }
    }
  }
  return out;
}

LqqWeights QuantizeWeightsLqq(const MatrixF& weights, LqqOptions options) {
  return QuantizeSecondLevelLqq(QuantizeFirstLevel(weights), options);
}

MatrixI8 DequantizeSecondLevelReference(const LqqWeights& w) {
  MatrixI8 out(w.n, w.k);
  for (std::size_t row = 0; row < w.n; ++row) {
    for (std::size_t col = 0; col < w.k; ++col) {
      const LqqGroupParams& p = w.Params(row, col / w.group_size);
      out.At(row, col) = LqqDequantElement(w.U4At(row, col), p.scale, p.offset);
    }
  }
  return out;
}

MatrixF DequantizeWeightsLqq(const LqqWeights& w) {
  const MatrixI8 i8 = DequantizeSecondLevelReference(w);
  MatrixF out(w.n, w.k);
  for (std::size_t row = 0; row < w.n; ++row) {
    for (std::size_t col = 0; col < w.k; ++col) {
      out.At(row, col) =
          static_cast<float>(i8.At(row, col)) * w.channel_scale[row];
    }
  }
  return out;
}

}  // namespace liquid
