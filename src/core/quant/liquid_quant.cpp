#include "core/quant/liquid_quant.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/swar.hpp"

namespace liquid {
namespace {

[[noreturn]] void ThrowInvalid(const char* who, const std::string& detail) {
  throw std::invalid_argument(std::string(who) + ": " + detail);
}

// Validated (not asserted): under -DNDEBUG a violated precondition would
// silently read out of bounds while packing or in the GEMM.
void CheckGrouping(const char* who, std::size_t k, std::size_t group_size) {
  if (group_size == 0 || group_size % 8 != 0) {
    ThrowInvalid(who, "group_size " + std::to_string(group_size) +
                          " must be a positive multiple of 8 (whole packed "
                          "registers)");
  }
  if (k % group_size != 0) {
    ThrowInvalid(who, "K=" + std::to_string(k) +
                          " is not a multiple of group_size=" +
                          std::to_string(group_size));
  }
}

void CheckCount(const char* who, const char* what, std::size_t got,
                std::size_t want, const char* formula) {
  if (got != want) {
    ThrowInvalid(who, std::string(what) + " count " + std::to_string(got) +
                          " != " + formula + " = " + std::to_string(want));
  }
}

// Group gi's codes are compared against its largest safe code
// t = (255 - a) / s, eight at a time: adding 15 - t to a nibble carries into
// bit 4 exactly when the nibble exceeds t.
void CheckLqqCodes(const char* who, const LqqWeights& w, std::size_t gi) {
  const std::size_t regs_per_group = w.group_size() / 8;
  const LqqGroupParams& p = w.group_params()[gi];
  const std::uint32_t largest_safe = (255u - p.offset) / p.scale;
  const std::uint32_t carry = (15u - largest_safe) * 0x01010101u;
  std::uint32_t overflow = 0;
  for (std::size_t r = 0; r < regs_per_group; ++r) {
    const std::uint32_t reg = w.packed()[gi * regs_per_group + r];
    overflow |= ((reg & 0x0F0F0F0Fu) + carry) |
                (((reg >> 4) & 0x0F0F0F0Fu) + carry);
  }
  if ((overflow & 0x10101010u) != 0) {
    const std::size_t per_row = w.GroupsPerRow();
    ThrowInvalid(who, "row " + std::to_string(gi / per_row) + " group " +
                          std::to_string(gi % per_row) + " (scale " +
                          std::to_string(p.scale) + ", offset " +
                          std::to_string(p.offset) + ") stores a code above " +
                          std::to_string(largest_safe) +
                          ", so q*s + a exceeds 255 (Section 4 bound)");
  }
}

// A group whose parameters alone prove the bound (15*s + a <= 255) needs no
// code check: 99.6% of the groups QuantizeWeightsLqq emits for a Gaussian
// 4096 x 4096 weight.  The OR of a block's bounds clears the whole block at
// once, and that scan vectorizes.
void CheckLqqBound(const char* who, const LqqWeights& w) {
  constexpr std::size_t kBlock = 32;
  const std::span<const LqqGroupParams> params = w.group_params();
  const auto bound = [&](std::size_t gi) {
    return 15 * params[gi].scale + params[gi].offset;
  };
  for (std::size_t g0 = 0; g0 < params.size(); g0 += kBlock) {
    const std::size_t g1 = std::min(g0 + kBlock, params.size());
    int bounds = 0;
    for (std::size_t gi = g0; gi < g1; ++gi) bounds |= bound(gi);
    if (bounds <= 255) continue;
    for (std::size_t gi = g0; gi < g1; ++gi) {
      if (bound(gi) > 255) CheckLqqCodes(who, w, gi);
    }
  }
}

/// Rounds a non-negative ratio to the nearest integer, ties away from zero
/// (the ⌊·⌉ of the paper applied to positive values).
std::uint8_t RoundDiv(std::uint32_t num, std::uint32_t den) {
  return static_cast<std::uint8_t>((num + den / 2) / den);
}

}  // namespace

LqqWeights& LqqWeights::operator=(LqqWeights&& other) noexcept {
  if (this != &other) {
    n_ = std::exchange(other.n_, 0);
    k_ = std::exchange(other.k_, 0);
    group_size_ = other.group_size_;
    packed_ = std::exchange(other.packed_, {});
    group_params_ = std::exchange(other.group_params_, {});
    channel_scale_ = std::exchange(other.channel_scale_, {});
  }
  return *this;
}

LqqWeights LqqWeights::FromParts(std::size_t n, std::size_t k,
                                 std::size_t group_size,
                                 AlignedBuffer<std::uint32_t> packed,
                                 std::vector<LqqGroupParams> group_params,
                                 std::vector<float> channel_scale) {
  constexpr const char* kWho = "LqqWeights::FromParts";
  CheckGrouping(kWho, k, group_size);
  CheckCount(kWho, "packed register", packed.size(), n * (k / 8), "n*k/8");
  CheckCount(kWho, "group_params", group_params.size(),
             n * (k / group_size), "n*k/group_size");
  CheckCount(kWho, "channel_scale", channel_scale.size(), n, "n");
  LqqWeights out;
  out.n_ = n;
  out.k_ = k;
  out.group_size_ = group_size;
  out.packed_ = std::move(packed);
  out.group_params_ = std::move(group_params);
  out.channel_scale_ = std::move(channel_scale);
  CheckLqqBound(kWho, out);
  return out;
}

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
  CheckGrouping("QuantizeSecondLevelLqq", k, g);

  const std::size_t groups_per_row = k / g;
  AlignedBuffer<std::uint32_t> packed(n * k / 8);
  std::vector<LqqGroupParams> group_params(n * groups_per_row);
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
        ThrowInvalid("QuantizeSecondLevelLqq",
                     "row " + std::to_string(row) + " group " +
                         std::to_string(gi) + " spans [" +
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

      LqqGroupParams& params = group_params[row * groups_per_row + gi];
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
        packed[reg_index] = PackNibblesInterleaved(lanes);
      }
    }
  }
  return LqqWeights::FromParts(n, k, g, std::move(packed),
                               std::move(group_params), first.channel_scale);
}

LqqWeights QuantizeWeightsLqq(const MatrixF& weights, LqqOptions options) {
  return QuantizeSecondLevelLqq(QuantizeFirstLevel(weights), options);
}

MatrixI8 DequantizeSecondLevelReference(const LqqWeights& w) {
  MatrixI8 out(w.n(), w.k());
  for (std::size_t row = 0; row < w.n(); ++row) {
    for (std::size_t col = 0; col < w.k(); ++col) {
      const LqqGroupParams& p = w.Params(row, col / w.group_size());
      out.At(row, col) = LqqDequantElement(w.U4At(row, col), p.scale, p.offset);
    }
  }
  return out;
}

MatrixF DequantizeWeightsLqq(const LqqWeights& w) {
  const MatrixI8 i8 = DequantizeSecondLevelReference(w);
  MatrixF out(w.n(), w.k());
  for (std::size_t row = 0; row < w.n(); ++row) {
    for (std::size_t col = 0; col < w.k(); ++col) {
      out.At(row, col) =
          static_cast<float>(i8.At(row, col)) * w.channel_scale()[row];
    }
  }
  return out;
}

}  // namespace liquid
