#include "core/layout/dual_mma_layout.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "util/swar.hpp"

namespace liquid {

FragCoord DualMmaLaneCoord(int t, int reg, int lane_idx) {
  // reg 0/1 -> MMA1 (cols 0..31), reg 2/3 -> MMA2 (cols 32..63).
  const int mma = reg / 2;
  const int half = reg % 2;  // element block e0..e7 vs e8..e15
  // Within a packed register, the interleaved nibble order means lane i (i<4)
  // is element 4*half*2 + i ... concretely lanes w0..w3 are the first
  // contiguous 4-vector and w4..w7 the second (see dequant.hpp unpack).
  const int e = half * 8 + lane_idx;
  FragCoord c = WgmmaFragmentCoord(t, e);
  c.col += mma * kFragCols;
  return c;
}

std::vector<RegisterProvenance> BuildDualMmaProvenance() {
  std::vector<RegisterProvenance> table(kSupertileRegs);
  for (int t = 0; t < kWgThreads; ++t) {
    for (int r = 0; r < kRegsPerThread; ++r) {
      RegisterProvenance& prov =
          table[static_cast<std::size_t>(t * kRegsPerThread + r)];
      for (int lane = 0; lane < 8; ++lane) {
        prov.lane[static_cast<std::size_t>(lane)] = DualMmaLaneCoord(t, r, lane);
      }
    }
  }
  return table;
}

DualMmaPackedWeights PackDualMma(const LqqWeights& w) {
  if (w.n() % kSupertileRows != 0 || w.k() % kSupertileCols != 0) {
    throw std::invalid_argument(
        "PackDualMma: N and K must be multiples of 64; got N=" +
        std::to_string(w.n()) + ", K=" + std::to_string(w.k()));
  }
  // Each packed register's 8 lanes span a 32-wide k range; they must fall in
  // a single quantization group so one (scale, offset) pair dequantizes the
  // whole register (see GemmW4A8LiquidDualMma).
  if (w.group_size() % 32 != 0) {
    throw std::invalid_argument(
        "PackDualMma: group_size must be a multiple of 32; got " +
        std::to_string(w.group_size()));
  }
  DualMmaPackedWeights out;
  out.n = w.n();
  out.k = w.k();
  out.group_size = w.group_size();
  out.group_params.assign(w.group_params().begin(), w.group_params().end());
  out.channel_scale.assign(w.channel_scale().begin(), w.channel_scale().end());
  out.regs.Resize(out.TilesN() * out.TilesK() * kSupertileRegs);

  const auto provenance = BuildDualMmaProvenance();
  std::size_t flat = 0;
  for (std::size_t tn = 0; tn < out.TilesN(); ++tn) {
    for (std::size_t tk = 0; tk < out.TilesK(); ++tk) {
      const std::size_t row0 = tn * kSupertileRows;
      const std::size_t col0 = tk * kSupertileCols;
      for (const RegisterProvenance& prov : provenance) {
        std::array<std::uint8_t, 8> lanes{};
        for (int i = 0; i < 8; ++i) {
          const FragCoord& c = prov.lane[static_cast<std::size_t>(i)];
          lanes[static_cast<std::size_t>(i)] =
              w.U4At(row0 + static_cast<std::size_t>(c.row),
                     col0 + static_cast<std::size_t>(c.col));
        }
        out.regs[flat++] = PackNibblesInterleaved(lanes);
      }
    }
  }
  return out;
}

std::vector<std::uint8_t> UnpackDualMmaToU4(const DualMmaPackedWeights& w) {
  std::vector<std::uint8_t> out(w.n * w.k, 0xFF);
  const auto provenance = BuildDualMmaProvenance();
  for (std::size_t tn = 0; tn < w.TilesN(); ++tn) {
    for (std::size_t tk = 0; tk < w.TilesK(); ++tk) {
      const auto tile = w.Tile(tn, tk);
      const std::size_t row0 = tn * kSupertileRows;
      const std::size_t col0 = tk * kSupertileCols;
      for (std::size_t r = 0; r < tile.size(); ++r) {
        const auto lanes = UnpackNibblesInterleaved(tile[r]);
        for (int i = 0; i < 8; ++i) {
          const FragCoord& c = provenance[r].lane[static_cast<std::size_t>(i)];
          out[(row0 + static_cast<std::size_t>(c.row)) * w.k + col0 +
              static_cast<std::size_t>(c.col)] =
              lanes[static_cast<std::size_t>(i)];
        }
      }
    }
  }
  return out;
}

}  // namespace liquid
