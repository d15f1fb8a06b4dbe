// Tests for the SWAR dequantization kernels (paper Section 5.3, Figure 8):
// bit-exactness against the scalar references over the full input domain and
// the headline instruction counts (7 instructions per 8 elements for LQQ).

#include "core/dequant/dequant.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace liquid {
namespace {

TEST(DequantTest, UnpackSplitsNibbles) {
  const std::array<std::uint8_t, 8> w{1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint32_t reg = PackNibblesInterleaved(w);
  const Dequanted8 u = UnpackU4x8(reg);
  EXPECT_EQ(u.lo, PackBytes(1, 2, 3, 4));
  EXPECT_EQ(u.hi, PackBytes(5, 6, 7, 8));
}

TEST(DequantTest, UnpackCostsThreeInstructions) {
  IsaCounter c;
  (void)UnpackU4x8(0xDEADBEEFu, &c);
  EXPECT_EQ(c.Total(), 3u);  // AND, SHR, AND (Figure 8 left column)
}

TEST(DequantTest, LqqDequant4CostsTwoInstructions) {
  IsaCounter c;
  (void)LqqDequant4(PackBytes(1, 2, 3, 4), 16, BroadcastByte(100), &c);
  EXPECT_EQ(c.imad, 1u);
  EXPECT_EQ(c.logic, 1u);  // the XOR
  EXPECT_EQ(c.Total(), 2u);
}

TEST(DequantTest, LqqFullRegisterCostsSevenInstructions) {
  // The paper's headline: "eight elements are dequantized with only seven
  // instructions" (3 unpack + 2x2 dequant).
  IsaCounter c;
  (void)LqqDequant8(0x12345678u, 16, 9, &c);
  EXPECT_EQ(c.Total(), 7u);
  EXPECT_DOUBLE_EQ(MeasureAlphaLqq(), 7.0 / 8.0);
}

TEST(DequantTest, QserveAlphaIsSeveralTimesHigher) {
  const double lqq = MeasureAlphaLqq();
  const double qserve = MeasureAlphaQserve();
  EXPECT_GT(qserve, 3.0 * lqq);
  // And LQQ sits far below the overlap threshold of Section 3.3 (~5).
  EXPECT_LT(lqq, 5.0);
}

TEST(DequantTest, LqqSwarMatchesScalarExhaustively) {
  // All (q_u4, s, a) reachable combinations: q_u4 in [0,15], s in [1,16],
  // a in [9,247].  Every lane of the SWAR path must equal the scalar Eq. 12.
  for (int s = 1; s <= 16; ++s) {
    for (int a = 9; a <= 247; ++a) {
      for (int q = 0; q <= 15; ++q) {
        // Overflow precondition from the quantizer: q*s + a <= 255 holds for
        // reachable combinations; skip unreachable ones.
        if (q * s + a > 255) continue;
        const std::array<std::uint8_t, 8> w{
            static_cast<std::uint8_t>(q), 0,
            static_cast<std::uint8_t>(15 % (q + 1)), 1,
            static_cast<std::uint8_t>(q), 7, 2, 3};
        // Only lanes with the same reachability constraint:
        bool reachable = true;
        for (const auto lane : w) reachable &= lane * s + a <= 255;
        if (!reachable) continue;
        const std::uint32_t reg = PackNibblesInterleaved(w);
        const Dequanted8 d = LqqDequant8(reg, static_cast<std::uint8_t>(s),
                                         static_cast<std::uint8_t>(a));
        std::int8_t out[8];
        StoreDequanted8(d, out);
        for (int lane = 0; lane < 8; ++lane) {
          ASSERT_EQ(out[lane],
                    LqqDequantElement(w[static_cast<std::size_t>(lane)],
                                      static_cast<std::uint8_t>(s),
                                      static_cast<std::uint8_t>(a)))
              << "q=" << q << " s=" << s << " a=" << a << " lane=" << lane;
        }
      }
    }
  }
}

TEST(DequantTest, QserveSwarMatchesScalarExhaustively) {
  for (int s = 1; s <= 16; ++s) {
    for (int z = 0; z <= 15; ++z) {
      const std::uint8_t zs = static_cast<std::uint8_t>(z * s);
      for (int q = 0; q <= 15; ++q) {
        const std::array<std::uint8_t, 8> w{
            static_cast<std::uint8_t>(q), 15, 0, 8, 3,
            static_cast<std::uint8_t>(15 - q), 5, 11};
        const std::uint32_t reg = PackNibblesInterleaved(w);
        const Dequanted8 d = QserveDequant8(reg, static_cast<std::uint8_t>(s),
                                            zs);
        std::int8_t out[8];
        StoreDequanted8(d, out);
        for (int lane = 0; lane < 8; ++lane) {
          ASSERT_EQ(out[lane],
                    QserveDequantElement(w[static_cast<std::size_t>(lane)],
                                         static_cast<std::uint8_t>(s), zs))
              << "q=" << q << " s=" << s << " z=" << z;
        }
      }
    }
  }
}

TEST(DequantTest, RowDequantMatchesReferenceLqq) {
  Rng rng(1);
  MatrixF w(16, 256);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  const LqqWeights q = QuantizeWeightsLqq(w);
  const MatrixI8 ref = DequantizeSecondLevelReference(q);
  std::vector<std::int8_t> row(q.k());
  for (std::size_t n = 0; n < q.n(); ++n) {
    LqqDequantRow(q, n, row);
    for (std::size_t k = 0; k < q.k(); ++k) {
      ASSERT_EQ(row[k], ref.At(n, k)) << n << "," << k;
    }
  }
}

TEST(DequantTest, RowDequantMatchesReferenceQserve) {
  Rng rng(2);
  MatrixF w(16, 256);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  const QserveWeights q = QuantizeWeightsQserve(w, {.group_size = 128});
  const MatrixI8 ref = DequantizeSecondLevelReferenceQserve(q);
  std::vector<std::int8_t> row(q.k);
  for (std::size_t n = 0; n < q.n; ++n) {
    QserveDequantRow(q, n, row);
    for (std::size_t k = 0; k < q.k; ++k) {
      ASSERT_EQ(row[k], ref.At(n, k)) << n << "," << k;
    }
  }
}

TEST(DequantTest, InstructionCountScalesLinearly) {
  Rng rng(3);
  MatrixF w(4, 512);
  for (auto& v : w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  const LqqWeights q = QuantizeWeightsLqq(w);
  IsaCounter c;
  std::vector<std::int8_t> row(q.k());
  LqqDequantRow(q, 0, row, &c);
  // 512 elements = 64 registers x 7 instructions.
  EXPECT_EQ(c.Total(), 64u * 7);
}

}  // namespace
}  // namespace liquid
