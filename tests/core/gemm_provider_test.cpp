// Provider-parity suite: every available GEMM provider x every kernel on
// ragged M/N/K shapes, including K not a multiple of the 32-byte SIMD width
// (exercises the vector tails) and group sizes that leave ragged register
// groups (exercises the scalar tail of the fused LUT dequant).
//
// Integer kernels (W8A8, W4A8 LQQ/QServe/DualMma) must match the reference
// provider bit-for-bit: INT32 accumulation is associative and the float
// epilogue expression is identical across providers.  Float kernels (fp32,
// fp16, W4A16) differ only by accumulation order, so they are held to a tight
// relative-Frobenius tolerance.

#include "core/gemm/gemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace liquid {
namespace {

// Accumulation-order-only differences on K <= 512 Gaussian dots.
constexpr double kTolReorderFp32 = 1e-5;
constexpr double kTolReorderFp16 = 1e-4;

struct Problem {
  MatrixF x;
  MatrixF w;
  QuantizedActivations xq;
};

Problem MakeProblem(std::size_t m, std::size_t n, std::size_t k,
                    std::uint64_t seed) {
  Rng rng(seed);
  Problem p{MatrixF(m, k), MatrixF(n, k), {}};
  for (auto& v : p.x.Flat()) v = static_cast<float>(rng.Normal(0, 1.0));
  for (auto& v : p.w.Flat()) v = static_cast<float>(rng.Normal(0, 0.05));
  p.xq = QuantizeActivationsPerToken(p.x);
  return p;
}

/// Restores the process-wide provider override on scope exit.
class ProviderGuard {
 public:
  ProviderGuard() = default;
  ~ProviderGuard() { SetGemmProvider(GemmProvider::kAuto); }
};

void ExpectBitIdentical(const MatrixF& ref, const MatrixF& got,
                        GemmProvider p, const char* kernel) {
  ASSERT_EQ(ref.rows(), got.rows());
  ASSERT_EQ(ref.cols(), got.cols());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.Flat()[i], got.Flat()[i])
        << kernel << " provider=" << GemmProviderName(p) << " flat index " << i;
  }
}

/// Rebuilds `w` through LqqWeights::FromParts, the one way to build a
/// weight, with group `gi`'s parameters replaced by `params`.
LqqWeights RebuildWithGroup(const LqqWeights& w, std::size_t gi,
                            LqqGroupParams params) {
  AlignedBuffer<std::uint32_t> packed(w.packed().size());
  std::ranges::copy(w.packed(), packed.data());
  std::vector<LqqGroupParams> groups(w.group_params().begin(),
                                     w.group_params().end());
  groups[gi] = params;
  return LqqWeights::FromParts(
      w.n(), w.k(), w.group_size(), std::move(packed), std::move(groups),
      {w.channel_scale().begin(), w.channel_scale().end()});
}

TEST(GemmProviderTest, NamesRoundTrip) {
  for (GemmProvider p : {GemmProvider::kAuto, GemmProvider::kReference,
                         GemmProvider::kPortable, GemmProvider::kAvx2}) {
    GemmProvider parsed = GemmProvider::kAuto;
    EXPECT_TRUE(ParseGemmProvider(GemmProviderName(p), &parsed));
    EXPECT_EQ(parsed, p);
  }
  GemmProvider parsed = GemmProvider::kAuto;
  EXPECT_TRUE(ParseGemmProvider("AVX2", &parsed));  // case-insensitive
  EXPECT_EQ(parsed, GemmProvider::kAvx2);
  EXPECT_FALSE(ParseGemmProvider("bogus", &parsed));
}

TEST(GemmProviderTest, ReferenceAndPortableAlwaysAvailable) {
  EXPECT_TRUE(GemmProviderAvailable(GemmProvider::kReference));
  EXPECT_TRUE(GemmProviderAvailable(GemmProvider::kPortable));
  const auto providers = AvailableGemmProviders();
  EXPECT_GE(providers.size(), 2u);
  // The active provider must itself be available (never kAuto).
  EXPECT_NE(ActiveGemmProvider(), GemmProvider::kAuto);
  EXPECT_TRUE(GemmProviderAvailable(ActiveGemmProvider()));
}

TEST(GemmProviderTest, UnavailableProviderThrows) {
  if (GemmProviderAvailable(GemmProvider::kAvx2)) {
    GTEST_SKIP() << "AVX2 available here; nothing is unavailable to test";
  }
  const Problem p = MakeProblem(2, 4, 64, 1);
  const auto wq = QuantizeWeightsW8A8(p.w);
  EXPECT_THROW(GemmW8A8(p.xq, wq, GemmProvider::kAvx2), std::invalid_argument);
  EXPECT_THROW(SetGemmProvider(GemmProvider::kAvx2), std::invalid_argument);
}

TEST(GemmProviderTest, ForcedFallbackMatchesReference) {
  // Simulates LIQUID_GEMM_PROVIDER=portable: the default-argument call path
  // must route through the portable provider and stay bit-identical on the
  // integer kernels.
  const Problem p = MakeProblem(5, 33, 192, 2);
  const LqqWeights wq = QuantizeWeightsLqq(p.w);
  const MatrixF ref = GemmW4A8Liquid(p.xq, wq, GemmProvider::kReference);
  ProviderGuard guard;
  SetGemmProvider(GemmProvider::kPortable);
  EXPECT_EQ(ActiveGemmProvider(), GemmProvider::kPortable);
  const MatrixF got = GemmW4A8Liquid(p.xq, wq);  // default = active provider
  ExpectBitIdentical(ref, got, GemmProvider::kPortable, "W4A8Liquid");
}

// ---------------------------------------------------------------------------
// Parity sweeps: one fixture instantiated per available provider.
// ---------------------------------------------------------------------------

class ProviderParity : public ::testing::TestWithParam<GemmProvider> {};

TEST_P(ProviderParity, W8A8ExactOnRaggedShapes) {
  const GemmProvider provider = GetParam();
  const struct { std::size_t m, n, k; } shapes[] = {
      {1, 7, 37},    // K < one SIMD chunk, scalar tail only
      {3, 5, 64},    //
      {16, 33, 70},  // K and N both ragged vs the 32/4-wide blocks
      {2, 4, 33},    // K one past a chunk boundary
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 10 + s.k);
    const auto wq = QuantizeWeightsW8A8(p.w);
    const MatrixF ref = GemmW8A8(p.xq, wq, GemmProvider::kReference);
    const MatrixF got = GemmW8A8(p.xq, wq, provider);
    ExpectBitIdentical(ref, got, provider, "W8A8");
  }
}

TEST_P(ProviderParity, W4A8LiquidExactOnRaggedShapes) {
  const GemmProvider provider = GetParam();
  // The AVX2 main loop tiles 4 tokens x 2 weight rows in 32-row panels and
  // reads 64 codes (8 registers) per load; these shapes cover every remainder.
  const struct { std::size_t m, n, k, group; } shapes[] = {
      {1, 5, 40, 8},      // K tail only: 5 registers, no full 64-code load
      {3, 33, 72, 8},     // one load plus a 1-register K tail
      {16, 7, 96, 16},    //
      {4, 12, 128, 64},   // paper-default group, one load per group
      {2, 3, 320, 64},    // several loads per row
      {5, 33, 128, 64},   // M and N off the tile; N spills into a 2nd panel
      {7, 70, 192, 64},   // 3 panels, the last one ragged
      {6, 9, 96, 24},     // 3-register groups straddle the 64-code loads
      {5, 6, 128, 32},    // two groups per load
      {7, 4, 200, 40},    // 5-register groups, 8-code K tail
      {4, 5, 288, 96},    // 12-register groups: a load spans two groups
      {9, 5, 256, 128},   // two loads per group
      {4, 3, 512, 256},   // four loads per group; int16 sums at their limit
      {3, 4, 1024, 512},  // group sums split so each fits int16
      {2, 3, 248, 8},     // 56-code K tail
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 20 + s.k + s.group);
    const LqqWeights wq = QuantizeWeightsLqq(p.w, {s.group});
    const MatrixF ref = GemmW4A8Liquid(p.xq, wq, GemmProvider::kReference);
    const MatrixF got = GemmW4A8Liquid(p.xq, wq, provider);
    ExpectBitIdentical(ref, got, provider, "W4A8Liquid");
  }
}

TEST_P(ProviderParity, W4A8LiquidExactAtExtremeMagnitudes) {
  // Every activation at full scale and every group at the largest scale the
  // quantizer emits (s = 16, codes 0 and 15): the int16 pair sums and group
  // sums of the AVX2 loop sit at their bounds.  One more token row of -128,
  // which the per-token quantizer never emits but the kernels must accept.
  const GemmProvider provider = GetParam();
  for (const std::size_t group : {8u, 32u, 64u, 256u, 512u}) {
    const std::size_t m = 6;
    const std::size_t n = 5;
    const std::size_t k = 512;
    MatrixF w(n, k);
    MatrixF x(m, k);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        w.At(r, c) = ((c + r) % 2 == 0 ? 1.0f : -1.0f) * (0.5f + 0.1f * r);
      }
    }
    for (std::size_t t = 0; t < m - 1; ++t) {
      for (std::size_t c = 0; c < k; ++c) {
        // Token 0 matches weight row 0's signs (the largest dot), token 1 is
        // all +1, the rest follow the column index.
        const bool plus = t == 0 ? c % 2 == 0 : t == 1 || (c / (t + 1)) % 2;
        x.At(t, c) = plus ? 2.0f : -2.0f;
      }
    }
    const LqqWeights wq = QuantizeWeightsLqq(w, {group});
    for (const LqqGroupParams& p : wq.group_params()) {
      ASSERT_EQ(p.scale, 16);
      ASSERT_EQ(p.offset, 128 - kProtectiveMax);
    }
    ASSERT_EQ(wq.U4At(0, 0), 15);
    QuantizedActivations xq = QuantizeActivationsPerToken(x);
    for (std::size_t t = 0; t < m - 1; ++t) {
      for (std::size_t c = 0; c < k; ++c) {
        ASSERT_EQ(std::abs(xq.q.At(t, c)), 127);
      }
    }
    for (std::size_t c = 0; c < k; ++c) xq.q.At(m - 1, c) = -128;
    const MatrixF ref = GemmW4A8Liquid(xq, wq, GemmProvider::kReference);
    const MatrixF got = GemmW4A8Liquid(xq, wq, provider);
    ExpectBitIdentical(ref, got, provider, "W4A8Liquid-extreme");
  }
}

TEST_P(ProviderParity, W4A8LiquidRejectsCodesAboveTheBound) {
  // Raising one group's offset until its largest code leaves Eq. 12's UINT8
  // domain breaks the Section 4 bound: LqqWeights::FromParts refuses the
  // weight, so no provider can be handed it.  One less, the largest code
  // lands exactly on 255, and every provider still matches the reference.
  const GemmProvider provider = GetParam();
  Problem p = MakeProblem(3, 9, 256, 80);
  // Row 1, group 2: the row's absmax sits at the group's first code alone
  // (register 0, lane 0), so only that code can overflow.
  p.w.At(1, 128) = 1.0f;
  // Row 3, group 1: values span [-106, 119], so s = 15 and the top code is
  // 15; with a = 256 - 15*15 the bound 15*s + a is exactly 256.
  for (std::size_t c = 64; c < 128; ++c) {
    p.w.At(3, c) = (c % 2 == 0 ? 1.0f : -106.0f / 119.0f) * 0.5f;
  }
  const LqqWeights wq = QuantizeWeightsLqq(p.w);
  // Rows 7 and 8 hold groups 31 and 32 of the weight, either side of the
  // first 32-group block the parameter scan clears at once.
  const struct { std::size_t row, group; } cases[] = {
      {1, 2}, {3, 1}, {7, 3}, {8, 0}};
  for (const auto& c : cases) {
    const std::size_t gi = c.row * wq.GroupsPerRow() + c.group;
    LqqGroupParams params = wq.Params(c.row, c.group);
    int top = 0;
    for (std::size_t k = c.group * 64; k < (c.group + 1) * 64; ++k) {
      top = std::max<int>(top, wq.U4At(c.row, k));
    }
    params.offset = static_cast<std::uint8_t>(256 - top * params.scale);
    EXPECT_THROW(RebuildWithGroup(wq, gi, params), std::invalid_argument)
        << "row " << c.row << " group " << c.group;
    --params.offset;
    const LqqWeights edge = RebuildWithGroup(wq, gi, params);
    ExpectBitIdentical(GemmW4A8Liquid(p.xq, edge, GemmProvider::kReference),
                       GemmW4A8Liquid(p.xq, edge, provider), provider,
                       "W4A8Liquid-bound-edge");
  }
  // The two crafted groups are what the cases above claim.
  EXPECT_EQ(wq.U4At(1, 128), 15);
  for (std::size_t k = 129; k < 192; ++k) EXPECT_LT(wq.U4At(1, k), 15);
  EXPECT_EQ(wq.Params(3, 1).scale, 15);
  EXPECT_EQ(wq.U4At(3, 64), 15);
}

TEST_P(ProviderParity, W4A8LiquidAcceptsGroupsOnlyTheirCodesProveSafe) {
  // A row whose first-level values span [-107, 119] quantizes to s = 16,
  // a = 21: 15*s + a = 261 fails the parameter-only bound, but the largest
  // stored code is round(226 / 16) = 14 and 14*16 + 21 = 245 <= 255.
  // FromParts accepts the group on its codes, and every provider computes
  // it exactly.
  const GemmProvider provider = GetParam();
  Problem p = MakeProblem(5, 3, 128, 90);
  for (std::size_t c = 0; c < 128; ++c) {
    p.w.At(1, c) = (c % 3 == 0 ? 1.0f : -107.0f / 119.0f) * 0.05f;
  }
  const LqqWeights quantized = QuantizeWeightsLqq(p.w);
  const std::size_t gi = 1 * quantized.GroupsPerRow();
  const LqqGroupParams unproven = quantized.group_params()[gi];
  ASSERT_GT(15 * unproven.scale + unproven.offset, 255);
  const LqqWeights wq = RebuildWithGroup(quantized, gi, unproven);
  const MatrixF ref = GemmW4A8Liquid(p.xq, wq, GemmProvider::kReference);
  const MatrixF got = GemmW4A8Liquid(p.xq, wq, provider);
  ExpectBitIdentical(ref, got, provider, "W4A8Liquid-unproven-groups");
}

TEST_P(ProviderParity, W4A8QserveExactOnRaggedShapes) {
  const GemmProvider provider = GetParam();
  const struct { std::size_t m, n, k, group; } shapes[] = {
      {1, 5, 40, 8},
      {3, 33, 72, 24},   // 3 registers per group: pure scalar-tail groups
      {16, 7, 96, 16},
      {4, 12, 256, 128},  // QServe-default group
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 30 + s.k + s.group);
    const QserveWeights wq = QuantizeWeightsQserve(p.w, {s.group});
    const MatrixF ref = GemmW4A8Qserve(p.xq, wq, GemmProvider::kReference);
    const MatrixF got = GemmW4A8Qserve(p.xq, wq, provider);
    ExpectBitIdentical(ref, got, provider, "W4A8Qserve");
  }
}

TEST_P(ProviderParity, W4A8DualMmaExactAndMatchesLinearPath) {
  const GemmProvider provider = GetParam();
  const struct { std::size_t m, n, k; } shapes[] = {
      {3, 64, 128},
      {1, 128, 64},
      {8, 128, 256},
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 40 + s.n + s.k);
    const LqqWeights wq = QuantizeWeightsLqq(p.w);
    const DualMmaPackedWeights packed = PackDualMma(wq);
    const MatrixF ref =
        GemmW4A8LiquidDualMma(p.xq, packed, GemmProvider::kReference);
    const MatrixF got = GemmW4A8LiquidDualMma(p.xq, packed, provider);
    ExpectBitIdentical(ref, got, provider, "W4A8DualMma");
    // The layout proof must hold per provider too: supertile order computes
    // the same GEMM as linear register order.
    const MatrixF linear = GemmW4A8Liquid(p.xq, wq, provider);
    ExpectBitIdentical(linear, got, provider, "W4A8DualMma-vs-linear");
  }
}

TEST_P(ProviderParity, Fp32WithinReorderTolerance) {
  const GemmProvider provider = GetParam();
  const struct { std::size_t m, n, k; } shapes[] = {
      {1, 3, 17}, {5, 9, 130}, {16, 33, 512},
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 50 + s.k);
    const MatrixF ref = GemmReference(p.x, p.w, GemmProvider::kReference);
    const MatrixF got = GemmReference(p.x, p.w, provider);
    EXPECT_LT(RelativeFrobeniusError(ref.Flat(), got.Flat()), kTolReorderFp32)
        << "provider=" << GemmProviderName(provider) << " k=" << s.k;
  }
}

TEST_P(ProviderParity, Fp16WithinReorderTolerance) {
  const GemmProvider provider = GetParam();
  const Problem p = MakeProblem(6, 19, 190, 60);
  const MatrixF ref = GemmFp16(p.x, p.w, GemmProvider::kReference);
  const MatrixF got = GemmFp16(p.x, p.w, provider);
  EXPECT_LT(RelativeFrobeniusError(ref.Flat(), got.Flat()), kTolReorderFp16)
      << "provider=" << GemmProviderName(provider);
}

TEST_P(ProviderParity, W4A16WithinReorderTolerance) {
  const GemmProvider provider = GetParam();
  const struct { std::size_t m, n, k, group; } shapes[] = {
      {3, 5, 36, 6},     // ragged K, tiny group
      {8, 17, 256, 128},
  };
  for (const auto& s : shapes) {
    const Problem p = MakeProblem(s.m, s.n, s.k, 70 + s.k);
    const W4A16Weights wq = QuantizeWeightsW4A16(p.w, s.group);
    const MatrixF ref = GemmW4A16(p.x, wq, GemmProvider::kReference);
    const MatrixF got = GemmW4A16(p.x, wq, provider);
    EXPECT_LT(RelativeFrobeniusError(ref.Flat(), got.Flat()), kTolReorderFp16)
        << "provider=" << GemmProviderName(provider) << " k=" << s.k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProviders, ProviderParity,
    ::testing::ValuesIn(AvailableGemmProviders()),
    // Not named `info`: INSTANTIATE_TEST_SUITE_P expands to a function whose
    // parameter is already called that, and -Wshadow flags the collision.
    [](const ::testing::TestParamInfo<GemmProvider>& param_info) {
      return std::string(GemmProviderName(param_info.param));
    });

}  // namespace
}  // namespace liquid
