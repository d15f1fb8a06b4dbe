#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

namespace liquid {
namespace {

TEST(StatsTest, SummaryBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Summary s = Summarize(std::span<const double>(v));
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(StatsTest, SummaryEmpty) {
  const Summary s = Summarize(std::span<const double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 12.5), 15.0);
}

// Selection must read exactly the two order statistics a full sort puts at
// the interpolation ranks, ties and duplicates included.
TEST(StatsTest, PercentileMatchesSortedDefinition) {
  std::mt19937_64 rng(5);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 101u, 1000u}) {
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(rng() % 64) * 0.25;
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 1.0, 12.5, 50.0, 95.0, 99.0, 99.9, 100.0}) {
      const double rank = (p / 100.0) * static_cast<double>(n - 1);
      const std::size_t lo = static_cast<std::size_t>(rank);
      const std::size_t hi = std::min(lo + 1, n - 1);
      const double frac = rank - static_cast<double>(lo);
      const double expected = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
      EXPECT_EQ(Percentile(v, p), expected) << "n=" << n << " p=" << p;
      std::vector<double> scratch = v;
      EXPECT_EQ(PercentileInPlace(scratch, p), expected)
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(StatsTest, PercentilesInPlaceMatchesOneCallPerRank) {
  // Ranks in non-increasing order, including repeats and the clamped ends:
  // each result is the double PercentileInPlace returns on its own copy.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  const std::vector<double> ranks{150, 100, 99.9, 99, 99, 75, 50, 50, 1, 0, -5};
  for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 501u}) {
    std::vector<double> values(n);
    for (double& v : values) v = uniform(rng);
    std::vector<double> scratch = values;
    std::vector<double> out(ranks.size());
    PercentilesInPlace(scratch, ranks, out);
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(out[i], Percentile(values, ranks[i]))
          << "n=" << n << " p=" << ranks[i];
    }
  }
  std::vector<double> out(2, -1.0);
  const std::vector<double> two{99, 50};
  PercentilesInPlace({}, two, out);
  EXPECT_EQ(out, (std::vector<double>{0.0, 0.0}));
}

TEST(StatsTest, MseAndSqnr) {
  const std::vector<float> ref{1.0f, -1.0f, 1.0f, -1.0f};
  const std::vector<float> rec{1.1f, -0.9f, 1.1f, -0.9f};
  EXPECT_NEAR(MeanSquaredError(ref, rec), 0.01, 1e-6);
  // Signal power 1, noise 0.01 -> 20 dB.
  EXPECT_NEAR(SignalToQuantNoiseDb(ref, rec), 20.0, 1e-3);
  EXPECT_NEAR(MaxAbsError(ref, rec), 0.1, 1e-6);
}

TEST(StatsTest, PerfectReconstructionIsInfiniteSqnr) {
  const std::vector<float> ref{1.0f, 2.0f};
  EXPECT_TRUE(std::isinf(SignalToQuantNoiseDb(ref, ref)));
  EXPECT_DOUBLE_EQ(RelativeFrobeniusError(ref, ref), 0.0);
}

TEST(StatsTest, RelativeFrobenius) {
  const std::vector<float> ref{3.0f, 4.0f};  // norm 5
  const std::vector<float> rec{3.0f, 3.0f};  // error norm 1
  EXPECT_NEAR(RelativeFrobeniusError(ref, rec), 0.2, 1e-6);
}

TEST(StatsTest, GeometricMean) {
  const std::vector<double> v{1.0, 4.0};
  EXPECT_NEAR(GeometricMean(v), 2.0, 1e-12);
  const std::vector<double> ones{1.0, 1.0, 1.0};
  EXPECT_NEAR(GeometricMean(ones), 1.0, 1e-12);
}

}  // namespace
}  // namespace liquid
