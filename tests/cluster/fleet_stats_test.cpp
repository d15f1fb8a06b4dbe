// SummarizePercentiles copies its samples once and selects p99, then p95 and
// p50 below it; every result must be the double a separate Percentile call
// returns.

#include "cluster/fleet_stats.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace liquid::cluster {
namespace {

void ExpectBitEqual(const std::vector<double>& values, const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(values.size()));
  const PercentileTriple t = SummarizePercentiles(values);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.p50),
            std::bit_cast<std::uint64_t>(Percentile(values, 50)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.p95),
            std::bit_cast<std::uint64_t>(Percentile(values, 95)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(t.p99),
            std::bit_cast<std::uint64_t>(Percentile(values, 99)));
}

TEST(FleetStatsTest, SummarizePercentilesIsThreePercentileCalls) {
  ExpectBitEqual({}, "empty");
  Rng rng(7);
  for (std::size_t n = 1; n <= 3; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<double> random(n), tied(n);
      for (double& v : random) v = rng.Uniform(0.0, 2.0);
      for (double& v : tied) v = static_cast<double>(rng.Below(2));
      ExpectBitEqual(random, "random");
      ExpectBitEqual(tied, "tied");
    }
  }
  for (const std::size_t n : {4u, 5u, 19u, 20u, 21u, 100u, 101u, 1000u, 4097u}) {
    for (int rep = 0; rep < 5; ++rep) {
      std::vector<double> random(n), tied(n), latency(n);
      for (double& v : random) v = rng.Uniform(-1.0, 1.0);
      // Few distinct values: many ties around every rank.
      for (double& v : tied) v = static_cast<double>(rng.Below(4)) * 0.25;
      // Heavy tail, like the fleet's TTFTs.
      for (double& v : latency) v = 0.01 / (1e-3 + rng.NextDouble());
      ExpectBitEqual(random, "random");
      ExpectBitEqual(tied, "tied");
      ExpectBitEqual(latency, "latency");
    }
  }
}

}  // namespace
}  // namespace liquid::cluster
