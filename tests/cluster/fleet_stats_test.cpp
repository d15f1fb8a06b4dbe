// SummarizePercentiles selects p99, then p95 and p50 below it, in place;
// every result must be the double a separate Percentile call returns.  CheckFleetInvariants names each broken law, and only those; a
// report that breaks several names them all, in the order of the laws.

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
  std::vector<double> scratch = values;
  const PercentileTriple t = SummarizePercentiles(scratch);
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

/// A consistent hand-built report: 10 submitted, 2 lost to a kill (one
/// retried, one over budget), the retry completed, 1 shed, 1 dropped, one
/// scale-up.
FleetStats ConsistentStats() {
  FleetStats s;
  s.submitted = 10;
  s.completed = 7;
  s.dropped = 1;
  s.rejected_requests = 1;
  s.lost_requests = 2;
  s.retried_requests = 1;
  s.retries_exhausted = 1;
  s.wasted_tokens = 12;
  s.scale_ups = 1;
  s.scale_events.push_back(ScaleEvent{});
  s.replicas.resize(2);
  s.replicas[0].billed_seconds = 3;
  s.replicas[1].id = 1;
  return s;
}

using Violations = std::vector<std::string>;

TEST(FleetStatsTest, CheckFleetInvariantsAcceptsConsistentStats) {
  EXPECT_EQ(CheckFleetInvariants(ConsistentStats()), Violations{});
  EXPECT_EQ(CheckFleetInvariants(FleetStats{}), Violations{});
}

TEST(FleetStatsTest, CheckFleetInvariantsNamesEachBrokenLaw) {
  FleetStats s = ConsistentStats();
  ++s.completed;  // a request counted twice
  EXPECT_EQ(CheckFleetInvariants(s),
            Violations{"conservation: completed 8 + dropped 1 + rejected 1 + "
                       "lost 2 = 12 != submitted 10 + retried 1"});

  s = ConsistentStats();
  // A drop recounted as a loss that was neither retried nor exhausted: the
  // totals still balance, the retry budget does not.
  ++s.lost_requests;
  --s.dropped;
  EXPECT_EQ(CheckFleetInvariants(s),
            Violations{"retry budget: lost 3 != retried 1 + "
                       "retries_exhausted 1"});

  s = ConsistentStats();
  s.disagg.in_migration = 2;
  EXPECT_EQ(CheckFleetInvariants(s),
            Violations{"in migration: 2 requests still on the wire"});

  s = ConsistentStats();
  s.scale_downs = 1;
  EXPECT_EQ(CheckFleetInvariants(s),
            Violations{"scale events: scale_ups 1 + scale_downs 1 != 1 "
                       "events"});

  s = ConsistentStats();
  s.wasted_tokens = -1;
  EXPECT_EQ(CheckFleetInvariants(s),
            Violations{"non-negative: wasted_tokens -1"});

  s = ConsistentStats();
  s.replicas[1].billed_seconds = -0.5;
  EXPECT_EQ(CheckFleetInvariants(s),
            Violations{"non-negative: replica 1 billed_seconds -0.5"});
}

TEST(FleetStatsTest, CheckFleetInvariantsReportsEveryBrokenLawInOrder) {
  FleetStats s = ConsistentStats();
  ++s.completed;
  ++s.retries_exhausted;
  s.disagg.in_migration = 1;
  s.scale_events.clear();
  s.wasted_tokens = -2;
  s.replicas[0].billed_seconds = -1;
  s.replicas[1].billed_seconds = -3;
  EXPECT_EQ(CheckFleetInvariants(s),
            (Violations{"conservation: completed 8 + dropped 1 + rejected 1 + "
                        "lost 2 = 12 != submitted 10 + retried 1",
                        "retry budget: lost 2 != retried 1 + "
                        "retries_exhausted 2",
                        "in migration: 1 requests still on the wire",
                        "scale events: scale_ups 1 + scale_downs 0 != 0 "
                        "events",
                        "non-negative: wasted_tokens -2 replica 0 "
                        "billed_seconds -1 replica 1 billed_seconds -3"}));
}

}  // namespace
}  // namespace liquid::cluster
