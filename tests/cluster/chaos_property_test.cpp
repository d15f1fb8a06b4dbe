// Randomized chaos property test: for many seeds, build a random fleet, a
// random trace, a random kill schedule, random autoscale and SLO configs —
// then assert the fleet-wide conservation law
//
//   completed + dropped + rejected + lost == submitted + retried
//
// holds no matter what dies or gets shed.  Every lost in-flight request
// spawns exactly one retry, so both sides stay balanced even when a retry is
// lost again on a second kill.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "serving/workload.hpp"
#include "util/rng.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec ChaosReplica(std::size_t pool_blocks) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = pool_blocks;
  spec.block_tokens = 16;
  // A small batch keeps replicas saturated so kills catch in-flight work.
  spec.max_batch = 16;
  return spec;
}

struct ChaosScenario {
  RoutePolicy policy = RoutePolicy::kLeastOutstanding;
  AutoscaleConfig autoscale;
  SloConfig slo;
  std::size_t replicas = 2;
  std::size_t pool_blocks = 128;
  std::vector<serving::TimedRequest> trace;
  std::vector<KillEvent> kills;
};

ChaosScenario RandomScenario(std::uint64_t seed) {
  Rng rng(seed);
  ChaosScenario s;
  const RoutePolicy policies[] = {
      RoutePolicy::kRoundRobin, RoutePolicy::kLeastOutstanding,
      RoutePolicy::kLeastKvLoad, RoutePolicy::kSessionAffinity};
  s.policy = policies[rng.Below(4)];
  s.replicas = 2 + static_cast<std::size_t>(rng.Below(3));  // 2..4
  s.pool_blocks = 64 + static_cast<std::size_t>(rng.Below(3)) * 64;

  // Half the scenarios autoscale with one fleet-wide pool, split between
  // the two signals.  Both signals' thresholds are drawn either way, so the
  // rng stream (and with it the trace and kills) does not depend on the pick.
  if (rng.NextDouble() < 0.5) {
    AutoscalePool pool;
    pool.spec = ChaosReplica(s.pool_blocks);
    pool.signal = rng.NextDouble() < 0.5 ? AutoscaleSignal::kQueueDepth
                                         : AutoscaleSignal::kTailTtft;
    const double queue_high = rng.Uniform(3.0, 10.0);
    const double queue_low = rng.Uniform(0.1, 1.0);
    const double ttft_high = rng.Uniform(0.5, 3.0);
    const double ttft_low = rng.Uniform(0.01, 0.2);
    const bool by_queue = pool.signal == AutoscaleSignal::kQueueDepth;
    pool.high = by_queue ? queue_high : ttft_high;
    pool.low = by_queue ? queue_low : ttft_low;
    pool.window_seconds = rng.Uniform(2.0, 15.0);
    pool.max_replicas = 6;
    s.autoscale.cooldown_seconds = rng.Uniform(0.0, 1.0);
    s.autoscale.pools = {pool};
  }
  // Half run SLO admission control with a budget tight enough to trip.
  if (rng.NextDouble() < 0.5) {
    s.slo.ttft_budget = rng.Uniform(0.1, 2.0);
    s.slo.reject_above = rng.Uniform(1.0, 2.0);
  }

  // Offered load swings from comfortable to ~4x overload (a 2..4-replica
  // fleet of these specs retires roughly 35..75 req/s of this mix).
  serving::TraceConfig trace;
  trace.arrival_rate_per_s = rng.Uniform(20.0, 150.0);
  trace.count = 60 + static_cast<std::size_t>(rng.Below(80));
  trace.prompt_min = 128;
  trace.prompt_max = 1024 + static_cast<std::size_t>(rng.Below(1536));
  trace.output_min = 32;
  trace.output_max = 192;
  trace.sessions = 8;
  s.trace = serving::GenerateTrace(trace, seed ^ 0xC0FFEEull);

  const double span =
      s.trace.empty() ? 1.0 : s.trace.back().arrival_seconds + 1.0;
  const std::size_t kills = 1 + rng.Below(3);  // 1..3 abrupt failures
  for (std::size_t k = 0; k < kills; ++k) {
    KillEvent kill;
    kill.time = rng.Uniform(0.05, span * 1.2);  // some land past last arrival
    kill.replica = rng.Below(s.replicas);
    s.kills.push_back(kill);
  }
  return s;
}

void ExpectConservation(const FleetStats& stats, std::uint64_t seed) {
  EXPECT_EQ(stats.completed + stats.dropped + stats.rejected_requests +
                stats.lost_requests,
            stats.submitted + stats.retried_requests)
      << "seed " << seed << ": completed=" << stats.completed
      << " dropped=" << stats.dropped
      << " rejected=" << stats.rejected_requests
      << " lost=" << stats.lost_requests << " submitted=" << stats.submitted
      << " retried=" << stats.retried_requests;
  // A kill's lost requests each spawn exactly one retry.
  EXPECT_EQ(stats.lost_requests, stats.retried_requests) << "seed " << seed;
}

TEST(ChaosPropertyTest, ConservationHoldsAcrossRandomChaos) {
  std::size_t scenarios_with_losses = 0;
  std::size_t scenarios_with_rejections = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const ChaosScenario s = RandomScenario(seed);
    ClusterSimulator sim(s.policy, s.autoscale, s.slo);
    for (std::size_t i = 0; i < s.replicas; ++i) {
      sim.AddReplica(ChaosReplica(s.pool_blocks));
    }
    for (const KillEvent& kill : s.kills) sim.ScheduleKill(kill);
    const FleetStats stats = sim.Run(s.trace);

    EXPECT_EQ(stats.submitted, s.trace.size()) << "seed " << seed;
    ExpectConservation(stats, seed);
    // A scheduled kill can no-op only when its target was already scaled
    // down or killed; at least one should land in almost every scenario.
    EXPECT_LE(stats.killed_replicas, s.kills.size()) << "seed " << seed;
    if (stats.lost_requests > 0) ++scenarios_with_losses;
    if (stats.rejected_requests > 0) ++scenarios_with_rejections;
    // Wasted work only arises from kills, and never exceeds what the fleet
    // generated in total (delivered + wasted).
    if (stats.killed_replicas == 0) {
      EXPECT_DOUBLE_EQ(stats.wasted_tokens, 0.0) << "seed " << seed;
    }
    EXPECT_GE(stats.wasted_tokens, 0.0) << "seed " << seed;
  }
  // The generator is tuned so chaos actually bites in a healthy fraction of
  // scenarios; if these drop to zero the test lost its teeth.
  EXPECT_GT(scenarios_with_losses, 10u);
  EXPECT_GT(scenarios_with_rejections, 5u);
  std::printf("chaos: %zu/60 scenarios lost in-flight work, %zu/60 shed load\n",
              scenarios_with_losses, scenarios_with_rejections);
}

TEST(ChaosPropertyTest, KillingWholeFleetDropsBacklogButConserves) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 2; ++i) sim.AddReplica(ChaosReplica(256));
  serving::TraceConfig config;
  config.arrival_rate_per_s = 100.0;
  config.count = 40;
  config.prompt_min = 256;
  config.prompt_max = 1024;
  config.output_min = 64;
  config.output_max = 192;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, 17);
  // Both replicas die just after the burst lands: everything in flight is
  // lost, retries find no alive replica and drop.
  const double t = trace.back().arrival_seconds + 0.01;
  sim.ScheduleKill({t, 0});
  sim.ScheduleKill({t + 0.001, 1});
  const FleetStats stats = sim.Run(trace);
  EXPECT_EQ(stats.killed_replicas, 2u);
  EXPECT_EQ(stats.replicas_final, 0u);
  ExpectConservation(stats, 17);
  EXPECT_GT(stats.dropped, 0u);  // retries with no fleet left
}

TEST(ChaosPropertyTest, RetriesSurviveKillAndComplete) {
  // One kill, plenty of surviving capacity: lost work is retried and the
  // whole trace still completes (nothing dropped or rejected).
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 3; ++i) sim.AddReplica(ChaosReplica(512));
  serving::TraceConfig config;
  config.arrival_rate_per_s = 80.0;
  config.count = 90;
  config.prompt_min = 256;
  config.prompt_max = 1024;
  config.output_min = 64;
  config.output_max = 192;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, 23);
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, 1});
  const FleetStats stats = sim.Run(trace);
  EXPECT_EQ(stats.killed_replicas, 1u);
  EXPECT_GT(stats.lost_requests, 0u);
  EXPECT_GT(stats.wasted_tokens, 0.0);
  ExpectConservation(stats, 23);
  EXPECT_EQ(stats.completed, stats.submitted);  // every request finishes
  EXPECT_TRUE(stats.replicas[1].killed);
  EXPECT_FALSE(stats.replicas[1].active);
}

}  // namespace
}  // namespace liquid::cluster
