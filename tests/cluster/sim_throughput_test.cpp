// SimThroughputMeter: ClusterSimulator::Run must fill FleetStats with the
// host-side cost of the run.  The work counters (events_processed,
// engine_iterations, fleet_events, sim_seconds) count simulated work and are
// deterministic under a fixed seed; the wall-clock rates merely have to be
// self-consistent.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "serving/workload.hpp"
#include "util/json.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec SmallReplica() {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 1024;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  return spec;
}

std::vector<serving::TimedRequest> SmallTrace() {
  serving::TraceConfig config;
  config.arrival_rate_per_s = 30.0;
  config.count = 48;
  config.prompt_min = 64;
  config.prompt_max = 512;
  config.output_min = 8;
  config.output_max = 32;
  config.sessions = 8;
  return serving::GenerateTrace(config, /*seed=*/11);
}

FleetStats RunSmallFleet() {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  sim.AddReplica(SmallReplica());
  sim.AddReplica(SmallReplica());
  return sim.Run(SmallTrace());
}

TEST(SimThroughputTest, RunFillsTheMeter) {
  const FleetStats stats = RunSmallFleet();
  const SimThroughput& t = stats.sim_throughput;

  EXPECT_GT(t.engine_iterations, 0u);
  EXPECT_GT(t.fleet_events, 0u);
  EXPECT_EQ(t.events_processed, t.engine_iterations + t.fleet_events);
  // Every submitted request is at least one routing decision.
  EXPECT_GE(t.fleet_events, stats.submitted);
  // engine_iterations is the sum of per-replica scheduler iterations.
  std::uint64_t iterations = 0;
  for (const ReplicaReport& r : stats.replicas) {
    iterations += r.stats.iterations;
  }
  EXPECT_EQ(t.engine_iterations, iterations);

  EXPECT_GT(t.sim_seconds, 0.0);
  EXPECT_GT(t.wall_seconds, 0.0);
  EXPECT_GT(t.events_per_sec, 0.0);
  EXPECT_GT(t.sim_seconds_per_wall_second, 0.0);
  EXPECT_GT(t.wall_seconds_per_sim_hour, 0.0);
  // The rates are the counters over the measured wall time.
  EXPECT_NEAR(t.events_per_sec,
              static_cast<double>(t.events_processed) / t.wall_seconds,
              1e-6 * t.events_per_sec);
  EXPECT_NEAR(t.wall_seconds_per_sim_hour,
              t.wall_seconds / (t.sim_seconds / 3600.0),
              1e-6 * t.wall_seconds_per_sim_hour);
}

TEST(SimThroughputTest, WorkCountersAreDeterministic) {
  const FleetStats a = RunSmallFleet();
  const FleetStats b = RunSmallFleet();
  EXPECT_EQ(a.sim_throughput.events_processed,
            b.sim_throughput.events_processed);
  EXPECT_EQ(a.sim_throughput.engine_iterations,
            b.sim_throughput.engine_iterations);
  EXPECT_EQ(a.sim_throughput.fleet_events, b.sim_throughput.fleet_events);
  EXPECT_DOUBLE_EQ(a.sim_throughput.sim_seconds, b.sim_throughput.sim_seconds);
}

TEST(SimThroughputTest, JsonCarriesTheMeter) {
  const FleetStats stats = RunSmallFleet();
  const std::string json = FleetStatsToJson(stats);
  ASSERT_TRUE(JsonSyntaxValid(json));
  EXPECT_NE(json.find("\"sim_throughput\":{"), std::string::npos);
  EXPECT_NE(json.find("\"events_processed\":"), std::string::npos);
  EXPECT_NE(json.find("\"events_per_sec\":"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds_per_sim_hour\":"), std::string::npos);
}

TEST(SimThroughputTest, HandBuiltStatsStayZero) {
  // FinalizeFleetStats does not invent throughput numbers; only Run meters.
  FleetStats stats;
  LatencySamples samples;
  FinalizeFleetStats(samples, stats);
  EXPECT_EQ(stats.sim_throughput.events_processed, 0u);
  EXPECT_EQ(stats.sim_throughput.wall_seconds, 0.0);
}

}  // namespace
}  // namespace liquid::cluster
