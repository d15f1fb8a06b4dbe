// Same seed + same kill schedule ⇒ byte-identical FleetStats, plus a
// golden-value pin of the canonical chaos trace so silent behavior drift
// (a changed routing tie-break, a reordered retry, a tweaked TTFT predictor)
// fails CI instead of slipping through.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "serving/workload.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec CanonicalReplica() {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 512;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  return spec;
}

/// The canonical chaos episode: 3 replicas, 2× overload-ish trace, one kill
/// mid-run and one late, tail-latency autoscaling, and a tight TTFT SLO.
FleetStats RunCanonicalChaos() {
  AutoscalePool pool;  // one fleet-wide pool over the unified replicas
  pool.spec = CanonicalReplica();
  pool.signal = AutoscaleSignal::kTailTtft;
  pool.high = 1.0;
  pool.low = 0.001;  // effectively never scale down: the kills are this
                     // episode's shrink events
  pool.window_seconds = 5.0;
  pool.min_window_samples = 8;
  pool.max_replicas = 5;
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 0.5;
  autoscale.pools = {pool};
  SloConfig slo;
  slo.ttft_budget = 2.0;
  slo.reject_above = 1.0;

  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, slo);
  for (int i = 0; i < 3; ++i) sim.AddReplica(CanonicalReplica());

  // ~2x the 3-replica fleet's capacity for this mix, sustained long enough
  // (~3.6s of arrivals vs ~0.5s to first completions) that the TTFT window
  // fills while routing decisions are still being made: queues build, the
  // SLO sheds load, the autoscaler reacts, and the kills catch plenty of
  // in-flight work.
  serving::TraceConfig config;
  config.arrival_rate_per_s = 110.0;
  config.count = 400;
  config.prompt_min = 256;
  config.prompt_max = 2048;
  config.output_min = 64;
  config.output_max = 256;
  config.sessions = 12;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, /*seed=*/4242);

  const double mid = trace[trace.size() / 2].arrival_seconds;
  sim.ScheduleKill({mid, 1});
  sim.ScheduleKill({trace.back().arrival_seconds + 0.25, 0});
  return sim.Run(trace);
}

TEST(ChaosDeterminismTest, SameSeedSameKillsByteIdenticalStats) {
  FleetStats a = RunCanonicalChaos();
  FleetStats b = RunCanonicalChaos();
  a.sim_throughput.ClearWallClock();
  b.sim_throughput.ClearWallClock();
  EXPECT_EQ(FleetStatsToJson(a), FleetStatsToJson(b));
}

TEST(ChaosDeterminismTest, CanonicalTraceGoldenValues) {
  const FleetStats s = RunCanonicalChaos();
  // The fleet's invariants before pinning anything.
  ASSERT_EQ(CheckFleetInvariants(s), std::vector<std::string>{});
  std::printf(
      "canonical chaos: completed=%zu dropped=%zu rejected=%zu lost=%zu "
      "retried=%zu killed=%zu scale_ups=%zu wasted=%.17g ttft_p99=%.17g\n",
      s.completed, s.dropped, s.rejected_requests, s.lost_requests,
      s.retried_requests, s.killed_replicas, s.scale_ups, s.wasted_tokens,
      s.ttft.p99);

  // Golden values for the canonical episode.  These pin observable chaos
  // behavior: if an intentional change shifts them, re-run this test and
  // update the literals alongside the change that caused it.
  EXPECT_EQ(s.submitted, 400u);
  EXPECT_EQ(s.killed_replicas, 2u);
  EXPECT_EQ(s.completed, 367u);
  EXPECT_EQ(s.rejected_requests, 33u);
  EXPECT_EQ(s.lost_requests, 78u);
  EXPECT_GT(s.scale_ups, 0u);
  EXPECT_DOUBLE_EQ(s.wasted_tokens, 1007.0);
  EXPECT_DOUBLE_EQ(s.ttft.p99, 3.7262258421050749);
}

}  // namespace
}  // namespace liquid::cluster
