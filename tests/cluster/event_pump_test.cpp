// The event pump steps a replica only when its horizon is due or the fleet
// touches it; attaching a TraceRecorder makes every horizon -infinity, so
// the same fleet then steps every replica at every event.  Over seeded
// fleets the two runs must agree on the whole FleetStats, per-replica stats
// included: the lazy pump is an optimization, not a model change.  The
// fleets cover kills, degrades and backoff retries on 16-64 unified
// replicas, a disaggregated fleet losing a decode replica mid-migration,
// every route policy, and a kill scheduled after the last arrival.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/trace_recorder.hpp"
#include "serving/workload.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec Spec(ReplicaRole role, std::size_t kv_blocks = 4096) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = kv_blocks;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  if (role == ReplicaRole::kPrefill) spec.options.prefill_chunk_tokens = 2048;
  spec.dollars_per_hour = 2.2;
  return spec;
}

/// A fleet and its trace, built the same way for both runs.
struct Fleet {
  RoutePolicy policy = RoutePolicy::kLeastOutstanding;
  RetryPolicy retry = {};
  DisaggConfig disagg = {};
  std::vector<ReplicaSpec> replicas;
  std::vector<KillEvent> kills;
  std::vector<DegradeEvent> degrades;
  std::vector<serving::TimedRequest> trace;
};

FleetStats RunFleet(const Fleet& f, obs::TraceRecorder* recorder) {
  ClusterSimulator sim(f.policy, {}, {}, f.retry, f.disagg);
  for (const ReplicaSpec& spec : f.replicas) sim.AddReplica(spec);
  for (const KillEvent& kill : f.kills) sim.ScheduleKill(kill);
  for (const DegradeEvent& degrade : f.degrades) sim.ScheduleDegrade(degrade);
  sim.AttachTelemetry(recorder, nullptr);
  FleetStats stats = sim.Run(f.trace);
  stats.sim_throughput.ClearWallClock();
  return stats;
}

/// Runs the fleet lazily and eagerly and compares everything FleetStats
/// reports; returns the lazy run's stats for coverage checks.
FleetStats ExpectLazyMatchesEager(const Fleet& f, const std::string& where) {
  SCOPED_TRACE(where);
  const FleetStats lazy = RunFleet(f, nullptr);
  obs::TraceRecorder recorder;
  const FleetStats eager = RunFleet(f, &recorder);
  EXPECT_FALSE(recorder.empty());
  EXPECT_EQ(FleetStatsToJson(lazy), FleetStatsToJson(eager));
  EXPECT_EQ(CheckFleetInvariants(lazy), std::vector<std::string>{});
  // Clocks and busy time are not in the JSON; the end-of-run step must
  // leave every replica where a step at every event would.
  EXPECT_EQ(lazy.replicas.size(), eager.replicas.size());
  for (std::size_t i = 0;
       i < lazy.replicas.size() && i < eager.replicas.size(); ++i) {
    const serving::SchedulerStats& a = lazy.replicas[i].stats;
    const serving::SchedulerStats& b = eager.replicas[i].stats;
    EXPECT_EQ(a.simulated_seconds, b.simulated_seconds) << "replica " << i;
    EXPECT_EQ(a.busy_seconds, b.busy_seconds) << "replica " << i;
    EXPECT_EQ(a.generated_tokens, b.generated_tokens) << "replica " << i;
  }
  return lazy;
}

serving::TraceConfig ShortMix(double rate, std::size_t count) {
  serving::TraceConfig t;
  t.arrival_rate_per_s = rate;
  t.count = count;
  t.prompt_min = 128;
  t.prompt_max = 1024;
  t.output_min = 16;
  t.output_max = 96;
  t.sessions = 64;
  return t;
}

TEST(EventPumpTest, UnifiedChaosFleetsMatchTheEagerPump) {
  std::size_t lost = 0, retried = 0, degraded = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fleet f;
    const std::size_t n = 16 + (seed * 29) % 49;  // 16..64 replicas
    for (std::size_t i = 0; i < n; ++i) {
      f.replicas.push_back(Spec(ReplicaRole::kUnified));
    }
    f.retry = RetryPolicy{3, 0.05};
    f.trace = serving::GenerateTrace(
        ShortMix(20.0 * static_cast<double>(n), 40 * n), 100 + seed);
    const double span = f.trace.back().arrival_seconds;
    f.degrades = {{0.25 * span, seed % n, 2.0}, {0.5 * span, (3 * seed) % n, 3.0}};
    f.kills = {{span / 3.0, (5 * seed) % n}, {2.0 * span / 3.0, (7 * seed + 1) % n}};
    const FleetStats s =
        ExpectLazyMatchesEager(f, "unified seed " + std::to_string(seed));
    if (HasFailure()) return;
    lost += s.lost_requests;
    retried += s.retried_requests;
    degraded += s.degraded_replicas;
  }
  // The chaos paths ran: kills lost work, retries re-routed it after a
  // backoff, and degrades slowed live replicas.
  EXPECT_GT(lost, 0u);
  EXPECT_GT(retried, 0u);
  EXPECT_GT(degraded, 0u);
}

TEST(EventPumpTest, DisaggFleetLosingADecodeReplicaMidMigration) {
  std::size_t target_deaths = 0, migrated = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Fleet f;
    for (int i = 0; i < 2; ++i) f.replicas.push_back(Spec(ReplicaRole::kPrefill));
    for (int i = 0; i < 4; ++i) f.replicas.push_back(Spec(ReplicaRole::kDecode));
    // A slow link keeps transfers on the wire long enough for the kill to
    // catch some of them.
    f.disagg.interconnect.bandwidth_gb_per_s = 5.0;
    f.disagg.max_migration_seconds = 1.0;
    f.retry = RetryPolicy{3, 0.05};
    serving::TraceConfig t;
    t.arrival_rate_per_s = 24.0;
    t.count = 240;
    t.prompt_min = 1024;
    t.prompt_max = 4096;
    t.output_min = 32;
    t.output_max = 128;
    t.sessions = 32;
    f.trace = serving::GenerateTrace(t, 200 + seed);
    const double span = f.trace.back().arrival_seconds;
    f.kills = {{0.5 * span, 2 + seed % 4}};
    f.degrades = {{0.3 * span, 2 + (seed + 1) % 4, 2.0}};
    const FleetStats s =
        ExpectLazyMatchesEager(f, "disagg seed " + std::to_string(seed));
    if (HasFailure()) return;
    target_deaths += s.disagg.target_deaths;
    migrated += s.disagg.migrated_requests;
  }
  EXPECT_GT(migrated, 0u);
  EXPECT_GT(target_deaths, 0u);  // the kill landed mid-migration
}

TEST(EventPumpTest, EveryRoutePolicyMatchesTheEagerPump) {
  for (const RoutePolicy policy :
       {RoutePolicy::kRoundRobin, RoutePolicy::kLeastOutstanding,
        RoutePolicy::kLeastKvLoad, RoutePolicy::kSessionAffinity,
        RoutePolicy::kPrefixAware}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Fleet f;
      f.policy = policy;
      // A small pool preempts, so runs also end where the free list does.
      for (int i = 0; i < 8; ++i) {
        f.replicas.push_back(Spec(ReplicaRole::kUnified, 160));
      }
      serving::TraceConfig t = ShortMix(160.0, 400);
      t.shared_prefix_fraction = 0.5;
      t.prefix_groups = 4;
      f.trace = serving::GenerateTrace(t, 300 + seed);
      ExpectLazyMatchesEager(f, std::string(ToString(policy)) + " seed " +
                                    std::to_string(seed));
      if (HasFailure()) return;
    }
  }
}

TEST(EventPumpTest, KillAfterTheLastArrival) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Fleet f;
    for (int i = 0; i < 16; ++i) f.replicas.push_back(Spec(ReplicaRole::kUnified));
    f.retry = RetryPolicy{2, 0.02};
    f.trace = serving::GenerateTrace(ShortMix(400.0, 600), 400 + seed);
    const double last = f.trace.back().arrival_seconds;
    // The fleet is still working off its backlog, so there is work to lose.
    f.kills = {{last + 0.01, seed % 16}};
    const FleetStats s =
        ExpectLazyMatchesEager(f, "late kill seed " + std::to_string(seed));
    if (HasFailure()) return;
    EXPECT_EQ(s.killed_replicas, 1u);
  }
}

}  // namespace
}  // namespace liquid::cluster
