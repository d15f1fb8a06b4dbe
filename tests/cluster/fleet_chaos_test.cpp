// Seeded chaos over the fleet's whole configuration space.  Each seed draws,
// independently: a unified fleet or a prefill/decode split (sometimes with a
// unified straggler), a route preset, autoscaling (off, one unified pool, or
// prefill + decode pools; any signal; arrival-driven or ticking; with or
// without shrink stabilization), SLO admission control, a retry budget and
// backoff, the interconnect (glacial links included), chunked prefill on
// prefill replicas, a shared-prefix trace, and 0-3 kills and 0-2 degrades.
// Every run must satisfy CheckFleetInvariants, and the floors at the end
// keep each regime exercised.  Below it: three whole-stats determinism
// checks and three hand-built kill and degrade scenarios.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "serving/workload.hpp"
#include "util/rng.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec ChaosReplica(ReplicaRole role, std::size_t pool_blocks,
                         std::size_t prefill_chunk = 0) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = pool_blocks;
  spec.block_tokens = 16;  // matches the trace's prefix_block_tokens
  // A small batch keeps replicas saturated so kills catch in-flight work.
  spec.max_batch = 16;
  spec.role = role;
  spec.dollars_per_hour = role == ReplicaRole::kPrefill ? 3.0 : 2.0;
  if (role == ReplicaRole::kPrefill) {
    spec.options.prefill_chunk_tokens = prefill_chunk;
  }
  return spec;
}

// Each enum in declaration order, so a value indexes the arrays below and
// the per-value counters.
constexpr std::array<RoutePolicy, 5> kPolicies = {
    RoutePolicy::kRoundRobin, RoutePolicy::kLeastOutstanding,
    RoutePolicy::kLeastKvLoad, RoutePolicy::kSessionAffinity,
    RoutePolicy::kPrefixAware};
constexpr std::array<AutoscaleSignal, 4> kSignals = {
    AutoscaleSignal::kQueueDepth, AutoscaleSignal::kTailTtft,
    AutoscaleSignal::kFreeKv, AutoscaleSignal::kTailTpot};
constexpr std::array<const char*, kSignals.size()> kSignalNames = {
    "queue_depth", "tail_ttft", "free_kv", "tail_tpot"};
/// Per signal: the ranges its high and low thresholds are drawn from (a
/// queue depth, seconds, a used-KV fraction, seconds).
constexpr double kThresholds[kSignals.size()][4] = {
    {3.0, 10.0, 0.1, 1.0},
    {0.3, 3.0, 0.01, 0.2},
    {0.5, 0.9, 0.05, 0.3},
    {0.02, 0.1, 0.005, 0.02}};

struct Scenario {
  RoutePolicy policy = RoutePolicy::kLeastOutstanding;
  AutoscaleConfig autoscale;
  SloConfig slo;
  RetryPolicy retry;
  DisaggConfig disagg;
  std::vector<ReplicaSpec> replicas;
  std::vector<serving::TimedRequest> trace;
  std::vector<KillEvent> kills;
  std::vector<DegradeEvent> degrades;
};

AutoscalePool RandomPool(Rng& rng, ReplicaRole role, const ReplicaSpec& spec) {
  AutoscalePool pool;
  pool.role = role;
  pool.spec = spec;
  const std::size_t g = rng.Below(kSignals.size());
  pool.signal = kSignals[g];
  pool.high = rng.Uniform(kThresholds[g][0], kThresholds[g][1]);
  pool.low = rng.Uniform(kThresholds[g][2], kThresholds[g][3]);
  pool.window_seconds = rng.Uniform(2.0, 15.0);
  pool.min_window_samples = 4;
  pool.max_replicas = 3 + rng.Below(4);  // 3..6
  return pool;
}

Scenario RandomScenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.policy = kPolicies[rng.Below(kPolicies.size())];
  const std::size_t pool_blocks = 64 + rng.Below(6) * 64;  // 64..384
  // Chunked prefill on prefill-role replicas (0 = unchunked).
  const std::size_t chunks[] = {0, 512, 1024, 2048};
  const std::size_t chunk = chunks[rng.Below(4)];
  const ReplicaSpec unified = ChaosReplica(ReplicaRole::kUnified, pool_blocks);
  const ReplicaSpec prefill =
      ChaosReplica(ReplicaRole::kPrefill, pool_blocks, chunk);
  const ReplicaSpec decode = ChaosReplica(ReplicaRole::kDecode, pool_blocks);

  if (rng.NextDouble() < 0.5) {
    const std::size_t n = 2 + rng.Below(3);  // 2..4
    s.replicas.assign(n, unified);
  } else {
    s.replicas.assign(1 + rng.Below(2), prefill);  // 1..2
    const std::size_t decodes = 1 + rng.Below(3);  // 1..3
    s.replicas.insert(s.replicas.end(), decodes, decode);
    if (rng.NextDouble() < 0.3) s.replicas.push_back(unified);  // straggler
  }

  // Autoscaling, independent of the fleet's shape: a unified pool over a
  // split fleet (or role pools over a unified one) first grows to its
  // minimum, which changes the shape mid-run.
  const double autoscale_roll = rng.NextDouble();
  if (autoscale_roll < 1.0 / 3) {
    s.autoscale.pools = {RandomPool(rng, ReplicaRole::kUnified, unified)};
  } else if (autoscale_roll < 2.0 / 3) {
    s.autoscale.pools = {RandomPool(rng, ReplicaRole::kPrefill, prefill),
                         RandomPool(rng, ReplicaRole::kDecode, decode)};
  }
  s.autoscale.cooldown_seconds = rng.Uniform(0.0, 1.0);
  s.autoscale.tick_seconds = rng.NextDouble() < 0.5 ? 0 : rng.Uniform(0.1, 0.5);
  s.autoscale.shrink_stable_seconds =
      rng.NextDouble() < 0.5 ? 0 : rng.Uniform(0.2, 3.0);

  if (rng.NextDouble() < 0.5) {
    s.slo.ttft_budget = rng.Uniform(0.1, 3.0);
    s.slo.reject_above = rng.Uniform(1.0, 2.0);
  }
  // Unlimited, one strike (a second loss exhausts), or two.
  s.retry.max_attempts = static_cast<std::uint32_t>(rng.Below(3));
  if (rng.NextDouble() < 0.5) {
    s.retry.base_backoff_seconds = rng.Uniform(0.05, 0.5);
  }

  // A third of the links are glacial (forcing unified fallback), the rest
  // NVLink-to-Ethernet class.
  s.disagg.interconnect.bandwidth_gb_per_s =
      rng.NextDouble() < 1.0 / 3 ? rng.Uniform(0.001, 0.05)
                                 : rng.Uniform(25.0, 900.0);
  s.disagg.interconnect.prefill_overlap = rng.Uniform(0.0, 0.9);
  s.disagg.interconnect.max_inflight_per_link = 1 + rng.Below(8);
  s.disagg.max_migration_seconds = rng.Uniform(0.05, 1.5);

  // Offered load swings from comfortable to several times overload.
  serving::TraceConfig trace;
  trace.arrival_rate_per_s = rng.Uniform(15.0, 150.0);
  trace.count = 50 + rng.Below(90);
  trace.prompt_min = 128 + rng.Below(2) * 128;
  trace.prompt_max = 1024 + rng.Below(1536);
  trace.output_min = 32;
  trace.output_max = 160 + rng.Below(2) * 32;
  trace.sessions = 8;
  if (rng.NextDouble() < 0.5) {
    trace.shared_prefix_fraction = rng.Uniform(0.25, 0.75);
    trace.prefix_groups = 2 + rng.Below(6);
    trace.prefix_block_tokens = 16;
  }
  s.trace = serving::GenerateTrace(trace, seed ^ 0xC0FFEEull);

  const double span = s.trace.back().arrival_seconds + 1.0;
  const std::size_t kills = rng.Below(4);  // 0..3, some past the last arrival
  for (std::size_t k = 0; k < kills; ++k) {
    s.kills.push_back(
        {rng.Uniform(0.05, span * 1.2), rng.Below(s.replicas.size())});
  }
  const std::size_t degrades = rng.Below(3);  // 0..2
  for (std::size_t d = 0; d < degrades; ++d) {
    s.degrades.push_back({rng.Uniform(0.05, span),
                          rng.Below(s.replicas.size()),
                          rng.Uniform(1.5, 8.0)});
  }
  return s;
}

FleetStats RunScenario(const Scenario& s) {
  ClusterSimulator sim(s.policy, s.autoscale, s.slo, s.retry, s.disagg);
  for (const ReplicaSpec& spec : s.replicas) sim.AddReplica(spec);
  for (const KillEvent& kill : s.kills) sim.ScheduleKill(kill);
  for (const DegradeEvent& degrade : s.degrades) sim.ScheduleDegrade(degrade);
  FleetStats stats = sim.Run(s.trace);
  stats.sim_throughput.ClearWallClock();
  return stats;
}

bool HasRole(const Scenario& s, ReplicaRole role) {
  for (const ReplicaSpec& spec : s.replicas) {
    if (spec.role == role) return true;
  }
  return false;
}

constexpr std::uint64_t kSeeds = 600;
/// A split fleet whose kill lands mid-migration, a shared-prefix trace with
/// degrades and losses, and a ticking autoscaler that grows and shrinks
/// through kills while SLO admission sheds load.
constexpr std::uint64_t kDisaggSeed = 10;
constexpr std::uint64_t kPrefixDegradeSeed = 11;
constexpr std::uint64_t kAutoscaleKillSeed = 15;

TEST(FleetChaosTest, InvariantsHoldAcrossTheConfigSpace) {
  // Seeds in which each regime occurred (totals for target deaths and
  // exhausted retries).
  std::size_t losses = 0, rejections = 0, migrations = 0, fallbacks = 0;
  std::size_t target_deaths = 0, exhausted = 0;
  std::size_t prefix_hits = 0, degrades = 0, scaled = 0;
  // Seeds per preset that lost work to a kill; seeds per signal and per
  // tick mode in which that pool (or fleet) fired a scale event.
  std::array<std::size_t, kPolicies.size()> preset_losses = {};
  std::array<std::size_t, kSignals.size()> signal_scaled = {};
  std::size_t arrival_driven_scaled = 0, ticking_scaled = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Scenario s = RandomScenario(seed);
    const FleetStats stats = RunScenario(s);

    EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{})
        << "seed " << seed;
    EXPECT_EQ(stats.submitted, s.trace.size()) << "seed " << seed;
    // A scheduled kill no-ops only when its target is already gone.
    EXPECT_LE(stats.killed_replicas, s.kills.size()) << "seed " << seed;
    // Only losses and import OOMs waste work; degrades just slow it down.
    if (stats.lost_requests == 0 && stats.disagg.import_ooms == 0) {
      EXPECT_EQ(stats.wasted_tokens, 0.0) << "seed " << seed;
    }
    EXPECT_GE(stats.prefill_tokens_saved, 0.0) << "seed " << seed;
    // Priced replicas make a priced fleet.
    EXPECT_GT(stats.cost_dollars, 0.0) << "seed " << seed;
    if (HasRole(s, ReplicaRole::kPrefill)) {
      EXPECT_GT(stats.prefill_pool_dollars, 0.0) << "seed " << seed;
    }
    if (HasFailure()) return;

    if (stats.lost_requests > 0) {
      ++losses;
      ++preset_losses[static_cast<std::size_t>(s.policy)];
    }
    rejections += stats.rejected_requests > 0 ? 1 : 0;
    migrations += stats.disagg.migrated_requests > 0 ? 1 : 0;
    fallbacks += stats.disagg.local_decode_fallbacks > 0 ? 1 : 0;
    target_deaths += stats.disagg.target_deaths;
    exhausted += stats.retries_exhausted;
    prefix_hits += stats.prefix_hits > 0 ? 1 : 0;
    degrades += stats.degraded_replicas > 0 ? 1 : 0;
    if (!stats.scale_events.empty()) {
      ++scaled;
      ++(s.autoscale.tick_seconds > 0 ? ticking_scaled
                                      : arrival_driven_scaled);
    }
    for (const AutoscalePool& pool : s.autoscale.pools) {
      bool fired = false;
      for (const ScaleEvent& e : stats.scale_events) {
        fired = fired || e.role == pool.role;
      }
      if (fired) ++signal_scaled[static_cast<std::size_t>(pool.signal)];
    }
  }
  std::printf(
      "fleet chaos over %llu seeds: %zu lost work, %zu shed load, %zu "
      "migrated, %zu fell back, %zu target deaths, %zu retries exhausted, "
      "%zu hit prefixes, %zu degraded, %zu scaled (%zu arrival-driven, %zu "
      "ticking)\n",
      static_cast<unsigned long long>(kSeeds), losses, rejections, migrations,
      fallbacks, target_deaths, exhausted, prefix_hits, degrades, scaled,
      arrival_driven_scaled, ticking_scaled);
  // Each floor is about half the count measured when it was set: if one
  // falls below it, the generator stopped reaching that regime.
  EXPECT_GE(losses, 140u);
  EXPECT_GE(rejections, 60u);
  EXPECT_GE(migrations, 150u);
  EXPECT_GE(fallbacks, 70u);
  EXPECT_GE(target_deaths, 28u);
  EXPECT_GE(exhausted, 50u);
  EXPECT_GE(prefix_hits, 150u);
  EXPECT_GE(degrades, 175u);
  EXPECT_GE(scaled, 160u);
  EXPECT_GE(arrival_driven_scaled, 75u);
  EXPECT_GE(ticking_scaled, 85u);
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    std::printf("  %s: %zu lost work\n", ToString(kPolicies[p]),
                preset_losses[p]);
    EXPECT_GE(preset_losses[p], 26u) << ToString(kPolicies[p]);
  }
  for (std::size_t g = 0; g < kSignals.size(); ++g) {
    std::printf("  %s: %zu scaled\n", kSignalNames[g], signal_scaled[g]);
    EXPECT_GE(signal_scaled[g], 48u) << kSignalNames[g];
  }
}

/// Runs a seed twice; the two whole reports must match byte for byte.
FleetStats ExpectDeterministic(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Scenario s = RandomScenario(seed);
  const FleetStats a = RunScenario(s);
  EXPECT_EQ(FleetStatsToJson(a), FleetStatsToJson(RunScenario(s)));
  return a;
}

TEST(FleetChaosTest, DisaggSeedIsDeterministic) {
  const FleetStats s = ExpectDeterministic(kDisaggSeed);
  EXPECT_GT(s.disagg.migrated_requests, 0u);
  EXPECT_GT(s.disagg.target_deaths, 0u);
}

TEST(FleetChaosTest, PrefixDegradeSeedIsDeterministic) {
  const FleetStats s = ExpectDeterministic(kPrefixDegradeSeed);
  EXPECT_GT(s.prefix_hits, 0u);
  EXPECT_GT(s.degraded_replicas, 0u);
  EXPECT_GT(s.lost_requests, 0u);
}

TEST(FleetChaosTest, AutoscaleKillSeedIsDeterministic) {
  ASSERT_GT(RandomScenario(kAutoscaleKillSeed).autoscale.tick_seconds, 0.0);
  const FleetStats s = ExpectDeterministic(kAutoscaleKillSeed);
  EXPECT_GT(s.scale_ups, 0u);
  EXPECT_GT(s.scale_downs, 0u);
  EXPECT_GT(s.lost_requests, 0u);
  EXPECT_GT(s.rejected_requests, 0u);
}

TEST(FleetChaosTest, KillingWholeFleetDropsBacklogButConserves) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 2; ++i) {
    sim.AddReplica(ChaosReplica(ReplicaRole::kUnified, 256));
  }
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
  EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{});
  EXPECT_GT(stats.dropped, 0u);  // retries with no fleet left
}

TEST(FleetChaosTest, RetriesSurviveKillAndComplete) {
  // One kill, plenty of surviving capacity: lost work is retried and the
  // whole trace still completes (nothing dropped or rejected).
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 3; ++i) {
    sim.AddReplica(ChaosReplica(ReplicaRole::kUnified, 512));
  }
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
  EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{});
  EXPECT_EQ(stats.completed, stats.submitted);  // every request finishes
  EXPECT_TRUE(stats.replicas[1].killed);
  EXPECT_FALSE(stats.replicas[1].active);
}

TEST(FleetChaosTest, DegradedReplicaSlowsButLosesNothing) {
  // One replica, degraded 2x up front: everything completes — later.
  serving::TraceConfig config;
  config.arrival_rate_per_s = 20.0;
  config.count = 30;
  config.prompt_min = 256;
  config.prompt_max = 1024;
  config.output_min = 32;
  config.output_max = 96;
  const auto trace = serving::GenerateTrace(config, 5);

  const auto run = [&](double slowdown) {
    ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
    sim.AddReplica(ChaosReplica(ReplicaRole::kUnified, 1024));
    if (slowdown > 1.0) {
      EXPECT_TRUE(sim.DegradeReplica(0, slowdown));
    }
    return sim.Run(trace);
  };
  const FleetStats fast = run(1.0);
  const FleetStats slow = run(2.0);
  EXPECT_EQ(slow.completed, fast.completed);
  EXPECT_EQ(slow.completed, trace.size());
  EXPECT_EQ(slow.degraded_replicas, 1u);
  EXPECT_EQ(fast.degraded_replicas, 0u);
  EXPECT_GT(slow.span_seconds, fast.span_seconds);
  EXPECT_GT(slow.ttft.p99, fast.ttft.p99);

  // Unknown and inactive replicas are rejected.
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  sim.AddReplica(ChaosReplica(ReplicaRole::kUnified, 256));
  EXPECT_FALSE(sim.DegradeReplica(5, 2.0));
}

}  // namespace
}  // namespace liquid::cluster
