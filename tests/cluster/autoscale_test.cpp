// Role-typed, cost-aware autoscaling tests, including the regressions this
// subsystem was built around:
//  - the autoscaler used to be arrival-driven only, so a post-burst fleet
//    never scaled down and billed peak-fleet $/hour across the drain tail;
//  - scale-up used to clone the FIRST added spec, so a decode-bound disagg
//    fleet grew another prefill replica;
//  - the scale-down victim scan could retire the last replica of a role;
//  - the kQueueDepth denominator counted fully degraded replicas at full
//    capacity, masking overload.
// Plus the determinism golden for the scale-event sequence.  Autoscaling
// under kills and degrades is sampled in fleet_chaos_test.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "serving/workload.hpp"
#include "util/rng.hpp"

namespace liquid::cluster {
namespace {

using serving::TimedRequest;
using serving::TraceConfig;

ReplicaSpec Spec(ReplicaRole role, std::size_t pool_blocks = 512,
                 std::size_t max_batch = 16) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = pool_blocks;
  spec.block_tokens = 16;
  spec.max_batch = max_batch;
  spec.role = role;
  spec.dollars_per_hour = role == ReplicaRole::kPrefill ? 2.8 : 2.2;
  if (role == ReplicaRole::kPrefill) {
    spec.options.prefill_chunk_tokens = 2048;
  }
  return spec;
}

std::vector<TimedRequest> Burst(std::size_t count, std::uint64_t seed,
                                double rate, std::size_t prompt_min = 256,
                                std::size_t prompt_max = 2048,
                                std::size_t output_min = 64,
                                std::size_t output_max = 256) {
  TraceConfig config;
  config.arrival_rate_per_s = rate;
  config.count = count;
  config.prompt_min = prompt_min;
  config.prompt_max = prompt_max;
  config.output_min = output_min;
  config.output_max = output_max;
  config.sessions = 8;
  return serving::GenerateTrace(config, seed);
}

// --- Bugfix 1: the autoscaler only woke on arrivals -------------------------

AutoscaleConfig DrainTailConfig(double tick_seconds) {
  AutoscalePool pool;
  pool.spec = Spec(ReplicaRole::kUnified);
  pool.signal = AutoscaleSignal::kQueueDepth;
  pool.high = 4.0;
  pool.low = 0.5;
  pool.min_replicas = 1;
  pool.max_replicas = 6;
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 0.05;
  autoscale.tick_seconds = tick_seconds;
  autoscale.pools = {pool};
  return autoscale;
}

FleetStats RunDrainTail(double tick_seconds) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding,
                       DrainTailConfig(tick_seconds));
  sim.AddReplica(Spec(ReplicaRole::kUnified));
  // A hard burst, then a long idle tail closed by one straggler 60 s later:
  // with the legacy arrival-driven autoscaler nothing runs between the last
  // burst arrival and the straggler, so the scaled-up fleet burns $/hour
  // across the whole tail.
  std::vector<TimedRequest> trace = Burst(120, /*seed=*/5, /*rate=*/500.0);
  TimedRequest straggler;
  straggler.id = 100000;
  straggler.arrival_seconds = trace.back().arrival_seconds + 60.0;
  straggler.prompt_tokens = 128;
  straggler.max_new_tokens = 16;
  trace.push_back(straggler);
  return sim.Run(trace);
}

TEST(AutoscaleTest, DrainTailScalesBackToMinReplicas) {
  const FleetStats ticked = RunDrainTail(/*tick_seconds=*/0.2);
  EXPECT_GT(ticked.scale_ups, 0u);
  EXPECT_GT(ticked.scale_downs, 0u);
  EXPECT_EQ(ticked.replicas_final, 1u);  // back to min_replicas
  EXPECT_EQ(CheckFleetInvariants(ticked), std::vector<std::string>{});

  // The legacy arrival-driven config (tick_seconds = 0) is preserved for
  // golden compatibility — and demonstrates the bug: the fleet holds peak
  // size across the idle tail (at most the straggler's own arrival can
  // trigger a single late scale-down).
  const FleetStats legacy = RunDrainTail(/*tick_seconds=*/0);
  EXPECT_LE(legacy.scale_downs, 1u);
  EXPECT_GT(legacy.replicas_final, 1u);
  EXPECT_EQ(CheckFleetInvariants(legacy), std::vector<std::string>{});

  // And the $ total reflects the fix: retired replicas stop billing, so the
  // tail is no longer paid for at peak-fleet rates.
  EXPECT_GT(ticked.cost_dollars, 0.0);
  EXPECT_LT(ticked.cost_dollars, 0.5 * legacy.cost_dollars);
}

TEST(AutoscaleTest, AbstainingWindowedSignalCannotWedgeTheTickLoop) {
  // Regression: a pending stabilized shrink (shrink_stable_seconds longer
  // than the TTFT window) whose signal then ABSTAINS (window drained below
  // min_window_samples) used to leave the pending flag stuck, so the
  // periodic tick never disarmed and Run() span forever.  Terminating at
  // all is the assertion.
  AutoscalePool pool;
  pool.spec = Spec(ReplicaRole::kUnified);
  pool.signal = AutoscaleSignal::kTailTtft;
  pool.high = 1e9;
  pool.low = 10.0;  // everything reads "low": shrink desired
  pool.window_seconds = 2.0;
  pool.min_window_samples = 2;
  AutoscaleConfig autoscale;
  autoscale.pools = {pool};
  autoscale.cooldown_seconds = 0.1;
  autoscale.tick_seconds = 0.25;
  autoscale.shrink_stable_seconds = 30.0;  // longer than the window drains
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale);
  sim.AddReplica(Spec(ReplicaRole::kUnified));
  sim.AddReplica(Spec(ReplicaRole::kUnified));
  const FleetStats stats = sim.Run(Burst(5, /*seed=*/41, /*rate=*/5.0));
  EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{});
  EXPECT_EQ(stats.scale_downs, 0u);  // never stabilized, and never hung
  EXPECT_EQ(stats.replicas_final, 2u);
}

TEST(AutoscaleTest, UnifiedPoolRegrowsAfterEveryReplicaIsKilled) {
  // A fleet-wide pool below min_replicas grows regardless of its signal —
  // including from zero, after every replica it governed has died.
  AutoscalePool pool;
  pool.spec = Spec(ReplicaRole::kUnified);
  pool.high = 1e9;  // the signal never asks for anything: only the min does
  pool.low = -1.0;
  pool.min_replicas = 2;
  pool.max_replicas = 4;
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 0;
  autoscale.pools = {pool};
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale);
  sim.AddReplica(Spec(ReplicaRole::kUnified));
  sim.AddReplica(Spec(ReplicaRole::kUnified));
  const std::vector<TimedRequest> trace = Burst(60, /*seed=*/17, /*rate=*/20.0);
  const double kill_at = trace[trace.size() / 3].arrival_seconds;
  sim.ScheduleKill({kill_at, /*replica=*/0});
  sim.ScheduleKill({kill_at, /*replica=*/1});
  const FleetStats stats = sim.Run(trace);

  EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{});
  EXPECT_EQ(stats.killed_replicas, 2u);
  // The kill that leaves no replica regrows one before its lost requests
  // re-route, so none of them drops into an empty fleet.
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.scale_ups, 2u);
  for (const ScaleEvent& e : stats.scale_events) {
    EXPECT_TRUE(e.up);
    EXPECT_GE(e.time, kill_at);
  }
  EXPECT_EQ(stats.replicas_final, 2u);  // back to min_replicas
  // The arrivals after the kills complete on the regrown replicas.
  ASSERT_EQ(stats.replicas.size(), 4u);
  std::size_t regrown_completed = 0;
  for (std::size_t id = 2; id < 4; ++id) {
    EXPECT_TRUE(stats.replicas[id].active);
    regrown_completed += stats.replicas[id].stats.completed;
  }
  EXPECT_GE(regrown_completed,
            static_cast<std::size_t>(std::count_if(
                trace.begin(), trace.end(), [&](const TimedRequest& r) {
                  return r.arrival_seconds > kill_at;
                })));
}

// --- Bugfix 2: role-blind scale-up / scale-down -----------------------------

TEST(AutoscaleTest, DecodeBoundFleetGrowsDecodePoolNotFirstSpec) {
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 0.05;
  autoscale.tick_seconds = 0.1;
  AutoscalePool prefill_pool;
  prefill_pool.role = ReplicaRole::kPrefill;
  prefill_pool.spec = Spec(ReplicaRole::kPrefill);
  prefill_pool.signal = AutoscaleSignal::kQueueDepth;
  prefill_pool.high = 1e9;  // never hot in this test
  prefill_pool.low = -1.0;  // never shrinks either
  prefill_pool.min_replicas = 1;
  prefill_pool.max_replicas = 2;
  AutoscalePool decode_pool;
  decode_pool.role = ReplicaRole::kDecode;
  decode_pool.spec = Spec(ReplicaRole::kDecode);
  decode_pool.signal = AutoscaleSignal::kQueueDepth;
  decode_pool.high = 2.0;
  decode_pool.low = -1.0;
  decode_pool.min_replicas = 2;
  decode_pool.max_replicas = 5;
  autoscale.pools = {prefill_pool, decode_pool};

  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.5;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, {}, {},
                       disagg);
  // The PREFILL spec is added first: the legacy autoscaler would have cloned
  // it no matter which pool hurt.
  sim.AddReplica(Spec(ReplicaRole::kPrefill));
  sim.AddReplica(Spec(ReplicaRole::kDecode));
  sim.AddReplica(Spec(ReplicaRole::kDecode));
  // The chunked prefill spec and the decode spec price steps differently.
  ASSERT_EQ(sim.EngineCount(), 2u);

  // Decode-bound mix: short prompts, long outputs — continuations pile up
  // on the decode pool while the prefill replica stays nearly idle.
  const FleetStats stats =
      sim.Run(Burst(80, /*seed=*/11, /*rate=*/60.0, /*prompt_min=*/64,
                    /*prompt_max=*/128, /*output_min=*/256,
                    /*output_max=*/512));
  EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{});
  EXPECT_GT(stats.scale_ups, 0u);
  for (const ScaleEvent& e : stats.scale_events) {
    if (e.up) {
      EXPECT_EQ(e.role, ReplicaRole::kDecode);
    }
  }
  // The grown capacity is decode capacity; the prefill pool held its size.
  std::size_t prefill_total = 0, decode_total = 0;
  for (const ReplicaReport& r : stats.replicas) {
    prefill_total += r.role == ReplicaRole::kPrefill ? 1 : 0;
    decode_total += r.role == ReplicaRole::kDecode ? 1 : 0;
  }
  EXPECT_EQ(prefill_total, 1u);
  EXPECT_GT(decode_total, 2u);
  // Every scale-up reused the decode pool's warm engine.
  EXPECT_EQ(sim.EngineCount(), 2u);
}

TEST(AutoscaleTest, VictimScanNeverRetiresLastReplicaOfARole) {
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 0.05;
  autoscale.tick_seconds = 0.2;
  AutoscalePool prefill_pool;
  prefill_pool.role = ReplicaRole::kPrefill;
  prefill_pool.spec = Spec(ReplicaRole::kPrefill);
  prefill_pool.signal = AutoscaleSignal::kQueueDepth;
  prefill_pool.high = 1e9;
  prefill_pool.low = 0.5;
  prefill_pool.min_replicas = 0;  // the ROLE GUARD, not min, must save it
  AutoscalePool decode_pool = prefill_pool;
  decode_pool.role = ReplicaRole::kDecode;
  decode_pool.spec = Spec(ReplicaRole::kDecode);
  autoscale.pools = {prefill_pool, decode_pool};

  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, {}, {},
                       disagg);
  sim.AddReplica(Spec(ReplicaRole::kPrefill));
  sim.AddReplica(Spec(ReplicaRole::kDecode));
  sim.AddReplica(Spec(ReplicaRole::kDecode));

  // A slow trickle keeps every queue near zero: both pools signal shrink
  // the whole run.
  const FleetStats stats = sim.Run(Burst(12, /*seed=*/23, /*rate=*/0.5));
  EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{});
  EXPECT_GT(stats.scale_downs, 0u);  // the spare decode replica retired
  EXPECT_EQ(stats.replicas_final, 2u);
  EXPECT_EQ(stats.disagg.prefill_replicas, 1u);
  EXPECT_EQ(stats.disagg.decode_replicas, 1u);
}

TEST(AutoscaleTest, CostAwareShrinkRetiresTheExpensivePoolFirst) {
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 0.05;
  autoscale.tick_seconds = 0.2;
  // Decode pool FIRST in config order: a config-order shrink would pick it;
  // the price order retires the pricier prefill pool.
  AutoscalePool decode_pool;
  decode_pool.role = ReplicaRole::kDecode;
  decode_pool.spec = Spec(ReplicaRole::kDecode);  // $2.2/hr
  decode_pool.signal = AutoscaleSignal::kQueueDepth;
  decode_pool.high = 1e9;
  decode_pool.low = 0.5;
  decode_pool.min_replicas = 1;
  AutoscalePool prefill_pool = decode_pool;
  prefill_pool.role = ReplicaRole::kPrefill;
  prefill_pool.spec = Spec(ReplicaRole::kPrefill);  // $2.8/hr
  autoscale.pools = {decode_pool, prefill_pool};

  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, {}, {},
                       disagg);
  sim.AddReplica(Spec(ReplicaRole::kPrefill));
  sim.AddReplica(Spec(ReplicaRole::kPrefill));
  sim.AddReplica(Spec(ReplicaRole::kDecode));
  sim.AddReplica(Spec(ReplicaRole::kDecode));

  const FleetStats stats = sim.Run(Burst(12, /*seed=*/29, /*rate=*/0.5));
  EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{});
  ASSERT_GT(stats.scale_downs, 0u);
  for (const ScaleEvent& e : stats.scale_events) {
    if (!e.up) {
      EXPECT_EQ(e.role, ReplicaRole::kPrefill)
          << "cost-aware shrink should retire the $2.8/hr pool first";
      break;
    }
  }
}

// --- Bugfix 3: degraded replicas masked the queue-depth signal --------------

TEST(AutoscaleTest, DegradedReplicaCountsAsFractionalCapacity) {
  const auto run = [](bool degrade) {
    AutoscalePool pool;
    pool.spec = Spec(ReplicaRole::kUnified);
    pool.signal = AutoscaleSignal::kQueueDepth;
    // Raw mean over 2 replicas peaks at 12/2 = 6 < 8; effective-capacity
    // mean with one replica degraded 8x peaks at 12/1.125 ≈ 10.7 > 8.
    pool.high = 8.0;
    pool.low = -1.0;
    pool.max_replicas = 4;
    AutoscaleConfig autoscale;
    autoscale.cooldown_seconds = 0.01;
    autoscale.pools = {pool};
    ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale);
    sim.AddReplica(Spec(ReplicaRole::kUnified));
    sim.AddReplica(Spec(ReplicaRole::kUnified));
    if (degrade) {
      EXPECT_TRUE(sim.DegradeReplica(1, 8.0));
    }
    return sim.Run(Burst(12, /*seed=*/31, /*rate=*/2000.0,
                         /*prompt_min=*/2048, /*prompt_max=*/4096));
  };
  const FleetStats healthy = run(false);
  EXPECT_EQ(healthy.scale_ups, 0u);  // raw load alone never trips the high
  const FleetStats degraded = run(true);
  EXPECT_GT(degraded.scale_ups, 0u)
      << "a browned-out replica must not count as full capacity";
  EXPECT_EQ(CheckFleetInvariants(degraded), std::vector<std::string>{});
}

// --- Signal coverage: KV pressure grows the decode pool ---------------------

TEST(AutoscaleTest, FreeKvPressureGrowsDecodePool) {
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 0.05;
  autoscale.tick_seconds = 0.1;
  AutoscalePool prefill_pool;
  prefill_pool.role = ReplicaRole::kPrefill;
  prefill_pool.spec = Spec(ReplicaRole::kPrefill);
  prefill_pool.high = 1e9;
  prefill_pool.low = -1.0;
  AutoscalePool decode_pool;
  decode_pool.role = ReplicaRole::kDecode;
  // Tiny decode pools: migrated kilotoken KV fills them fast.
  decode_pool.spec = Spec(ReplicaRole::kDecode, /*pool_blocks=*/192);
  decode_pool.signal = AutoscaleSignal::kFreeKv;
  decode_pool.high = 0.5;  // grow above 50% used
  decode_pool.low = -1.0;
  decode_pool.min_replicas = 1;
  decode_pool.max_replicas = 6;
  autoscale.pools = {prefill_pool, decode_pool};

  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, {}, {},
                       disagg);
  sim.AddReplica(Spec(ReplicaRole::kPrefill));
  sim.AddReplica(Spec(ReplicaRole::kDecode, /*pool_blocks=*/192));

  const FleetStats stats =
      sim.Run(Burst(40, /*seed=*/37, /*rate=*/30.0, /*prompt_min=*/1024,
                    /*prompt_max=*/2048, /*output_min=*/64,
                    /*output_max=*/128));
  EXPECT_EQ(CheckFleetInvariants(stats), std::vector<std::string>{});
  EXPECT_GT(stats.scale_ups, 0u);
  for (const ScaleEvent& e : stats.scale_events) {
    if (e.up) {
      EXPECT_EQ(e.role, ReplicaRole::kDecode);
    }
  }
}

// --- Determinism golden: the scale-event sequence ---------------------------

FleetStats RunCanonicalAutoscaleChaos() {
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 0.25;
  autoscale.tick_seconds = 0.2;
  AutoscalePool prefill_pool;
  prefill_pool.role = ReplicaRole::kPrefill;
  prefill_pool.spec = Spec(ReplicaRole::kPrefill);
  prefill_pool.signal = AutoscaleSignal::kQueueDepth;
  prefill_pool.high = 6.0;
  prefill_pool.low = 0.25;
  prefill_pool.min_replicas = 1;
  prefill_pool.max_replicas = 3;
  AutoscalePool decode_pool;
  decode_pool.role = ReplicaRole::kDecode;
  decode_pool.spec = Spec(ReplicaRole::kDecode);
  decode_pool.signal = AutoscaleSignal::kQueueDepth;
  decode_pool.high = 6.0;
  decode_pool.low = 0.25;
  decode_pool.min_replicas = 1;
  decode_pool.max_replicas = 4;
  autoscale.pools = {prefill_pool, decode_pool};
  SloConfig slo;
  slo.ttft_budget = 3.0;
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.base_backoff_seconds = 0.1;
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.5;

  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, slo, retry,
                       disagg);
  for (int i = 0; i < 2; ++i) sim.AddReplica(Spec(ReplicaRole::kPrefill));
  for (int i = 0; i < 2; ++i) sim.AddReplica(Spec(ReplicaRole::kDecode));

  const std::vector<TimedRequest> trace = Burst(200, /*seed=*/777,
                                                /*rate=*/70.0);
  sim.ScheduleKill({trace[trace.size() / 3].arrival_seconds, 3});
  sim.ScheduleDegrade({trace[trace.size() / 2].arrival_seconds, 0, 4.0});
  return sim.Run(trace);
}

TEST(AutoscaleTest, ScaleEventSequenceDeterministicAndGolden) {
  FleetStats a = RunCanonicalAutoscaleChaos();
  FleetStats b = RunCanonicalAutoscaleChaos();
  EXPECT_EQ(CheckFleetInvariants(a), std::vector<std::string>{});
  // The whole report, scale-event sequence included.
  a.sim_throughput.ClearWallClock();
  b.sim_throughput.ClearWallClock();
  EXPECT_EQ(FleetStatsToJson(a), FleetStatsToJson(b));
  std::printf("autoscale golden: %zu events:", a.scale_events.size());
  for (const ScaleEvent& e : a.scale_events) {
    std::printf(" %s%s@%.3f(r%zu)", e.up ? "+" : "-", ToString(e.role),
                e.time, e.replica);
  }
  std::printf("\n");
  // Golden pins for the canonical episode: the burst scales the fleet up,
  // the drain tail scales it back down to the pool floors.  If an
  // intentional change shifts the sequence, re-run and update alongside it.
  EXPECT_GT(a.scale_ups, 0u);
  EXPECT_GT(a.scale_downs, 0u);
  EXPECT_EQ(a.replicas_final, 2u);  // one prefill + one decode floor
  EXPECT_EQ(a.disagg.prefill_replicas, 1u);
  EXPECT_EQ(a.disagg.decode_replicas, 1u);
}

// --- Chaos: kills + degradations + role-typed autoscaling -------------------

}  // namespace
}  // namespace liquid::cluster
