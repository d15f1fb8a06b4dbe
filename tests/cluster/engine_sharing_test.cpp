// Replicas whose specs price steps identically share one ServingEngine (and
// its warm cost tables); any difference in the engine's inputs gets its own.
// Autoscale scale-ups reusing the pool's engine are pinned in
// autoscale_test.cpp (DecodeBoundFleetGrowsDecodePoolNotFirstSpec).

#include <gtest/gtest.h>

#include "cluster/cluster_sim.hpp"

namespace liquid::cluster {
namespace {

ReplicaSpec Spec() {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 512;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  return spec;
}

TEST(EngineSharingTest, EqualSpecsShareOneEngine) {
  ClusterSimulator sim;
  EXPECT_EQ(sim.EngineCount(), 0u);
  sim.AddReplica(Spec());
  sim.AddReplica(Spec());
  // Scheduler-side fields (pool size, batch cap, price) do not change how
  // the engine prices a step, so they do not split the engine.
  ReplicaSpec bigger = Spec();
  bigger.kv_pool_blocks = 2048;
  bigger.max_batch = 64;
  bigger.dollars_per_hour = 9.0;
  sim.AddReplica(bigger);
  EXPECT_EQ(sim.ActiveReplicas(), 3u);
  EXPECT_EQ(sim.EngineCount(), 1u);
}

TEST(EngineSharingTest, OneDifferingEngineFieldGetsItsOwnEngine) {
  ClusterSimulator sim;
  sim.AddReplica(Spec());
  ReplicaSpec chunked = Spec();
  chunked.options.prefill_chunk_tokens = 512;
  sim.AddReplica(chunked);
  EXPECT_EQ(sim.EngineCount(), 2u);
  ReplicaSpec slower = Spec();
  slower.hw.mem_bw_bytes *= 0.5;
  sim.AddReplica(slower);
  EXPECT_EQ(sim.EngineCount(), 3u);
  ReplicaSpec other_model = Spec();
  other_model.model = serving::LlmConfig::Llama2_13B();
  sim.AddReplica(other_model);
  EXPECT_EQ(sim.EngineCount(), 4u);
  // Each later copy finds its match, not just the most recent engine.
  sim.AddReplica(Spec());
  sim.AddReplica(chunked);
  sim.AddReplica(slower);
  EXPECT_EQ(sim.ActiveReplicas(), 7u);
  EXPECT_EQ(sim.EngineCount(), 4u);
}

}  // namespace
}  // namespace liquid::cluster
