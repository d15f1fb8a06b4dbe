// Cluster serving demo: N replica engines behind a pluggable router serving
// a multi-tenant Poisson trace — the fleet layer above the single-engine
// Table 1 loop.  Chat traffic (short prompts, many sessions) and document
// traffic (long prompts) share the fleet; the router policy decides who
// absorbs the bursts, and the fleet summary reports the p50/p95/p99
// TTFT/TPOT SLO numbers operators watch.
//
// Usage: cluster_serving [policy] [replicas] [requests]
//                        [--seed N] [--trace-out PATH] [--metrics-out PATH]
//   policy   round_robin | least_outstanding | least_kv | affinity |
//            prefix_aware (default least_kv)
//   replicas number of H800/LiquidServe replicas, >= 1 (default 4)
//   requests total trace size, split 3:1 chat:document (default 240)
//   --seed   trace seed (default 2024); full flag list: util/cli_flags.hpp

#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/cluster_sim.hpp"
#include "obs/prof/prof_sink.hpp"
#include "obs/telemetry_sink.hpp"
#include "util/cli_flags.hpp"
#include "util/strings.hpp"

using namespace liquid;
using namespace liquid::cluster;

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  obs::MaybeEnableProfiler(flags);
  const auto& pos = flags.positional;
  RoutePolicy policy = RoutePolicy::kLeastKvLoad;
  if (pos.size() > 0) {
    const auto parsed = ParseRoutePolicy(pos[0]);
    if (!parsed) {
      std::fprintf(stderr, "unknown policy '%s' (want %s)\n", pos[0].c_str(),
                   RoutePolicyNames().c_str());
      return 1;
    }
    policy = *parsed;
  }
  const std::size_t replicas =
      pos.size() > 1 ? std::max(1L, std::atol(pos[1].c_str())) : 4;
  const std::size_t requests =
      pos.size() > 2 ? std::max(8L, std::atol(pos[2].c_str())) : 240;

  // One replica = LLaMA2-7B on H800 under the LiquidServe preset, with a
  // deliberately tight paged-KV pool (1024 blocks x 16 tokens) so routing
  // quality is visible as preemption/TTFT differences.
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 1024;
  spec.block_tokens = 16;
  spec.max_batch = 64;

  // Two tenants superposed: bursty short chats and occasional long documents.
  std::vector<serving::TenantConfig> tenants(2);
  tenants[0].tenant = 1;  // chat
  tenants[0].trace.arrival_rate_per_s = 24.0;
  tenants[0].trace.count = requests * 3 / 4;
  tenants[0].trace.prompt_min = 32;
  tenants[0].trace.prompt_max = 512;
  tenants[0].trace.output_min = 16;
  tenants[0].trace.output_max = 128;
  tenants[0].sessions = 16;
  tenants[1].tenant = 2;  // documents
  tenants[1].trace.arrival_rate_per_s = 6.0;
  tenants[1].trace.count = requests - tenants[0].trace.count;
  tenants[1].trace.prompt_min = 1024;
  tenants[1].trace.prompt_max = 8192;
  tenants[1].trace.output_min = 64;
  tenants[1].trace.output_max = 256;
  tenants[1].sessions = 4;
  const auto trace = serving::GenerateMultiTenantTrace(
      tenants, flags.seed_set ? flags.seed : 2024);

  std::printf("== Cluster serving: %zu x %s, %s, policy=%s, %zu requests ==\n\n",
              replicas, spec.Label().c_str(), spec.model.name.c_str(),
              ToString(policy), trace.size());

  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const bool telemetry = flags.WantsTrace() || flags.WantsMetrics();

  ClusterSimulator sim(policy);
  for (std::size_t i = 0; i < replicas; ++i) sim.AddReplica(spec);
  sim.AttachTelemetry(telemetry ? &recorder : nullptr,
                      telemetry ? &metrics : nullptr);
  const FleetStats stats = sim.Run(trace);
  PrintFleetStats(stats);
  if (!obs::WriteProfile(flags)) return 1;
  return obs::WriteTelemetry(flags, recorder, metrics) ? 0 : 1;
}
