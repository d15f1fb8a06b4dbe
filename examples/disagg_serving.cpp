// Disaggregated serving demo: one fleet, two ways.
//
// The episode: kilotoken prompts with short answers — the mix where a
// monolithic replica's decode steps keep stalling behind other requests'
// prefills.  First the fleet runs unified (every replica prefills AND
// decodes); then the same six replicas are split into a prefill pool and a
// decode pool connected by an NVLink-class interconnect: prompts run to
// their first token on a prefill replica, the sequence's KV is exported and
// migrated over the link (layer-wise streaming hides most of the bytes
// under the prefill itself), and decode continues on a decode replica no
// prefill will ever interrupt.  The printout narrates the migration
// economics: handoffs, KV bytes moved, visible stalls, and the
// interference-free decode tail.
//
// Usage: disagg_serving [prefill_replicas] [decode_replicas] [requests]
//                       [--seed N] [--trace-out PATH] [--metrics-out PATH]
//   prefill_replicas  size of the prefill pool (default 3)
//   decode_replicas   size of the decode pool (default 3)
//   requests          trace size (default 200)
//   --seed            trace seed (default 2025); the telemetry sinks capture
//                     the disaggregated run (full list: util/cli_flags.hpp)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/prof/prof_sink.hpp"
#include "obs/telemetry_sink.hpp"
#include "util/cli_flags.hpp"
#include "util/strings.hpp"

using namespace liquid;
using namespace liquid::cluster;

namespace {

ReplicaSpec DisaggSpec(ReplicaRole role) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 4096;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  // The prefill pool runs chunked by default (2048-token chunks): a fresh
  // prompt starts within one chunk instead of behind a whole competing
  // kilotoken prefill.
  if (role == ReplicaRole::kPrefill) {
    spec.options.prefill_chunk_tokens = 2048;
  }
  spec.dollars_per_hour = role == ReplicaRole::kPrefill ? 2.8 : 2.2;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  obs::MaybeEnableProfiler(flags);
  const auto& pos = flags.positional;
  const std::size_t prefills =
      pos.size() > 0 ? static_cast<std::size_t>(std::atoi(pos[0].c_str())) : 3;
  const std::size_t decodes =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoi(pos[1].c_str())) : 3;
  const std::size_t requests =
      pos.size() > 2 ? static_cast<std::size_t>(std::atoi(pos[2].c_str()))
                     : 200;

  serving::TraceConfig config;
  config.arrival_rate_per_s = 4.7 * static_cast<double>(prefills + decodes);
  config.count = requests;
  config.prompt_min = 2048;
  config.prompt_max = 8192;
  config.output_min = 32;
  config.output_max = 128;
  config.sessions = 32;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, flags.seed_set ? flags.seed : 2025);

  std::printf(
      "trace: %zu requests, %.0f/s, prompts %zu-%zu tokens, outputs %zu-%zu\n\n",
      trace.size(), config.arrival_rate_per_s, config.prompt_min,
      config.prompt_max, config.output_min, config.output_max);

  // ---- Unified baseline: same replica count, everyone does everything.
  std::printf("=== unified x%zu ===\n", prefills + decodes);
  ClusterSimulator unified(RoutePolicy::kLeastOutstanding);
  for (std::size_t i = 0; i < prefills + decodes; ++i) {
    unified.AddReplica(DisaggSpec(ReplicaRole::kUnified));
  }
  const FleetStats base = unified.Run(trace);
  PrintFleetStats(base);

  // ---- Disaggregated: prefill pool + decode pool over a 400 GB/s link.
  std::printf("\n=== disaggregated %zuP : %zuD over 400 GB/s ===\n", prefills,
              decodes);
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  for (std::size_t i = 0; i < prefills; ++i) {
    sim.AddReplica(DisaggSpec(ReplicaRole::kPrefill));
  }
  for (std::size_t i = 0; i < decodes; ++i) {
    sim.AddReplica(DisaggSpec(ReplicaRole::kDecode));
  }
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const bool telemetry = flags.WantsTrace() || flags.WantsMetrics();
  sim.AttachTelemetry(telemetry ? &recorder : nullptr,
                      telemetry ? &metrics : nullptr);
  const FleetStats split = sim.Run(trace);
  PrintFleetStats(split);

  std::printf(
      "\nthe story: %zu prompts prefilled in the prefill pool, %zu migrated "
      "%.1f MB of KV\n(p50 stall %s, p99 %s), %zu decoded locally when "
      "migration did not pay.\n",
      split.disagg.prefill_handoffs, split.disagg.migrated_requests,
      split.disagg.migrated_kv_bytes / 1e6,
      HumanTime(split.disagg.migration_seconds.p50).c_str(),
      HumanTime(split.disagg.migration_seconds.p99).c_str(),
      split.disagg.local_decode_fallbacks);
  std::printf(
      "p99 TPOT: unified %s -> disaggregated %s (interference-free decode), "
      "p99 TTFT %s -> %s,\ncost $%.2f/1M tok -> $%.2f/1M tok.\n",
      HumanTime(base.tpot.p99).c_str(), HumanTime(split.tpot.p99).c_str(),
      HumanTime(base.ttft.p99).c_str(), HumanTime(split.ttft.p99).c_str(),
      base.dollars_per_m_tokens, split.dollars_per_m_tokens);
  if (!obs::WriteProfile(flags)) return 1;
  return obs::WriteTelemetry(flags, recorder, metrics) ? 0 : 1;
}
