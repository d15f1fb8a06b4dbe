// Chaos serving demo: a fleet under abrupt replica failure and overload,
// with and without SLO admission control.
//
// The episode: 3 replicas absorb a ~2x-overload Poisson trace; halfway
// through, one replica is killed WITHOUT draining — its in-flight work is
// lost (wasted tokens) and re-submitted from scratch through the router (the
// re-route storm).  Run once with unbounded queueing and once with a TTFT
// budget at the router; the second fleet sheds load (429-style rejections)
// instead of letting the backlog push tail TTFT out by an order of magnitude.
//
// Usage: chaos_serving [replicas] [requests] [ttft_budget_seconds]
//                      [--seed N] [--trace-out PATH] [--metrics-out PATH]
//   replicas     fleet size, >= 2 (default 3)
//   requests     trace size (default 240)
//   ttft_budget  SLO budget for the admission-controlled run (default 1.0)
//   --seed       trace seed (default 1337); the telemetry sinks capture the
//                SLO-controlled run (full flag list: util/cli_flags.hpp)

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

ReplicaSpec ChaosSpec() {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 512;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  return spec;
}

FleetStats RunEpisode(std::size_t replicas,
                      const std::vector<serving::TimedRequest>& trace,
                      SloConfig slo, obs::TraceRecorder* recorder = nullptr,
                      obs::MetricsRegistry* metrics = nullptr) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, AutoscaleConfig{}, slo);
  for (std::size_t i = 0; i < replicas; ++i) sim.AddReplica(ChaosSpec());
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, /*replica=*/1});
  sim.AttachTelemetry(recorder, metrics);
  return sim.Run(trace);
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  obs::MaybeEnableProfiler(flags);
  const auto& pos = flags.positional;
  const std::size_t replicas =
      pos.size() > 0 ? std::max(2L, std::atol(pos[0].c_str())) : 3;
  const std::size_t requests =
      pos.size() > 1 ? std::max(16L, std::atol(pos[1].c_str())) : 240;
  const double budget = pos.size() > 2 ? std::atof(pos[2].c_str()) : 1.0;
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const bool telemetry = flags.WantsTrace() || flags.WantsMetrics();

  // Offered load ~2x what the fleet retires (one replica of this spec
  // serves roughly 18 req/s of this mix): queues grow without shedding.
  serving::TraceConfig config;
  config.arrival_rate_per_s = 110.0;
  config.count = requests;
  config.prompt_min = 256;
  config.prompt_max = 2048;
  config.output_min = 64;
  config.output_max = 256;
  config.sessions = 24;
  const auto trace = serving::GenerateTrace(
      config, flags.seed_set ? flags.seed : 1337);

  std::printf(
      "== Chaos: %zu x %s, %zu requests at %.0f req/s, replica 1 killed "
      "mid-run ==\n\n",
      replicas, ChaosSpec().Label().c_str(), trace.size(),
      config.arrival_rate_per_s);

  std::printf("-- unbounded queueing (no SLO) --\n");
  const FleetStats open = RunEpisode(replicas, trace, SloConfig{});
  PrintFleetStats(open);

  std::printf("\n-- SLO admission control (TTFT budget %.2fs) --\n", budget);
  const FleetStats slo =
      RunEpisode(replicas, trace, SloConfig{budget, /*reject_above=*/1.0},
                 telemetry ? &recorder : nullptr,
                 telemetry ? &metrics : nullptr);
  PrintFleetStats(slo);

  std::printf(
      "\np99 TTFT %s -> %s; completed %zu -> %zu (rejected %zu); "
      "wasted tokens %.0f -> %.0f\n",
      HumanTime(open.ttft.p99).c_str(), HumanTime(slo.ttft.p99).c_str(),
      open.completed, slo.completed, slo.rejected_requests,
      open.wasted_tokens, slo.wasted_tokens);
  if (!obs::WriteProfile(flags)) return 1;
  return obs::WriteTelemetry(flags, recorder, metrics) ? 0 : 1;
}
