// Chaos/SLO study, two sweeps:
//
//  (1) Admission-control shootout under a 2x-overload trace with one mid-run
//      replica kill: unbounded queueing vs. a sweep of TTFT budgets.  The
//      claim to verify: shedding load bounds p99 TTFT (the backlog no longer
//      compounds after the kill), trading completed requests for latency.
//
//  (2) Autoscale-signal shootout on the same chaotic trace: instantaneous
//      queue depth vs. windowed p99 TTFT as the scale trigger.
//
// Exit status is nonzero if SLO admission control fails to bound p99 TTFT
// versus unbounded queueing, or if any fleet breaks a law of
// CheckFleetInvariants, so the bench doubles as a regression check.
//
// Usage: bench_chaos_slo [--quick] [--seed N] [--trace-out PATH]
//                        [--metrics-out PATH] [--json-out PATH]
//   --quick runs a smaller trace for CI smoke; the telemetry/JSON sinks
//   capture the TTFT-window autoscaled run — the one exercising kills,
//   retries, scale-ups, and admission all at once (see util/cli_flags.hpp).

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster_sim.hpp"
#include "obs/prof/prof_sink.hpp"
#include "obs/telemetry_sink.hpp"
#include "util/cli_flags.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace liquid;
using namespace liquid::cluster;

namespace {

ReplicaSpec Replica() {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 512;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.dollars_per_hour = 2.5;  // priced so shedding shows up in $/1M tokens
  return spec;
}

std::vector<serving::TimedRequest> OverloadTrace(std::size_t count,
                                                 std::uint64_t seed) {
  serving::TraceConfig config;
  config.arrival_rate_per_s = 110.0;  // ~2x what 3 replicas retire
  config.count = count;
  config.prompt_min = 256;
  config.prompt_max = 2048;
  config.output_min = 64;
  config.output_max = 256;
  config.sessions = 24;
  return serving::GenerateTrace(config, seed);
}

FleetStats RunChaos(const std::vector<serving::TimedRequest>& trace,
                    SloConfig slo, AutoscaleConfig autoscale = {},
                    obs::TraceRecorder* recorder = nullptr,
                    obs::MetricsRegistry* metrics = nullptr) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, slo);
  for (int i = 0; i < 3; ++i) sim.AddReplica(Replica());
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, /*replica=*/1});
  sim.AttachTelemetry(recorder, metrics);
  return bench::Checked(sim.Run(trace));
}

void AddChaosRow(Table& table, const char* label, const FleetStats& s) {
  table.AddRow({label, HumanTime(s.ttft.p50), HumanTime(s.ttft.p99),
                HumanTime(s.e2e.p99), std::to_string(s.completed),
                std::to_string(s.rejected_requests),
                std::to_string(s.lost_requests),
                WithCommas(static_cast<long long>(s.wasted_tokens)),
                Format("$%.2f", s.dollars_per_m_tokens)});
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  obs::MaybeEnableProfiler(flags);
  const auto trace = OverloadTrace(flags.quick ? 200 : 300,
                                   flags.seed_set ? flags.seed : 99);
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const bool telemetry =
      flags.WantsTrace() || flags.WantsMetrics() || !flags.json_out.empty();

  Table shootout(
      "SLO admission control, 3 replicas, 2x overload, 1 mid-run kill");
  shootout.SetHeader({"admission", "p50 TTFT", "p99 TTFT", "p99 e2e",
                      "completed", "rejected", "lost", "wasted tok", "$/1Mtok"});
  const FleetStats open = RunChaos(trace, SloConfig{});
  AddChaosRow(shootout, "unbounded", open);
  FleetStats best_slo;
  const double budgets[] = {4.0, 2.0, 1.0};
  for (const double budget : budgets) {
    const FleetStats s = RunChaos(trace, SloConfig{budget, 1.0});
    if (budget == 2.0) best_slo = s;
    static char label[32];
    std::snprintf(label, sizeof label, "budget %.0fs", budget);
    AddChaosRow(shootout, label, s);
  }
  shootout.Print();
  std::printf("\n");

  Table signals("Autoscale signal under the same chaos (max 6 replicas)");
  signals.SetHeader({"signal", "p50 TTFT", "p99 TTFT", "p99 e2e", "completed",
                     "rejected", "lost", "wasted tok", "$/1Mtok"});
  // One fleet-wide pool over the unified replicas, cloning their spec.
  AutoscalePool queue_pool;
  queue_pool.spec = Replica();
  queue_pool.signal = AutoscaleSignal::kQueueDepth;
  queue_pool.high = 6.0;
  queue_pool.low = 0.25;
  queue_pool.max_replicas = 6;
  AutoscaleConfig queue;
  queue.cooldown_seconds = 0.5;
  queue.pools = {queue_pool};
  AutoscalePool tail_pool = queue_pool;
  tail_pool.signal = AutoscaleSignal::kTailTtft;
  tail_pool.high = 1.0;
  tail_pool.low = 0.02;
  tail_pool.window_seconds = 5.0;
  AutoscaleConfig tail = queue;
  tail.window_seconds = 5.0;  // the fleet-wide p99 metric gauges
  tail.pools = {tail_pool};
  AddChaosRow(signals, "none", open);
  const FleetStats by_queue = RunChaos(trace, SloConfig{}, queue);
  AddChaosRow(signals, "queue depth", by_queue);
  // The telemetry sinks capture the TTFT-window run: kill + retries +
  // scale-ups in one trace.
  const FleetStats by_tail =
      RunChaos(trace, SloConfig{}, tail, telemetry ? &recorder : nullptr,
               telemetry ? &metrics : nullptr);
  AddChaosRow(signals, "p99 TTFT window", by_tail);
  signals.Print();
  std::printf("scale-ups: queue=%zu tail=%zu\n", by_queue.scale_ups,
              by_tail.scale_ups);

  const bool bounded = best_slo.ttft.p99 < open.ttft.p99;
  std::printf("\nSLO (2s budget) p99 TTFT %s vs unbounded %s: %s\n",
              HumanTime(best_slo.ttft.p99).c_str(),
              HumanTime(open.ttft.p99).c_str(), bounded ? "WIN" : "LOSS");
  if (!bench::WriteFleetArtifact(flags.json_out, by_tail)) return 1;
  if (!obs::WriteProfile(flags)) return 1;
  if (!obs::WriteTelemetry(flags, recorder, metrics)) return 1;
  return bounded ? 0 : 1;
}
