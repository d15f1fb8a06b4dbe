// Simulator-throughput benchmark: how fast does the simulator itself run?
// Replays a large generated trace of short-prompt requests (1M requests by
// default, 100k with --quick) through two fleets — 6 unified replicas, and a
// 2P:4D disaggregated split over an NVLink-class link (the busiest code
// path: routing, chunked prefill, handoff planning, KV migration, decode) —
// and reports the host-side cost: events processed (engine iterations +
// fleet events), events/sec, sim-seconds per wall-second, and wall-seconds
// per simulated hour.  Both fleets replay the SAME trace.
//
// The JSON artifact is the unit CI's bench-regression tracking consumes:
// `bench/compare_baselines.py` checks the deterministic counters
// (events_processed, completed, ...) exactly and reports — without gating —
// the wall-clock rates, the process's `peak_rss_mb` and the host
// `provenance` (hardware threads, OpenMP threads, GEMM provider, build
// type), so a change that silently makes the simulator do more work per
// request fails the build even on noisy CI hosts.
//
// Exit status is nonzero if any fleet breaks a law of
// cluster::CheckFleetInvariants (request conservation, the retry budget,
// nothing left in migration, ...), processes zero events, or if the
// process's peak RSS ends more than 2 MiB + 64 B per request above its RSS
// right after trace generation, so the bench doubles as a large-trace soak
// test whose memory stays bounded by what the fleets keep per request.
//
// Usage: bench_sim_throughput [--quick] [--seed N] [--requests N]
//                             [--json-out PATH] [--profile-out BASE]
//   --quick replays 100k requests (CI-sized); the default is 1M.
//   --requests N overrides both.  --profile-out enables the wall-clock
//   profiler for the runs and writes BASE.txt/.csv/.folded/... on exit.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster_sim.hpp"
#include "obs/prof/prof_sink.hpp"
#include "util/cli_flags.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace liquid;
using namespace liquid::cluster;

namespace {

/// The soak's memory bound above the trace.  Per request, a fleet keeps
/// its TTFT, end-to-end and TPOT doubles (24 B, reserved once per run),
/// plus on the disagg fleet the migration stall and the migrated TPOT
/// (16 B, grown by doubling), with the rest as vector-growth slack; the
/// fixed part covers engines, replicas and their KV pools.
constexpr double kSoakFixedMib = 2.0;
constexpr double kSoakBytesPerRequest = 64.0;

ReplicaSpec Replica(ReplicaRole role) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 4096;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  if (role == ReplicaRole::kPrefill) {
    spec.options.prefill_chunk_tokens = 2048;
  }
  spec.dollars_per_hour = role == ReplicaRole::kPrefill ? 2.8 : 2.2;
  return spec;
}

/// Short-prompt interactive mix: per-request work is small, so the request
/// count (not prompt length) dominates and the fleet-event machinery —
/// routing, admission, retirement — gets exercised at volume.
std::vector<serving::TimedRequest> ShortPromptMix(std::size_t count,
                                                  std::uint64_t seed) {
  serving::TraceConfig config;
  config.arrival_rate_per_s = 120.0;
  config.count = count;
  config.prompt_min = 128;
  config.prompt_max = 1024;
  config.output_min = 16;
  config.output_max = 64;
  config.sessions = 256;
  return serving::GenerateTrace(config, seed);
}

FleetStats RunUnified(const std::vector<serving::TimedRequest>& trace) {
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding);
  for (int i = 0; i < 6; ++i) sim.AddReplica(Replica(ReplicaRole::kUnified));
  return bench::Checked(sim.Run(trace));
}

FleetStats RunDisagg(const std::vector<serving::TimedRequest>& trace) {
  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;
  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, {}, {}, {}, disagg);
  for (int i = 0; i < 2; ++i) sim.AddReplica(Replica(ReplicaRole::kPrefill));
  for (int i = 0; i < 4; ++i) sim.AddReplica(Replica(ReplicaRole::kDecode));
  return bench::Checked(sim.Run(trace));
}

struct FleetRun {
  std::string name;
  FleetStats stats;
};

void AddRow(Table& table, const FleetRun& run) {
  const SimThroughput& t = run.stats.sim_throughput;
  table.AddRow({run.name, WithCommas(t.events_processed),
                Format("%.1f", t.sim_seconds), Format("%.3f", t.wall_seconds),
                WithCommas(static_cast<std::uint64_t>(t.events_per_sec)),
                Format("%.3f", t.wall_seconds_per_sim_hour)});
}

void WriteFleetJson(JsonWriter& w, const FleetRun& run) {
  const FleetStats& s = run.stats;
  const SimThroughput& t = s.sim_throughput;
  w.BeginObject();
  w.Key("name").String(run.name);
  w.Key("submitted").Number(static_cast<std::uint64_t>(s.submitted));
  w.Key("completed").Number(static_cast<std::uint64_t>(s.completed));
  w.Key("events_processed").Number(t.events_processed);
  w.Key("engine_iterations").Number(t.engine_iterations);
  w.Key("fleet_events").Number(t.fleet_events);
  w.Key("sim_seconds").Number(t.sim_seconds);
  w.Key("wall_seconds").Number(t.wall_seconds);
  w.Key("events_per_sec").Number(t.events_per_sec);
  w.Key("sim_seconds_per_wall_second").Number(t.sim_seconds_per_wall_second);
  w.Key("wall_seconds_per_sim_hour").Number(t.wall_seconds_per_sim_hour);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags = ParseCliFlags(argc, argv);
  std::size_t count = flags.quick ? 100'000 : 1'000'000;
  for (std::size_t i = 0; i < flags.positional.size(); ++i) {
    const std::string& arg = flags.positional[i];
    if (arg == "--requests" && i + 1 < flags.positional.size()) {
      count = std::strtoull(flags.positional[++i].c_str(), nullptr, 10);
    } else if (arg.rfind("--requests=", 0) == 0) {
      count = std::strtoull(arg.c_str() + 11, nullptr, 10);
    }
  }
  const std::uint64_t seed = flags.seed_set ? flags.seed : 1;

  std::printf("generating %zu-request trace (seed %llu)...\n", count,
              static_cast<unsigned long long>(seed));
  const auto trace = ShortPromptMix(count, seed);
  const double trace_rss_mb = bench::PeakRssMb();

  obs::MaybeEnableProfiler(flags);

  std::vector<FleetRun> runs;
  std::printf("running unified_x6...\n");
  runs.push_back({"unified_x6", RunUnified(trace)});
  std::printf("running disagg_2p4d...\n");
  runs.push_back({"disagg_2p4d", RunDisagg(trace)});

  Table table(Format("Simulator throughput, %zu requests", count));
  table.SetHeader({"fleet", "events", "sim s", "wall s", "events/s",
                   "wall s / sim h"});
  for (const FleetRun& run : runs) AddRow(table, run);
  table.Print();

  if (!obs::WriteProfile(flags)) return 1;

  if (!flags.json_out.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench").String("sim_throughput");
    w.Key("quick").Bool(flags.quick);
    w.Key("requests").Number(static_cast<std::uint64_t>(count));
    w.Key("seed").Number(seed);
    w.Key("fleets").BeginArray();
    for (const FleetRun& run : runs) WriteFleetJson(w, run);
    w.EndArray();
    // Host-dependent, report-only: memory of the whole process (trace plus
    // every fleet run) and what the wall-clock numbers were measured on.
    w.Key("peak_rss_mb").Number(bench::PeakRssMb());
    bench::Provenance().Write(w);
    w.EndObject();
    if (!bench::WriteJsonArtifact(flags.json_out, w.TakeString(),
                                  "bench summary")) {
      return 1;
    }
  }

  // Soak gates: nonzero work everywhere (every run already passed
  // CheckFleetInvariants on its way out of Run), and memory above the
  // trace within the per-request bound.
  bool ok = true;
  for (const FleetRun& run : runs) {
    const FleetStats& s = run.stats;
    if (s.completed == 0 || s.sim_throughput.events_processed == 0) {
      std::printf("FAIL: %s did no work\n", run.name.c_str());
      ok = false;
    }
  }
  const double above_trace_mb = bench::PeakRssMb() - trace_rss_mb;
  const double bound_mb =
      kSoakFixedMib +
      kSoakBytesPerRequest * static_cast<double>(count) / (1024.0 * 1024.0);
  std::printf(
      "peak RSS above the trace: %.1f MiB (bound %.1f MiB = %.0f MiB + "
      "%.0f B x %zu requests)\n",
      above_trace_mb, bound_mb, kSoakFixedMib, kSoakBytesPerRequest, count);
  if (above_trace_mb > bound_mb) {
    std::printf("FAIL: peak RSS grew %.1f MiB past the trace, over the "
                "%.1f MiB bound\n",
                above_trace_mb, bound_mb);
    ok = false;
  }
  std::printf("sim throughput soak: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
