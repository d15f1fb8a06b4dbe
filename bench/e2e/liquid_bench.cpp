// End-to-end benchmark binary: one workload, one seed, one process.
//
//   liquid_bench --workload NAME --seed N --seconds S [--traced]
//                --json-out PATH [--git-sha SHA]
//
// Workloads (see README.md for why each exists):
//   chat_short_x6     unified x6, short prompts, least_outstanding
//   disagg_long_2p4d  2 prefill + 4 decode replicas, 2-8k prompts
//   prefix_slo_x8     unified x8, 50% shared prefix, prefix_aware, TTFT SLO
//   fleet_x64_chaos   unified x64, 2 kills + 2 degrades, capped retries
//   w4a8_gemm_4k      LiquidGemm on a 4096x4096 weight, M=16 and M=512
//
// Everything runs on the calling thread: the fleet simulator is never given
// worker threads and OpenMP is pinned to one thread, so a measurement does
// not depend on what else the host is running on its other cores.
//
// Untraced (default): end-to-end metrics.  The run goes in rounds until
// --seconds of measured time has accumulated: each round redoes the set-up,
// then replays the workload (fleets) or calls it (GEMM).  setup_s is the
// median set-up time, and rates are taken from the fastest replay or call.
// --traced: per-layer metrics.  Unprofiled and profiled replays alternate,
// the WallProfiler's scope tree is folded into layers by self time, and each
// layer's public functions are timed on the workload's own inputs.
//
// liquid_bench exits nonzero when a correctness gate fails: fleet conservation,
// the retry-budget identity, requests left in migration, zero completions,
// replays of one trace that disagree (including profiled against
// unprofiled), or a GEMM output that differs bit-for-bit from the reference
// provider.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "cluster/cluster_sim.hpp"
#include "cluster/fleet_stats.hpp"
#include "core/api.hpp"
#include "core/gemm/gemm_counters.hpp"
#include "obs/prof/wall_profiler.hpp"
#include "serving/engine.hpp"
#include "serving/scheduler.hpp"
#include "simgpu/gemm_sim.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/wall_timer.hpp"

using namespace liquid;
using namespace liquid::cluster;

namespace {

// ------------------------------------------------------------ arguments ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string json_out;
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "liquid_bench: %s\nusage: liquid_bench --workload NAME "
               "--seed N --seconds S [--traced] --json-out PATH "
               "[--git-sha SHA]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--traced") {
      args.traced = true;
    } else if (arg == "--json-out") {
      args.json_out = value();
    } else if (arg == "--git-sha") {
      args.git_sha = value();
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.json_out.empty()) Usage("--json-out is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

// -------------------------------------------------------------- helpers ---

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// The statistic behind every end-to-end rate.  Other tenants of a shared
/// host slow stretches of a run by a third or more, and how many of a run's
/// repetitions they hit changes from run to run.  Across ten seeds in such
/// an hour the fastest repetition spread least (4% for the M=16 GEMM call,
/// against 14% for the lower quartile and 24% for the median).
double Fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Keeps the optimizer from discarding a timed call's result.
volatile double g_sink = 0;

/// Calls per host second of `fn(i)` for i in [0, calls): the median of three
/// timed passes.
template <typename Fn>
double CallsPerSecond(std::size_t calls, Fn&& fn) {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const WallTimer timer;
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    rates.push_back(static_cast<double>(calls) / timer.Seconds());
  }
  return Median(rates);
}

/// Named pass/fail checks; any failure makes the run incorrect.  Checking a
/// name again (one check per replay) keeps one entry that passes only if
/// every check of that name passed.
struct Gates {
  std::vector<std::pair<std::string, bool>> results;

  void Check(const std::string& name, bool ok) {
    if (!ok) std::fprintf(stderr, "GATE FAILED: %s\n", name.c_str());
    for (auto& [seen, passed] : results) {
      if (seen == name) {
        passed = passed && ok;
        return;
      }
    }
    results.emplace_back(name, ok);
  }
  [[nodiscard]] bool AllPassed() const {
    return std::all_of(results.begin(), results.end(),
                       [](const auto& r) { return r.second; });
  }
};

/// Everything one run reports.  `metrics` holds the end-to-end metrics
/// (untraced) or the per-layer metrics (traced); `sim` the fleet's simulated
/// outcome, which is not a host measurement.
struct Report {
  Gates gates;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> sim;
  std::vector<double> samples_s;  ///< every timed replay or call
};

// ---------------------------------------------------------------- fleets ---

struct FleetWorkload {
  const char* name;
  serving::TraceConfig trace;
  std::size_t unified = 0;
  std::size_t prefill = 0;
  std::size_t decode = 0;
  RoutePolicy policy = RoutePolicy::kLeastOutstanding;
  SloConfig slo = {};
  RetryPolicy retry = {};
  DisaggConfig disagg = {};
  bool chaos = false;  ///< 2 kills + 2 degrades at fixed shares of the span
  /// Independent traces per run, each replayed on a fresh fleet.  More than
  /// one averages out state that persists for a whole replay and differs
  /// from seed to seed: which replica each prefix group settles on.
  std::size_t episodes = 1;
};

serving::TraceConfig ShortMix(double rate, std::size_t count) {
  serving::TraceConfig t;
  t.arrival_rate_per_s = rate;
  t.count = count;
  t.prompt_min = 128;
  t.prompt_max = 1024;
  t.output_min = 16;
  t.output_max = 64;
  t.sessions = 256;
  return t;
}

/// Trace sizes keep one replay near 2-2.5 s of host time (a prefix episode
/// near 0.5 s), so a 15 s run holds six replays or more.
std::vector<FleetWorkload> FleetWorkloads() {
  std::vector<FleetWorkload> all;

  FleetWorkload chat{"chat_short_x6", ShortMix(120.0, 80'000)};
  chat.unified = 6;
  all.push_back(chat);

  FleetWorkload disagg{"disagg_long_2p4d", {}};
  disagg.trace.arrival_rate_per_s = 28.0;
  disagg.trace.count = 12'000;
  disagg.trace.prompt_min = 2048;
  disagg.trace.prompt_max = 8192;
  disagg.trace.output_min = 32;
  disagg.trace.output_max = 128;
  disagg.trace.sessions = 256;
  disagg.prefill = 2;
  disagg.decode = 4;
  disagg.disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.disagg.max_migration_seconds = 0.25;
  all.push_back(disagg);

  // Well past the fleet's capacity, so the 1 s TTFT budget starts shedding
  // within each 750-request episode.
  FleetWorkload prefix{"prefix_slo_x8", {}};
  prefix.trace.arrival_rate_per_s = 400.0;
  prefix.trace.count = 750;
  prefix.trace.prompt_min = 1024;
  prefix.trace.prompt_max = 4096;
  prefix.trace.output_min = 32;
  prefix.trace.output_max = 128;
  prefix.trace.sessions = 32;
  prefix.trace.shared_prefix_fraction = 0.5;
  prefix.trace.prefix_groups = 16;
  prefix.unified = 8;
  prefix.policy = RoutePolicy::kPrefixAware;
  prefix.slo = SloConfig{1.0, 1.0};
  prefix.episodes = 8;
  all.push_back(prefix);

  FleetWorkload chaos{"fleet_x64_chaos", ShortMix(1280.0, 30'000)};
  chaos.unified = 64;
  chaos.retry = RetryPolicy{3, 0.05};
  chaos.chaos = true;
  all.push_back(chaos);
  return all;
}

/// Episode 0 uses the seed itself; the others derive from it.
std::uint64_t EpisodeSeed(std::uint64_t seed, std::size_t episode) {
  return seed + 0x9E3779B97F4A7C15ull * episode;
}

ReplicaSpec Replica(ReplicaRole role) {
  ReplicaSpec spec;
  spec.hw = simgpu::HardwareSpec::H800();
  spec.preset = serving::SystemPreset::LiquidServe();
  spec.model = serving::LlmConfig::Llama2_7B();
  spec.kv_pool_blocks = 4096;
  spec.block_tokens = 16;
  spec.max_batch = 16;
  spec.role = role;
  if (role == ReplicaRole::kPrefill) spec.options.prefill_chunk_tokens = 2048;
  spec.dollars_per_hour = role == ReplicaRole::kPrefill ? 2.8 : 2.2;
  return spec;
}

std::unique_ptr<ClusterSimulator> BuildFleet(
    const FleetWorkload& w, const std::vector<serving::TimedRequest>& trace) {
  auto sim = std::make_unique<ClusterSimulator>(w.policy, AutoscaleConfig{},
                                                w.slo, w.retry, w.disagg);
  for (std::size_t i = 0; i < w.unified; ++i) {
    sim->AddReplica(Replica(ReplicaRole::kUnified));
  }
  for (std::size_t i = 0; i < w.prefill; ++i) {
    sim->AddReplica(Replica(ReplicaRole::kPrefill));
  }
  for (std::size_t i = 0; i < w.decode; ++i) {
    sim->AddReplica(Replica(ReplicaRole::kDecode));
  }
  if (w.chaos && !trace.empty()) {
    const double span = trace.back().arrival_seconds;
    sim->ScheduleDegrade({0.25 * span, 9, 2.0});
    sim->ScheduleKill({span / 3.0, 5});
    sim->ScheduleDegrade({0.5 * span, 33, 3.0});
    sim->ScheduleKill({2.0 * span / 3.0, 17});
  }
  return sim;
}

/// Zeroes the host-wall-clock SimThroughput fields, which legitimately vary
/// from replay to replay; every other field of FleetStats is deterministic.
FleetStats WithoutWallClock(FleetStats stats) {
  stats.sim_throughput.wall_seconds = 0;
  stats.sim_throughput.events_per_sec = 0;
  stats.sim_throughput.sim_seconds_per_wall_second = 0;
  stats.sim_throughput.wall_seconds_per_sim_hour = 0;
  return stats;
}

void CheckFleetInvariants(const FleetStats& s, Gates& gates) {
  gates.Check("conservation: completed + dropped + rejected + lost == "
              "submitted + retried",
              s.completed + s.dropped + s.rejected_requests + s.lost_requests ==
                  s.submitted + s.retried_requests);
  gates.Check("retry budget: lost == retried + retries_exhausted",
              s.lost_requests == s.retried_requests + s.retries_exhausted);
  gates.Check("disagg.in_migration == 0 at end of run",
              s.disagg.in_migration == 0);
  gates.Check("completed > 0", s.completed > 0);
}

/// The simulated outcome: deterministic per seed, not a host measurement.
std::map<std::string, double> SimOutcome(const FleetStats& s) {
  return {
      {"submitted", static_cast<double>(s.submitted)},
      {"completed", static_cast<double>(s.completed)},
      {"rejected", static_cast<double>(s.rejected_requests)},
      {"dropped", static_cast<double>(s.dropped)},
      {"lost", static_cast<double>(s.lost_requests)},
      {"retried", static_cast<double>(s.retried_requests)},
      {"retries_exhausted", static_cast<double>(s.retries_exhausted)},
      {"ttft_p50_ms", 1e3 * s.ttft.p50},
      {"ttft_p99_ms", 1e3 * s.ttft.p99},
      {"tpot_p50_ms", 1e3 * s.tpot.p50},
      {"tpot_p99_ms", 1e3 * s.tpot.p99},
      {"tokens_per_s", s.throughput_tokens_per_s},
      {"span_s", s.span_seconds},
      {"migration_p99_ms", 1e3 * s.disagg.migration_seconds.p99},
  };
}

/// Checks every replay of one trace: each must keep the fleet invariants
/// and reproduce the first replay's whole FleetStats JSON, wall clock aside.
/// A request counts as failed when it was dropped or ran out of retries; a
/// request refused by SLO admission control is shed load, not a failure.
struct ReplayLog {
  std::string first_json;
  bool identical = true;
  FleetStats first;

  void Add(const FleetStats& stats, Report& report) {
    report.attempted += stats.submitted;
    report.failed += stats.dropped + stats.retries_exhausted;
    CheckFleetInvariants(stats, report.gates);
    const std::string json = FleetStatsToJson(WithoutWallClock(stats));
    if (first_json.empty()) {
      first_json = json;
      first = stats;
    } else if (json != first_json) {
      identical = false;
    }
  }
};

struct TraceTotals {
  double prompt_tokens = 0;
  double output_tokens = 0;
  double bytes = 0;  ///< request structs + signature hashes (computed)
};

TraceTotals Totals(const std::vector<serving::TimedRequest>& trace) {
  TraceTotals t;
  for (const serving::TimedRequest& r : trace) {
    t.prompt_tokens += static_cast<double>(r.prompt_tokens);
    t.output_tokens += static_cast<double>(r.max_new_tokens);
    t.bytes += static_cast<double>(sizeof(r) + 8 * r.prefix.hashes.size());
  }
  return t;
}

/// An untraced run makes at least this many rounds, even past --seconds.
/// Every round starts by redoing the set-up, so setup_s is the median of
/// samples spread over the run: samples taken back to back would all land
/// in the same slow stretch of a shared host.
constexpr int kMinRounds = 5;

/// One independent trace of a fleet workload and its replays.
struct Episode {
  std::vector<serving::TimedRequest> trace;
  std::vector<double> walls;
  ReplayLog log;
};

void RunFleetUntraced(const FleetWorkload& w, const Args& args,
                      Report& report) {
  std::vector<Episode> episodes(w.episodes);
  std::vector<double> setup;
  double measured = 0;
  // A round regenerates every episode's trace and builds the first fleet
  // (the set-up), then replays each episode once on a fresh fleet.
  for (int round = 0; measured < args.seconds || round < kMinRounds;
       ++round) {
    for (Episode& e : episodes) {
      std::vector<serving::TimedRequest>().swap(e.trace);  // release first
    }
    const WallTimer timer;
    for (std::size_t k = 0; k < episodes.size(); ++k) {
      episodes[k].trace =
          serving::GenerateTrace(w.trace, EpisodeSeed(args.seed, k));
    }
    std::unique_ptr<ClusterSimulator> fleet = BuildFleet(w, episodes[0].trace);
    setup.push_back(timer.Seconds());

    for (Episode& e : episodes) {
      if (fleet == nullptr) fleet = BuildFleet(w, e.trace);
      const FleetStats stats = fleet->Run(e.trace);
      fleet.reset();
      e.walls.push_back(stats.sim_throughput.wall_seconds);
      measured += e.walls.back();
      e.log.Add(stats, report);
    }
  }

  bool identical = true;
  double prompt_tokens = 0;
  double output_tokens = 0;
  double wall = 0;
  for (const Episode& e : episodes) {
    identical = identical && e.log.identical;
    const TraceTotals totals = Totals(e.trace);
    prompt_tokens += totals.prompt_tokens;
    output_tokens += totals.output_tokens;
    wall += Fastest(e.walls);
    report.samples_s.insert(report.samples_s.end(), e.walls.begin(),
                            e.walls.end());
  }
  report.gates.Check("replays of one trace are identical", identical);
  report.sim = SimOutcome(episodes[0].log.first);
  report.metrics["host_decode_tok_per_s"] = output_tokens / wall;
  report.metrics["host_prefill_tok_per_s"] = prompt_tokens / wall;
  report.metrics["setup_s"] = Median(setup);
  report.metrics["peak_rss_mb"] = PeakRssMb();
}

/// Folds the profiler's scope tree into per-layer self time (ns) by leaf
/// scope name.  Scorer-term scopes nest under router/score and count as
/// scoring; anything unrecognised stays unattributed.
std::map<std::string, double> LayerSelfNs() {
  static const std::map<std::string, std::string> kLayerOf = {
      {"router/score", "router.score"},
      {"router/views", "router.views"},
      {"router/decide", "router.other"},
      {"router/route_one", "router.other"},
      {"engine/step", "scheduler.step_self"},
      {"engine/step/admit", "scheduler.admit"},
      {"engine/step/decode", "scheduler.decode"},
      {"engine/step/retire", "scheduler.retire"},
      {"engine/step/prefill_chunk", "scheduler.prefill_chunk"},
      {"disagg/plan_handoff", "disagg.plan"},
      {"disagg/begin", "disagg.plan"},
      {"sim/events/migration_land", "disagg.land"},
  };
  std::map<std::string, double> self_ns;
  std::istringstream folded(obs::WallProfiler::Instance().CollapsedStacks());
  std::string line;
  while (std::getline(folded, line)) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string stack = line.substr(0, space);
    const double ns = std::strtod(line.c_str() + space + 1, nullptr);
    const std::size_t semi = stack.rfind(';');
    const std::string leaf =
        semi == std::string::npos ? stack : stack.substr(semi + 1);
    std::string layer = "unattributed";
    if (const auto it = kLayerOf.find(leaf); it != kLayerOf.end()) {
      layer = it->second;
    } else if (leaf.rfind("sim/", 0) == 0) {
      layer = "cluster.pump";
    } else if (stack.find("router/score;") != std::string::npos) {
      layer = "router.score";
    }
    self_ns[layer] += ns;
  }
  return self_ns;
}

/// Per-layer probes: each layer's public function timed on the workload's
/// own trace, outside the simulator.
void ProbeLayers(const FleetWorkload& w,
                 const std::vector<serving::TimedRequest>& trace,
                 const FleetStats& stats, Report& report) {
  const std::size_t n = std::min<std::size_t>(trace.size(), 2000);
  // The replica that receives prompts: the prefill pool when there is one.
  const ReplicaSpec spec =
      Replica(w.prefill > 0 ? ReplicaRole::kPrefill : ReplicaRole::kUnified);
  const std::size_t replicas = w.unified + w.prefill + w.decode;

  // Queue depth by Little's law: arrivals per prompt-taking replica times
  // the median simulated sojourn.
  const double per_replica_rate =
      w.trace.arrival_rate_per_s /
      static_cast<double>(w.prefill > 0 ? w.prefill : w.unified);
  const auto depth = static_cast<std::size_t>(
      std::max(1.0, per_replica_rate * stats.e2e.p50 + 0.5));
  report.metrics["scheduler.queue_depth"] = static_cast<double>(depth);

  Router router(w.policy, w.slo);
  router.set_role_aware(w.prefill > 0);
  std::vector<ReplicaView> views(replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    ReplicaView& v = views[i];
    v.role = i < w.unified                ? ReplicaRole::kUnified
             : i < w.unified + w.prefill ? ReplicaRole::kPrefill
                                          : ReplicaRole::kDecode;
    v.outstanding = depth + i % 3;
    v.total_kv_blocks = spec.kv_pool_blocks;
    v.free_kv_blocks = spec.kv_pool_blocks - (37 * i) % 1024;
    v.est_ttft_seconds =
        w.slo.ttft_budget > 0 ? 0.25 * w.slo.ttft_budget * (1 + i % 3) : 0;
  }
  report.metrics["router.decide_per_s"] =
      CallsPerSecond(n, [&](std::size_t i) {
        const RouteDecision d = router.Decide(trace[i], views);
        g_sink = g_sink + d.predicted_ttft;
      });

  const serving::ServingEngine engine(spec.hw, spec.preset, spec.model,
                                      spec.options);
  serving::ContinuousBatchScheduler queue(engine, spec.kv_pool_blocks,
                                          spec.block_tokens, spec.max_batch);
  for (std::size_t i = 0; i < depth; ++i) {
    const serving::TimedRequest& r = trace[i % trace.size()];
    queue.Submit({r.id, r.prompt_tokens, r.max_new_tokens});
  }
  report.metrics["scheduler.predict_ttft_per_s"] =
      CallsPerSecond(n, [&](std::size_t i) {
        g_sink = g_sink + queue.PredictTtft(trace[i].prompt_tokens);
      });

  report.metrics["engine.prefill_per_s"] =
      CallsPerSecond(n, [&](std::size_t i) {
        g_sink = g_sink + engine.PrefillSeconds(1, trace[i].prompt_tokens);
      });
  // Decode-step and chunk costs are memoized per engine: a fresh engine per
  // pass prices the (batch, kv_len) pairs cold, a second pass re-reads them.
  const auto decode_args = [&](std::size_t i) {
    return std::pair<std::size_t, std::size_t>{
        1 + i % spec.max_batch,
        trace[i].prompt_tokens + trace[i].max_new_tokens / 2};
  };
  std::vector<double> cold;
  std::vector<double> warm;
  std::vector<double> chunk;
  for (int rep = 0; rep < 3; ++rep) {
    const serving::ServingEngine fresh(spec.hw, spec.preset, spec.model,
                                       spec.options);
    WallTimer timer;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [batch, kv] = decode_args(i);
      g_sink = g_sink + fresh.DecodeStepSeconds(batch, kv);
    }
    cold.push_back(static_cast<double>(n) / timer.Seconds());
    timer.Restart();
    for (std::size_t i = 0; i < n; ++i) {
      const auto [batch, kv] = decode_args(i);
      g_sink = g_sink + fresh.DecodeStepSeconds(batch, kv);
    }
    warm.push_back(static_cast<double>(n) / timer.Seconds());
    timer.Restart();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t len = trace[i].prompt_tokens;
      g_sink = g_sink + fresh.PrefillChunkSeconds(len - len / 2, len / 2);
    }
    chunk.push_back(static_cast<double>(n) / timer.Seconds());
  }
  report.metrics["engine.decode_cold_per_s"] = Median(cold);
  report.metrics["engine.decode_warm_per_s"] = Median(warm);
  report.metrics["engine.prefill_chunk_per_s"] = Median(chunk);

  const simgpu::KernelConfig kernel =
      simgpu::KernelConfig::For(spec.preset.kernel);
  report.metrics["simgpu.layer_walk_per_s"] =
      CallsPerSecond(n, [&](std::size_t i) {
        g_sink = g_sink + simgpu::SimulateGemmSequence(
                              spec.hw, kernel,
                              spec.model.LayerGemms(trace[i].prompt_tokens));
      });
}

/// The traced run replays the first episode only: per-layer shares need one
/// representative trace, not the seed-to-seed average.
void RunFleetTraced(const FleetWorkload& w, const Args& args, Report& report) {
  const WallTimer timer;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(w.trace, EpisodeSeed(args.seed, 0));
  report.metrics["workload.gen_s"] = timer.Seconds();
  report.metrics["workload.bytes"] = Totals(trace).bytes;

  // Unprofiled and profiled replays alternate, so host drift hits both
  // sides of the overhead ratio alike; the profile accumulates over every
  // profiled replay.
  obs::WallProfiler::Instance().Reset();
  ReplayLog log;
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::vector<double> events_per_s;
  double measured = 0;
  while (measured < args.seconds || traced_walls.empty()) {
    for (const bool profiled : {false, true}) {
      std::unique_ptr<ClusterSimulator> fleet = BuildFleet(w, trace);
      if (profiled) obs::WallProfiler::Enable();
      const FleetStats stats = fleet->Run(trace);
      obs::WallProfiler::Disable();
      const SimThroughput& st = stats.sim_throughput;
      measured += st.wall_seconds;
      if (profiled) {
        traced_walls.push_back(st.wall_seconds);
      } else {
        plain_walls.push_back(st.wall_seconds);
        events_per_s.push_back(st.events_per_sec);
      }
      log.Add(stats, report);
    }
  }
  report.gates.Check("profiled replays match unprofiled ones (" +
                         std::to_string(traced_walls.size()) + " pairs)",
                     log.identical);
  report.samples_s = traced_walls;
  report.sim = SimOutcome(log.first);

  double traced_ns = 0;
  for (const double wall : traced_walls) traced_ns += wall * 1e9;
  const std::map<std::string, double> self = LayerSelfNs();
  const auto share = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / traced_ns;
  };
  double attributed = 0;
  for (const auto& [layer, ns] : self) {
    if (layer != "unattributed") attributed += ns;
  }

  const FleetStats& stats = log.first;
  const SimThroughput& st = stats.sim_throughput;
  auto& m = report.metrics;
  m["cluster.fleet_events"] = static_cast<double>(st.fleet_events);
  m["cluster.events_per_s"] = Median(events_per_s);
  m["cluster.pump_self_frac"] = share("cluster.pump");
  m["cluster.completed"] = static_cast<double>(stats.completed);
  m["cluster.lost"] = static_cast<double>(stats.lost_requests);
  m["cluster.retried"] = static_cast<double>(stats.retried_requests);
  for (const char* key : {"ttft_p50_ms", "ttft_p99_ms", "tpot_p50_ms",
                          "tpot_p99_ms", "tokens_per_s"}) {
    m[std::string("cluster.sim_") + key] = report.sim[key];
  }
  // Every arrival and every retry is routed once.
  m["router.decisions"] =
      static_cast<double>(stats.submitted + stats.retried_requests);
  m["router.score_frac"] = share("router.score");
  m["router.views_frac"] = share("router.views");
  m["router.other_frac"] = share("router.other");
  m["router.rejected"] = static_cast<double>(stats.rejected_requests);
  m["router.prefix_hit_ratio"] = stats.prefix_hit_ratio;
  m["scheduler.steps"] = static_cast<double>(st.engine_iterations);
  m["scheduler.admit_frac"] = share("scheduler.admit");
  m["scheduler.decode_frac"] = share("scheduler.decode");
  m["scheduler.retire_frac"] = share("scheduler.retire");
  m["scheduler.prefill_chunk_frac"] = share("scheduler.prefill_chunk");
  m["scheduler.step_self_frac"] = share("scheduler.step_self");
  m["scheduler.preemptions"] = static_cast<double>(stats.preemptions);
  m["scheduler.mean_batch"] =
      stats.generated_tokens / static_cast<double>(st.engine_iterations);
  m["disagg.handoffs"] = static_cast<double>(stats.disagg.prefill_handoffs);
  m["disagg.migrations"] = static_cast<double>(stats.disagg.migrated_requests);
  m["disagg.local_fallbacks"] =
      static_cast<double>(stats.disagg.local_decode_fallbacks);
  m["disagg.plan_frac"] = share("disagg.plan");
  m["disagg.land_frac"] = share("disagg.land");
  m["disagg.sim_migration_p99_ms"] = report.sim["migration_p99_ms"];
  m["kv.prefix_hits"] = static_cast<double>(stats.prefix_hits);
  m["kv.tokens_saved"] = stats.prefill_tokens_saved;
  m["kv.import_ooms"] = static_cast<double>(stats.disagg.import_ooms);
  m["obs.trace_overhead_frac"] =
      Median(traced_walls) / Median(plain_walls) - 1.0;
  m["obs.attributed_frac"] = attributed / traced_ns;
  ProbeLayers(w, trace, stats, report);

  report.gates.Check("traced run attributes >= 90% of Run() wall to layers",
                     m["obs.attributed_frac"] >= 0.9);
}

// ------------------------------------------------------------------ GEMM ---

constexpr std::size_t kGemmN = 4096;  // Llama-2-7B o_proj: 4096 x 4096
constexpr std::size_t kGemmK = 4096;
constexpr std::size_t kDecodeM = 16;
constexpr std::size_t kPrefillM = 512;
constexpr int kDecodeCallsPerRound = 150;
constexpr int kPrefillCallsPerRound = 8;

struct GemmShapeInputs {
  std::size_t m = 0;
  MatrixF x;
  QuantizedActivations xq;
};

MatrixF RandomMatrix(std::size_t rows, std::size_t cols, double stddev,
                     Rng& rng) {
  MatrixF out(rows, cols);
  for (float& v : out.Flat()) v = static_cast<float>(rng.Normal(0, stddev));
  return out;
}

double Gops(std::size_t m, double seconds) {
  return 2.0 * static_cast<double>(m * kGemmN * kGemmK) / seconds / 1e9;
}

bool SameBits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Inputs from the seed: the weight, and one activation matrix per shape.
struct GemmInputs {
  MatrixF weight;
  std::vector<GemmShapeInputs> shapes;  ///< decode, prefill
};

GemmInputs MakeGemmInputs(std::uint64_t seed) {
  Rng rng(seed);
  GemmInputs in;
  in.weight = RandomMatrix(kGemmN, kGemmK, 0.05, rng);
  for (const std::size_t m : {kDecodeM, kPrefillM}) {
    GemmShapeInputs s;
    s.m = m;
    s.x = RandomMatrix(m, kGemmK, 1.0, rng);
    s.xq = QuantizeActivationsPerToken(s.x);
    in.shapes.push_back(std::move(s));
  }
  return in;
}

/// Bit-exact oracle, one output per shape: LiquidGemm through the scalar
/// reference provider.
std::vector<MatrixF> ComputeReferences(const GemmInputs& in,
                                       const LqqWeights& w, Gates& gates) {
  std::vector<MatrixF> references;
  for (const GemmShapeInputs& s : in.shapes) {
    references.push_back(GemmW4A8Liquid(s.xq, w, GemmProvider::kReference));
    const MatrixF active = LiquidGemm(s.x, w);
    gates.Check("M=" + std::to_string(s.m) +
                    " LiquidGemm bit-exact against the reference provider",
                SameBits(active, references.back()));
  }
  return references;
}

void RunGemmUntraced(const Args& args, Report& report) {
  std::vector<double> setup;
  std::vector<MatrixF> references;
  std::vector<double> decode;
  std::vector<double> prefill;
  double measured = 0;
  // A round regenerates the inputs and quantizes the weight (the set-up),
  // then times a batch of calls at each shape.
  for (int round = 0; measured < args.seconds || round < kMinRounds;
       ++round) {
    const WallTimer setup_timer;
    const GemmInputs in = MakeGemmInputs(args.seed);
    const LqqWeights lqq = QuantizeWeightsLqq(in.weight);
    setup.push_back(setup_timer.Seconds());
    if (references.empty()) {
      references = ComputeReferences(in, lqq, report.gates);
    }

    for (std::size_t si = 0; si < in.shapes.size(); ++si) {
      const GemmShapeInputs& s = in.shapes[si];
      const bool is_decode = s.m == kDecodeM;
      const int calls =
          is_decode ? kDecodeCallsPerRound : kPrefillCallsPerRound;
      for (int c = 0; c < calls; ++c) {
        const WallTimer timer;
        const MatrixF y = LiquidGemm(s.x, lqq);
        const double t = timer.Seconds();
        measured += t;
        (is_decode ? decode : prefill).push_back(t);
        ++report.attempted;
        if (!SameBits(y, references[si])) ++report.failed;
      }
    }
  }
  report.gates.Check("every timed call matches the reference bit for bit",
                     report.failed == 0);
  report.samples_s = decode;
  report.metrics["host_decode_tok_per_s"] =
      static_cast<double>(kDecodeM) / Fastest(decode);
  report.metrics["host_prefill_tok_per_s"] =
      static_cast<double>(kPrefillM) / Fastest(prefill);
  report.metrics["setup_s"] = Median(setup);
  report.metrics["peak_rss_mb"] = PeakRssMb();
}

void RunGemmTraced(const Args& args, Report& report) {
  const WallTimer timer;
  const GemmInputs in = MakeGemmInputs(args.seed);
  report.metrics["workload.gen_s"] = timer.Seconds();
  report.metrics["workload.bytes"] = static_cast<double>(
      sizeof(float) * (in.weight.size() + in.shapes[0].x.size() +
                       in.shapes[1].x.size()));
  const LqqWeights lqq = QuantizeWeightsLqq(in.weight);
  const QserveWeights qserve = QuantizeWeightsQserve(in.weight);
  const W8A8Weights w8a8 = QuantizeWeightsW8A8(in.weight);
  const std::vector<MatrixF> references =
      ComputeReferences(in, lqq, report.gates);

  // Per shape: the whole LiquidGemm call, then its two stages timed apart
  // (activation quantization, W4A8 kernel), then the QServe and W8A8 kernels
  // on the same quantized activations.
  struct Times {
    std::vector<double> whole, act_quant, liquid, qserve, w8a8;
  };
  Times times[2];
  double measured = 0;
  while (measured < args.seconds || times[1].whole.empty()) {
    for (std::size_t si = 0; si < 2; ++si) {
      const GemmShapeInputs& s = in.shapes[si];
      // Each call is timed five ways, so a round makes fewer calls.
      const int calls = si == 0 ? kDecodeCallsPerRound / 3 : 2;
      Times& t = times[si];
      for (int c = 0; c < calls; ++c) {
        const auto timed = [&](std::vector<double>& into, auto&& fn) {
          const WallTimer call;
          fn();
          const double sec = call.Seconds();
          into.push_back(sec);
          measured += sec;
        };
        MatrixF y;
        timed(t.whole, [&] { y = LiquidGemm(s.x, lqq); });
        QuantizedActivations xq;
        timed(t.act_quant, [&] { xq = QuantizeActivationsPerToken(s.x); });
        timed(t.liquid, [&] { y = GemmW4A8Liquid(xq, lqq); });
        ++report.attempted;
        if (!SameBits(y, references[si])) ++report.failed;
        timed(t.qserve,
              [&] { g_sink = g_sink + GemmW4A8Qserve(xq, qserve)(0, 0); });
        timed(t.w8a8, [&] { g_sink = g_sink + GemmW8A8(xq, w8a8)(0, 0); });
      }
    }
  }
  report.gates.Check("every staged call matches the reference bit for bit",
                     report.failed == 0);
  report.samples_s = times[0].whole;

  auto& m = report.metrics;
  const char* shape_names[2] = {"decode", "prefill"};
  for (std::size_t si = 0; si < 2; ++si) {
    const Times& t = times[si];
    const std::size_t rows = in.shapes[si].m;
    const std::string shape = shape_names[si];
    m["gemm.liquid_" + shape + "_gops"] = Gops(rows, Median(t.liquid));
    m["gemm.qserve_" + shape + "_gops"] = Gops(rows, Median(t.qserve));
    m["gemm.w8a8_" + shape + "_gops"] = Gops(rows, Median(t.w8a8));
    m["gemm.dequant_overhead_" + shape] =
        Median(t.liquid) / Median(t.w8a8) - 1.0;
  }
  const Times& d = times[0];
  const double staged = Median(d.act_quant) + Median(d.liquid);
  m["gemm.act_quant_frac"] = Median(d.act_quant) / staged;
  m["gemm.decode_p90_over_p50"] = Percentile(d.whole, 90) / Median(d.whole);
  // Bytes one decode call moves, as the GEMM counters compute them from
  // tensor sizes (weights + activations + output).
  gemmstats::ResetGemmCounters();
  g_sink = g_sink + GemmW4A8Liquid(in.shapes[0].xq, lqq)(0, 0);
  m["gemm.decode_bytes_per_call"] = static_cast<double>(
      gemmstats::Totals(gemmstats::Kernel::kW4A8Lqq).bytes);
}

// ----------------------------------------------------------------- output ---

std::size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// OpenMP max threads before and after main() pins it to one.
struct OmpThreads {
  int before_pin = 1;
  int pinned = 1;
};

void WriteProvenance(JsonWriter& w, const Args& args, const OmpThreads& omp) {
  w.Key("provenance").BeginObject();
  w.Key("nproc").Number(static_cast<std::uint64_t>(AffinityCpus()));
  w.Key("hardware_concurrency")
      .Number(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.Key("omp_max_threads").Number(static_cast<std::int64_t>(omp.pinned));
  w.Key("omp_threads_before_pin")
      .Number(static_cast<std::int64_t>(omp.before_pin));
  w.Key("gemm_provider").String(GemmProviderName(ActiveGemmProvider()));
  w.Key("compiler").String(LIQUID_BENCH_COMPILER);
  w.Key("build_type").String(LIQUID_BENCH_BUILD_TYPE);
#if defined(LIQUID_PROFILE) && LIQUID_PROFILE
  w.Key("liquid_profile").Bool(true);
#else
  w.Key("liquid_profile").Bool(false);
#endif
  w.Key("seed").Number(args.seed);
  w.Key("git_sha").String(args.git_sha);
  w.EndObject();
}

void WriteNumbers(JsonWriter& w, const char* key,
                  const std::map<std::string, double>& values) {
  w.Key(key).BeginObject();
  for (const auto& [name, value] : values) w.Key(name).Number(value);
  w.EndObject();
}

bool WriteReport(const Args& args, const Report& report,
                 const OmpThreads& omp) {
  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(args.workload);
  w.Key("seed").Number(args.seed);
  w.Key("traced").Bool(args.traced);
  w.Key("seconds").Number(args.seconds);
  WriteProvenance(w, args, omp);
  w.Key("correct").Bool(report.gates.AllPassed());
  w.Key("attempted").Number(report.attempted);
  w.Key("failed").Number(report.failed);
  w.Key("gates").BeginArray();
  for (const auto& [name, ok] : report.gates.results) {
    w.BeginObject().Key("gate").String(name).Key("ok").Bool(ok).EndObject();
  }
  w.EndArray();
  WriteNumbers(w, "metrics", report.metrics);
  WriteNumbers(w, "sim", report.sim);
  w.Key("samples_s").BeginArray();
  for (const double s : report.samples_s) w.Number(s);
  w.EndArray();
  w.EndObject();
  std::string json = w.TakeString();
  json.push_back('\n');
  std::FILE* f = std::fopen(args.json_out.c_str(), "w");
  const bool ok = f != nullptr &&
                  std::fwrite(json.data(), 1, json.size(), f) == json.size();
  if (f != nullptr) std::fclose(f);
  if (!ok) std::fprintf(stderr, "FAILED to write %s\n", args.json_out.c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  OmpThreads omp;
#if defined(_OPENMP)
  // One thread.  On a shared 4-vCPU host the median M=16 call took 2.6 to
  // 4.5 ms from one process to the next at 4 threads (single calls up to
  // 49 ms), and 8.7 to 9.1 ms at 1 thread.
  omp.before_pin = omp_get_max_threads();
  omp_set_num_threads(1);
  omp.pinned = omp_get_max_threads();
#endif

  Report report;
  if (args.workload == "w4a8_gemm_4k") {
    args.traced ? RunGemmTraced(args, report) : RunGemmUntraced(args, report);
  } else {
    const std::vector<FleetWorkload> fleets = FleetWorkloads();
    const auto it = std::find_if(
        fleets.begin(), fleets.end(),
        [&](const FleetWorkload& f) { return args.workload == f.name; });
    if (it == fleets.end()) {
      Usage(("unknown workload " + args.workload).c_str());
    }
    args.traced ? RunFleetTraced(*it, args, report)
                : RunFleetUntraced(*it, args, report);
  }
  if (!WriteReport(args, report, omp)) return 1;
  return report.gates.AllPassed() ? 0 : 1;
}
