// Telemetry determinism: the canonical chaos + autoscale + disagg episode
// with a recorder and metrics attached must (1) behave byte-for-byte like the
// untraced run — attaching telemetry is observation, not perturbation — and
// (2) export byte-identical artifacts on every same-seed run, pinned by an
// FNV-1a golden hash so silent drift in the exporters or the event stream
// fails CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "serving/workload.hpp"
#include "util/json.hpp"

namespace liquid::cluster {
namespace {

[[nodiscard]] std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

ReplicaSpec CanonicalReplica(ReplicaRole role) {
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

/// The canonical telemetry episode: a 2P:4D disaggregated fleet with decode
/// autoscaling, one mid-run kill, and a kilotoken mix — every trace hook
/// fires (arrivals, routes, spans, migrations, kill, retries, scale events).
/// The report's wall-clock fields are zeroed.
FleetStats RunCanonicalEpisode(obs::TraceRecorder* recorder,
                               obs::MetricsRegistry* metrics) {
  AutoscaleConfig autoscale;
  autoscale.cooldown_seconds = 2.0;
  autoscale.tick_seconds = 0.5;
  AutoscalePool decode_pool;
  decode_pool.role = ReplicaRole::kDecode;
  decode_pool.spec = CanonicalReplica(ReplicaRole::kDecode);
  decode_pool.signal = AutoscaleSignal::kFreeKv;
  decode_pool.high = 0.85;
  decode_pool.low = 0.05;
  decode_pool.min_replicas = 1;
  decode_pool.max_replicas = 6;
  autoscale.pools = {decode_pool};

  DisaggConfig disagg;
  disagg.interconnect.bandwidth_gb_per_s = 400.0;
  disagg.max_migration_seconds = 0.25;

  ClusterSimulator sim(RoutePolicy::kLeastOutstanding, autoscale, {}, {},
                       disagg);
  for (int i = 0; i < 2; ++i) {
    sim.AddReplica(CanonicalReplica(ReplicaRole::kPrefill));
  }
  // Undersized decode pool: KV pressure crosses the kFreeKv high watermark
  // mid-burst, so the trace records scale-up events.
  for (int i = 0; i < 2; ++i) {
    sim.AddReplica(CanonicalReplica(ReplicaRole::kDecode));
  }

  serving::TraceConfig config;
  config.arrival_rate_per_s = 28.0;
  config.count = 160;
  config.prompt_min = 2048;
  config.prompt_max = 8192;
  config.output_min = 32;
  config.output_max = 128;
  config.sessions = 32;
  const std::vector<serving::TimedRequest> trace =
      serving::GenerateTrace(config, /*seed=*/515);

  // Kill a prefill replica: the prefill pool has no autoscale pool, so the
  // victim is guaranteed alive at kill time regardless of decode shrinks.
  sim.ScheduleKill({trace[trace.size() / 2].arrival_seconds, /*replica=*/1});
  sim.AttachTelemetry(recorder, metrics);
  FleetStats stats = sim.Run(trace);
  stats.sim_throughput.ClearWallClock();
  return stats;
}

TEST(TelemetryDeterminismTest, AttachingTelemetryDoesNotPerturbTheRun) {
  const FleetStats untraced = RunCanonicalEpisode(nullptr, nullptr);
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const FleetStats traced = RunCanonicalEpisode(&recorder, &metrics);
  // Byte-identical summaries: telemetry observed the identical simulation.
  EXPECT_EQ(FleetStatsToJson(untraced), FleetStatsToJson(traced));
  EXPECT_FALSE(recorder.empty());
  EXPECT_GT(metrics.rows(), 0u);
}

TEST(TelemetryDeterminismTest, SameSeedByteIdenticalArtifacts) {
  obs::TraceRecorder rec_a, rec_b;
  obs::MetricsRegistry met_a, met_b;
  RunCanonicalEpisode(&rec_a, &met_a);
  RunCanonicalEpisode(&rec_b, &met_b);
  EXPECT_EQ(rec_a.ToChromeTraceJson(), rec_b.ToChromeTraceJson());
  EXPECT_EQ(rec_a.ToJsonl(), rec_b.ToJsonl());
  EXPECT_EQ(met_a.ToJsonl(), met_b.ToJsonl());
  EXPECT_EQ(met_a.ToCsv(), met_b.ToCsv());
}

TEST(TelemetryDeterminismTest, CanonicalEpisodeGoldenHashes) {
  obs::TraceRecorder recorder;
  obs::MetricsRegistry metrics;
  const FleetStats stats = RunCanonicalEpisode(&recorder, &metrics);

  const std::string chrome = recorder.ToChromeTraceJson();
  const std::string trace_jsonl = recorder.ToJsonl();
  const std::string metrics_jsonl = metrics.ToJsonl();
  ASSERT_TRUE(JsonSyntaxValid(chrome));

  // The episode exercised the full event surface before anything is pinned.
  EXPECT_GT(stats.disagg.migrated_requests, 0u);
  EXPECT_EQ(stats.killed_replicas, 1u);
  EXPECT_GT(stats.scale_ups, 0u);
  EXPECT_NE(chrome.find("\"name\":\"migration_land\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"kill\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"scale_up\""), std::string::npos);
  EXPECT_NE(chrome.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(chrome.find("\"cat\":\"kvflow\""), std::string::npos);

  std::printf("telemetry goldens: events=%zu rows=%zu chrome=%llu "
              "trace_jsonl=%llu metrics_jsonl=%llu\n",
              recorder.size(), metrics.rows(),
              static_cast<unsigned long long>(Fnv1a(chrome)),
              static_cast<unsigned long long>(Fnv1a(trace_jsonl)),
              static_cast<unsigned long long>(Fnv1a(metrics_jsonl)));

  // Golden byte hashes for the canonical episode.  These pin the recorded
  // event stream AND the exporters: if an intentional change shifts them,
  // re-run this test and update the literals alongside the change.
  EXPECT_EQ(Fnv1a(chrome), 17777947067110539556ull);
  EXPECT_EQ(Fnv1a(trace_jsonl), 1129426537860808181ull);
  EXPECT_EQ(Fnv1a(metrics_jsonl), 7926352182877922469ull);
}

}  // namespace
}  // namespace liquid::cluster
