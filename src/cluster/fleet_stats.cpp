#include "cluster/fleet_stats.hpp"

#include <algorithm>

#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace liquid::cluster {

PercentileTriple SummarizePercentiles(std::span<double> values) {
  static constexpr double kRanks[] = {99, 95, 50};
  double out[3];
  PercentilesInPlace(values, kRanks, out);
  PercentileTriple t;
  t.p99 = out[0];
  t.p95 = out[1];
  t.p50 = out[2];
  return t;
}

void FinalizeFleetStats(LatencySamples& samples, FleetStats& stats) {
  const double first_arrival = samples.first_arrival;
  const double last_finish = samples.last_finish;
  stats.generated_tokens = samples.generated_tokens;
  stats.ttft = SummarizePercentiles(samples.ttft);
  stats.tpot = SummarizePercentiles(samples.tpot);
  stats.e2e = SummarizePercentiles(samples.e2e);
  stats.disagg.migrated_tpot = SummarizePercentiles(samples.migrated_tpot);
  stats.span_seconds = last_finish - first_arrival;
  stats.throughput_tokens_per_s =
      stats.span_seconds > 0 ? stats.generated_tokens / stats.span_seconds : 0;

  stats.completed = 0;
  stats.dropped = 0;
  stats.preemptions = 0;
  stats.cost_dollars = 0;
  stats.prefill_pool_dollars = 0;
  stats.decode_pool_dollars = 0;
  stats.prefix_hits = 0;
  stats.prefill_tokens_saved = 0;
  for (ReplicaReport& r : stats.replicas) {
    stats.completed += r.stats.completed;
    stats.dropped += r.stats.dropped;
    stats.preemptions += r.stats.preemptions;
    stats.prefix_hits += r.stats.prefix_hits;
    stats.prefill_tokens_saved += r.stats.prefill_tokens_saved;
    // Billing window: joined → gracefully retired, where never-retired (and
    // killed) replicas bill to the end of the span.  Replicas present from
    // t = 0 with no retirement reproduce the legacy full-span bill exactly.
    const double billed_from = std::max(r.added_at, first_arrival);
    const double billed_to = r.retired_at >= 0 ? r.retired_at : last_finish;
    r.billed_seconds = std::max(0.0, billed_to - billed_from);
    r.cost_dollars = r.dollars_per_hour * r.billed_seconds / 3600.0;
    stats.cost_dollars += r.cost_dollars;
    // Utilization over the replica's own billed window (== the fleet span
    // for replicas that served start to finish), so a late scale-up that
    // was busy its whole short life reads near 100%, not span-diluted.
    r.utilization =
        r.billed_seconds > 0 ? r.stats.busy_seconds / r.billed_seconds : 0;
    if (r.role == ReplicaRole::kPrefill) {
      stats.prefill_pool_dollars += r.cost_dollars;
    } else {
      stats.decode_pool_dollars += r.cost_dollars;
    }
  }
  stats.dollars_per_m_tokens =
      stats.generated_tokens > 0
          ? stats.cost_dollars / (stats.generated_tokens / 1e6)
          : 0;
  stats.prefix_hit_ratio =
      stats.submitted > 0 ? static_cast<double>(stats.prefix_hits) /
                                static_cast<double>(stats.submitted)
                          : 0;
}

std::vector<std::string> CheckFleetInvariants(const FleetStats& s) {
  std::vector<std::string> broken;
  const std::size_t out =
      s.completed + s.dropped + s.rejected_requests + s.lost_requests;
  if (out != s.submitted + s.retried_requests) {
    broken.push_back(Format(
        "conservation: completed %zu + dropped %zu + rejected %zu + lost %zu "
        "= %zu != submitted %zu + retried %zu",
        s.completed, s.dropped, s.rejected_requests, s.lost_requests, out,
        s.submitted, s.retried_requests));
  }
  if (s.lost_requests != s.retried_requests + s.retries_exhausted) {
    broken.push_back(Format(
        "retry budget: lost %zu != retried %zu + retries_exhausted %zu",
        s.lost_requests, s.retried_requests, s.retries_exhausted));
  }
  if (s.disagg.in_migration != 0) {
    broken.push_back(Format("in migration: %zu requests still on the wire",
                            s.disagg.in_migration));
  }
  if (s.scale_ups + s.scale_downs != s.scale_events.size()) {
    broken.push_back(Format(
        "scale events: scale_ups %zu + scale_downs %zu != %zu events",
        s.scale_ups, s.scale_downs, s.scale_events.size()));
  }
  std::string negative;
  if (s.wasted_tokens < 0) {
    negative += Format(" wasted_tokens %g", s.wasted_tokens);
  }
  for (const ReplicaReport& r : s.replicas) {
    if (r.billed_seconds < 0) {
      negative += Format(" replica %zu billed_seconds %g", r.id,
                         r.billed_seconds);
    }
  }
  if (!negative.empty()) broken.push_back("non-negative:" + negative);
  return broken;
}

void PrintFleetStats(const FleetStats& stats) {
  Table fleet("Fleet summary");
  fleet.SetHeader({"metric", "p50", "p95", "p99"});
  fleet.AddRow({"TTFT", HumanTime(stats.ttft.p50), HumanTime(stats.ttft.p95),
                HumanTime(stats.ttft.p99)});
  fleet.AddRow({"TPOT", HumanTime(stats.tpot.p50), HumanTime(stats.tpot.p95),
                HumanTime(stats.tpot.p99)});
  fleet.AddRow({"end-to-end", HumanTime(stats.e2e.p50),
                HumanTime(stats.e2e.p95), HumanTime(stats.e2e.p99)});
  fleet.Print();

  Table totals;
  totals.SetHeader({"metric", "value"});
  totals.AddRow({"submitted", std::to_string(stats.submitted)});
  totals.AddRow({"completed", std::to_string(stats.completed)});
  totals.AddRow({"dropped", std::to_string(stats.dropped)});
  totals.AddRow({"preemptions", std::to_string(stats.preemptions)});
  totals.AddRow({"rejected (SLO 429)", std::to_string(stats.rejected_requests)});
  totals.AddRow({"rerouted (scale-down)", std::to_string(stats.rerouted)});
  totals.AddRow({"killed replicas", std::to_string(stats.killed_replicas)});
  totals.AddRow({"lost in-flight / retried",
                 Format("%zu / %zu", stats.lost_requests,
                        stats.retried_requests)});
  totals.AddRow({"max retry attempts",
                 std::to_string(stats.max_retry_attempts)});
  if (stats.retries_exhausted > 0) {
    totals.AddRow({"retries exhausted",
                   std::to_string(stats.retries_exhausted)});
  }
  totals.AddRow({"wasted tokens (lost + import OOM)",
                 WithCommas(static_cast<long long>(stats.wasted_tokens))});
  if (stats.degraded_replicas > 0) {
    totals.AddRow({"degraded replicas",
                   std::to_string(stats.degraded_replicas)});
  }
  if (stats.prefix_hits > 0) {
    totals.AddRow({"prefix-cache hits",
                   Format("%zu (%.1f%% of submitted)", stats.prefix_hits,
                          100.0 * stats.prefix_hit_ratio)});
    totals.AddRow({"prefill tokens saved",
                   WithCommas(static_cast<long long>(
                       stats.prefill_tokens_saved))});
  }
  totals.AddRow({"scale-ups / scale-downs",
                 Format("%zu / %zu", stats.scale_ups, stats.scale_downs)});
  totals.AddRow({"final active replicas", std::to_string(stats.replicas_final)});
  totals.AddRow({"span", HumanTime(stats.span_seconds)});
  totals.AddRow({"fleet throughput (tok/s)",
                 WithCommas(static_cast<long long>(
                     stats.throughput_tokens_per_s))});
  if (stats.cost_dollars > 0) {
    totals.AddRow({"fleet cost (prefill + decode)",
                   Format("$%.4f ($%.4f + $%.4f)", stats.cost_dollars,
                          stats.prefill_pool_dollars,
                          stats.decode_pool_dollars)});
    totals.AddRow(
        {"$ / 1M tokens", Format("$%.3f", stats.dollars_per_m_tokens)});
  }
  totals.Print();

  const SimThroughput& st = stats.sim_throughput;
  if (st.events_processed > 0) {
    Table sim("Simulator throughput");
    sim.SetHeader({"metric", "value"});
    sim.AddRow({"events processed (engine + fleet)",
                Format("%s (%s + %s)",
                       WithCommas(static_cast<long long>(st.events_processed))
                           .c_str(),
                       WithCommas(static_cast<long long>(st.engine_iterations))
                           .c_str(),
                       WithCommas(static_cast<long long>(st.fleet_events))
                           .c_str())});
    sim.AddRow({"wall time", Format("%.3f s", st.wall_seconds)});
    sim.AddRow({"events / sec",
                WithCommas(static_cast<long long>(st.events_per_sec))});
    sim.AddRow({"sim seconds / wall second",
                Format("%.1f", st.sim_seconds_per_wall_second)});
    sim.AddRow({"wall seconds / sim hour",
                Format("%.3f", st.wall_seconds_per_sim_hour)});
    sim.Print();
  }

  const DisaggStats& d = stats.disagg;
  if (d.prefill_handoffs > 0 || d.migrated_requests > 0) {
    Table disagg("Disaggregated serving");
    disagg.SetHeader({"metric", "value"});
    disagg.AddRow({"prefill / decode replicas",
                   Format("%zu / %zu", d.prefill_replicas,
                          d.decode_replicas)});
    disagg.AddRow({"prefill handoffs", std::to_string(d.prefill_handoffs)});
    disagg.AddRow({"migrated requests", std::to_string(d.migrated_requests)});
    disagg.AddRow({"migrated KV",
                   Format("%.1f MB", d.migrated_kv_bytes / 1e6)});
    disagg.AddRow({"local-decode fallbacks",
                   std::to_string(d.local_decode_fallbacks)});
    disagg.AddRow({"import OOMs / target deaths",
                   Format("%zu / %zu", d.import_ooms, d.target_deaths)});
    disagg.AddRow({"migration stall p50/p99",
                   Format("%s / %s", HumanTime(d.migration_seconds.p50).c_str(),
                          HumanTime(d.migration_seconds.p99).c_str())});
    disagg.AddRow({"migrated TPOT p50/p99",
                   Format("%s / %s", HumanTime(d.migrated_tpot.p50).c_str(),
                          HumanTime(d.migrated_tpot.p99).c_str())});
    disagg.Print();
  }

  if (!stats.scale_events.empty()) {
    Table scaling("Autoscale events");
    scaling.SetHeader({"t", "event", "role", "replica", "signal"});
    for (const ScaleEvent& e : stats.scale_events) {
      scaling.AddRow({HumanTime(e.time), e.up ? "scale-up" : "scale-down",
                      ToString(e.role), std::to_string(e.replica),
                      Format("%.3g", e.signal_value)});
    }
    scaling.Print();
  }

  bool priced = false;
  for (const ReplicaReport& r : stats.replicas) {
    priced |= r.dollars_per_hour > 0;
  }
  Table per_replica("Per-replica");
  std::vector<std::string> header = {"id",        "config",  "role",
                                     "state",     "routed",  "completed",
                                     "preempt",   "util"};
  if (priced) header.push_back("billed");
  per_replica.SetHeader(header);
  for (const ReplicaReport& r : stats.replicas) {
    std::vector<std::string> row = {
        std::to_string(r.id), r.label, ToString(r.role),
        r.killed ? "killed" : (r.active ? "active" : "removed"),
        std::to_string(r.submitted), std::to_string(r.stats.completed),
        std::to_string(r.stats.preemptions),
        Format("%.1f%%", 100.0 * r.utilization)};
    if (priced) {
      row.push_back(Format("%s ($%.3f)", HumanTime(r.billed_seconds).c_str(),
                           r.cost_dollars));
    }
    per_replica.AddRow(row);
  }
  per_replica.Print();
}

namespace {

void WriteTriple(JsonWriter& w, const char* key, const PercentileTriple& t) {
  w.Key(key).BeginObject();
  w.Key("p50").Number(t.p50);
  w.Key("p95").Number(t.p95);
  w.Key("p99").Number(t.p99);
  w.EndObject();
}

}  // namespace

std::string FleetStatsToJson(const FleetStats& stats) {
  JsonWriter w;
  w.BeginObject();
  WriteFleetStatsMembers(w, stats);
  w.EndObject();
  return w.TakeString();
}

void WriteFleetStatsMembers(JsonWriter& w, const FleetStats& stats) {
  w.Key("submitted").Number(static_cast<std::uint64_t>(stats.submitted));
  w.Key("completed").Number(static_cast<std::uint64_t>(stats.completed));
  w.Key("dropped").Number(static_cast<std::uint64_t>(stats.dropped));
  w.Key("preemptions").Number(static_cast<std::uint64_t>(stats.preemptions));
  w.Key("rerouted").Number(static_cast<std::uint64_t>(stats.rerouted));
  w.Key("scale_ups").Number(static_cast<std::uint64_t>(stats.scale_ups));
  w.Key("scale_downs").Number(static_cast<std::uint64_t>(stats.scale_downs));
  w.Key("replicas_final")
      .Number(static_cast<std::uint64_t>(stats.replicas_final));
  w.Key("killed_replicas")
      .Number(static_cast<std::uint64_t>(stats.killed_replicas));
  w.Key("lost_requests")
      .Number(static_cast<std::uint64_t>(stats.lost_requests));
  w.Key("retried_requests")
      .Number(static_cast<std::uint64_t>(stats.retried_requests));
  w.Key("rejected_requests")
      .Number(static_cast<std::uint64_t>(stats.rejected_requests));
  w.Key("retries_exhausted")
      .Number(static_cast<std::uint64_t>(stats.retries_exhausted));
  w.Key("max_retry_attempts")
      .Number(static_cast<std::uint64_t>(stats.max_retry_attempts));
  w.Key("wasted_tokens").Number(stats.wasted_tokens);
  w.Key("degraded_replicas")
      .Number(static_cast<std::uint64_t>(stats.degraded_replicas));
  w.Key("prefix_hits").Number(static_cast<std::uint64_t>(stats.prefix_hits));
  w.Key("prefill_tokens_saved").Number(stats.prefill_tokens_saved);
  w.Key("prefix_hit_ratio").Number(stats.prefix_hit_ratio);
  w.Key("span_seconds").Number(stats.span_seconds);
  w.Key("generated_tokens").Number(stats.generated_tokens);
  w.Key("throughput_tokens_per_s").Number(stats.throughput_tokens_per_s);
  w.Key("cost_dollars").Number(stats.cost_dollars);
  w.Key("prefill_pool_dollars").Number(stats.prefill_pool_dollars);
  w.Key("decode_pool_dollars").Number(stats.decode_pool_dollars);
  w.Key("dollars_per_m_tokens").Number(stats.dollars_per_m_tokens);
  WriteTriple(w, "ttft", stats.ttft);
  WriteTriple(w, "tpot", stats.tpot);
  WriteTriple(w, "e2e", stats.e2e);

  const SimThroughput& st = stats.sim_throughput;
  w.Key("sim_throughput").BeginObject();
  w.Key("events_processed").Number(st.events_processed);
  w.Key("engine_iterations").Number(st.engine_iterations);
  w.Key("fleet_events").Number(st.fleet_events);
  w.Key("sim_seconds").Number(st.sim_seconds);
  w.Key("wall_seconds").Number(st.wall_seconds);
  w.Key("events_per_sec").Number(st.events_per_sec);
  w.Key("sim_seconds_per_wall_second").Number(st.sim_seconds_per_wall_second);
  w.Key("wall_seconds_per_sim_hour").Number(st.wall_seconds_per_sim_hour);
  w.EndObject();

  const DisaggStats& d = stats.disagg;
  w.Key("disagg").BeginObject();
  w.Key("prefill_replicas")
      .Number(static_cast<std::uint64_t>(d.prefill_replicas));
  w.Key("decode_replicas")
      .Number(static_cast<std::uint64_t>(d.decode_replicas));
  w.Key("prefill_handoffs")
      .Number(static_cast<std::uint64_t>(d.prefill_handoffs));
  w.Key("migrated_requests")
      .Number(static_cast<std::uint64_t>(d.migrated_requests));
  w.Key("migrated_kv_bytes").Number(d.migrated_kv_bytes);
  w.Key("local_decode_fallbacks")
      .Number(static_cast<std::uint64_t>(d.local_decode_fallbacks));
  w.Key("import_ooms").Number(static_cast<std::uint64_t>(d.import_ooms));
  w.Key("target_deaths").Number(static_cast<std::uint64_t>(d.target_deaths));
  w.Key("in_migration").Number(static_cast<std::uint64_t>(d.in_migration));
  WriteTriple(w, "migration_seconds", d.migration_seconds);
  WriteTriple(w, "migrated_tpot", d.migrated_tpot);
  w.EndObject();

  w.Key("scale_events").BeginArray();
  for (const ScaleEvent& e : stats.scale_events) {
    w.BeginObject();
    w.Key("t").Number(e.time);
    w.Key("up").Bool(e.up);
    w.Key("role").String(ToString(e.role));
    w.Key("replica").Number(static_cast<std::uint64_t>(e.replica));
    w.Key("signal").Number(e.signal_value);
    w.EndObject();
  }
  w.EndArray();

  w.Key("replicas").BeginArray();
  for (const ReplicaReport& r : stats.replicas) {
    w.BeginObject();
    w.Key("id").Number(static_cast<std::uint64_t>(r.id));
    w.Key("label").String(r.label);
    w.Key("role").String(ToString(r.role));
    w.Key("state").String(r.killed ? "killed"
                                   : (r.active ? "active" : "removed"));
    w.Key("submitted").Number(static_cast<std::uint64_t>(r.submitted));
    w.Key("completed").Number(static_cast<std::uint64_t>(r.stats.completed));
    w.Key("preemptions")
        .Number(static_cast<std::uint64_t>(r.stats.preemptions));
    w.Key("iterations").Number(static_cast<std::uint64_t>(r.stats.iterations));
    w.Key("generated_tokens").Number(r.stats.generated_tokens);
    w.Key("utilization").Number(r.utilization);
    w.Key("dollars_per_hour").Number(r.dollars_per_hour);
    w.Key("added_at").Number(r.added_at);
    w.Key("retired_at").Number(r.retired_at);
    w.Key("billed_seconds").Number(r.billed_seconds);
    w.Key("cost_dollars").Number(r.cost_dollars);
    w.EndObject();
  }
  w.EndArray();
}

}  // namespace liquid::cluster
