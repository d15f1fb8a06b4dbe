#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "obs/prof/wall_profiler.hpp"
#include "util/wall_timer.hpp"

namespace liquid::cluster {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Window of the tokens_per_s_window metric gauge.
constexpr double kTokensWindowSeconds = 10.0;
/// Prompt size that probes PredictTtft-based admission feasibility before a
/// scale-down: the removal is vetoed when no surviving prompt-eligible
/// replica could admit such a prompt within the TTFT SLO.
constexpr std::size_t kSloProbePromptTokens = 512;

}  // namespace

ClusterSimulator::ClusterSimulator(RoutePolicy policy,
                                   AutoscaleConfig autoscale, SloConfig slo,
                                   RetryPolicy retry, DisaggConfig disagg)
    : router_(policy, slo),
      autoscale_(autoscale),
      retry_(retry),
      coordinator_(disagg),
      ttft_window_(autoscale.window_seconds),
      tpot_window_(autoscale.window_seconds),
      tokens_window_(kTokensWindowSeconds) {
  pool_runtime_.reserve(autoscale_.pools.size());
  for (const AutoscalePool& pool : autoscale_.pools) {
    pool_runtime_.push_back({SlidingWindowStats(pool.window_seconds),
                             SlidingWindowStats(pool.window_seconds)});
  }
  tick_armed_ = !autoscale_.pools.empty() && autoscale_.tick_seconds > 0;
  next_autoscale_tick_ = autoscale_.tick_seconds;
}

std::size_t ClusterSimulator::PoolFor(ReplicaRole role) const {
  for (std::size_t i = 0; i < autoscale_.pools.size(); ++i) {
    if (autoscale_.pools[i].role == role) return i;
  }
  return kNoPool;
}

std::shared_ptr<const serving::ServingEngine> ClusterSimulator::EngineFor(
    const ReplicaSpec& spec) {
  for (const auto& engine : engines_) {
    if (engine->hw() == spec.hw && engine->preset() == spec.preset &&
        engine->model() == spec.model && engine->options() == spec.options) {
      return engine;
    }
  }
  engines_.push_back(std::make_shared<const serving::ServingEngine>(
      spec.hw, spec.preset, spec.model, spec.options));
  return engines_.back();
}

std::size_t ClusterSimulator::AddReplica(const ReplicaSpec& spec) {
  Replica r;
  r.id = replicas_.size();
  r.spec = spec;
  r.pool = PoolFor(spec.role);
  r.engine = EngineFor(spec);
  r.scheduler = std::make_unique<serving::ContinuousBatchScheduler>(
      *r.engine, spec.kv_pool_blocks, spec.block_tokens, spec.max_batch);
  // A specialized replica arms role-aware routing — but only when the
  // interconnect can actually move KV; with an unusable link the fleet
  // serves unified no matter what the specs say (graceful degradation).
  if (spec.role != ReplicaRole::kUnified && coordinator_.model().Usable()) {
    router_.set_role_aware(true);
  }
  replicas_.push_back(std::move(r));
  horizons_.push_back(kInf);
  views_.emplace_back();
  MarkDirty(replicas_.back());
  WireReplicaTelemetry(replicas_.back());
  return replicas_.back().id;
}

bool ClusterSimulator::StepsEveryReplica() const {
  return trace_ != nullptr || metrics_ != nullptr ||
         !autoscale_.pools.empty() || router_.slo().ttft_budget > 0;
}

void ClusterSimulator::MarkDirty(Replica& replica) {
  if (replica.dirty) return;
  replica.dirty = true;
  dirty_.push_back(replica.id);
}

void ClusterSimulator::Refresh(Replica& replica) {
  serving::ContinuousBatchScheduler& s = *replica.scheduler;
  ReplicaView& v = views_[replica.id];
  v.alive = replica.active;
  v.role = replica.spec.role;
  v.outstanding = s.outstanding();
  v.free_kv_blocks = s.pool().free_blocks();
  v.total_kv_blocks = s.pool().total_blocks();
  v.prefix_index = &s.pool().prefix_index();
  if (!replica.active) v.est_ttft_seconds = 0;
  horizons_[replica.id] = !replica.active     ? kInf
                          : StepsEveryReplica() ? -kInf
                                                : s.Horizon();
}

void ClusterSimulator::FlushDirty() {
  for (const std::size_t id : dirty_) {
    replicas_[id].dirty = false;
    Refresh(replicas_[id]);
  }
  dirty_.clear();
}

serving::ContinuousBatchScheduler& ClusterSimulator::Touch(Replica& replica) {
  serving::ContinuousBatchScheduler& s = *replica.scheduler;
#ifndef NDEBUG
  const std::size_t dropped = s.stats().dropped;
#endif
  s.StepUntil(now_);
  // The horizon contract: a replica no event stepped has nothing to
  // harvest at the fleet clock, and every stepped one was harvested.
  assert(s.completions().empty() && s.handoffs().empty() &&
         s.stats().dropped == dropped);
  MarkDirty(replica);
  return s;
}

namespace {

/// Role index for the role-striped metric series (order pinned by MetricIds).
std::size_t RoleIndex(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kUnified: return 0;
    case ReplicaRole::kPrefill: return 1;
    case ReplicaRole::kDecode: return 2;
  }
  return 0;
}

}  // namespace

void ClusterSimulator::WireReplicaTelemetry(Replica& replica) {
  if (trace_ == nullptr) return;
  replica.scheduler->SetTrace(trace_, replica.id);
  const std::int32_t pid = obs::ReplicaPid(replica.id);
  std::string name = "replica " + std::to_string(replica.id) + " " +
                     replica.spec.Label();
  if (replica.spec.role != ReplicaRole::kUnified) {
    name += std::string(" [") + ToString(replica.spec.role) + "]";
  }
  trace_->DeclareProcess(pid, std::move(name), pid);
  trace_->DeclareThread(pid, obs::kTidEngine, "engine");
  trace_->DeclareThread(pid, obs::kTidLifecycle, "lifecycle");
}

void ClusterSimulator::AttachTelemetry(obs::TraceRecorder* trace,
                                       obs::MetricsRegistry* metrics) {
  trace_ = trace;
  coordinator_.SetTrace(trace);
  if (trace_ != nullptr) {
    trace_->DeclareProcess(obs::kFleetPid, "fleet", 0);
    trace_->DeclareThread(obs::kFleetPid, obs::kTidRouter, "router");
    trace_->DeclareThread(obs::kFleetPid, obs::kTidAutoscaler, "autoscaler");
    trace_->DeclareThread(obs::kFleetPid, obs::kTidInterconnect,
                          "interconnect");
    trace_->DeclareThread(obs::kFleetPid, obs::kTidChaos, "chaos");
    for (Replica& r : replicas_) WireReplicaTelemetry(r);
  } else {
    for (Replica& r : replicas_) r.scheduler->SetTrace(nullptr, r.id);
  }
  metrics_ = metrics;
  if (metrics_ != nullptr) RegisterMetrics();
  // Attaching switches every replica's horizon between the two pumps.
  for (Replica& r : replicas_) MarkDirty(r);
}

void ClusterSimulator::RegisterMetrics() {
  using Kind = obs::MetricsRegistry::Kind;
  static constexpr const char* kRoles[3] = {"unified", "prefill", "decode"};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string role = kRoles[i];
    metric_ids_.replicas[i] =
        metrics_->Register("replicas_" + role, Kind::kGauge);
    metric_ids_.queue_depth[i] =
        metrics_->Register("queue_depth_" + role, Kind::kGauge);
    metric_ids_.kv_used[i] =
        metrics_->Register("kv_used_fraction_" + role, Kind::kGauge);
  }
  metric_ids_.ttft_p99 = metrics_->Register("ttft_p99_window", Kind::kGauge);
  metric_ids_.tpot_p99 = metrics_->Register("tpot_p99_window", Kind::kGauge);
  metric_ids_.tokens_per_s =
      metrics_->Register("tokens_per_s_window", Kind::kGauge);
  metric_ids_.inflight_migrations =
      metrics_->Register("inflight_migrations", Kind::kGauge);
  metric_ids_.pending_retries =
      metrics_->Register("pending_retries", Kind::kGauge);
  metric_ids_.dollars_per_hour =
      metrics_->Register("dollars_per_hour", Kind::kGauge);
  metric_ids_.completed = metrics_->Register("completed", Kind::kCounter);
  metric_ids_.rejected = metrics_->Register("rejected", Kind::kCounter);
  metric_ids_.lost = metrics_->Register("lost", Kind::kCounter);
  metric_ids_.retried = metrics_->Register("retried", Kind::kCounter);
  metric_ids_.migrated = metrics_->Register("migrated", Kind::kCounter);
  metric_ids_.local_fallbacks =
      metrics_->Register("local_decode_fallbacks", Kind::kCounter);
  ttft_hist_ =
      &metrics_->RegisterHistogram("ttft_seconds", obs::LatencyBuckets());
  tpot_hist_ =
      &metrics_->RegisterHistogram("tpot_seconds", obs::LatencyBuckets());
}

void ClusterSimulator::SampleMetrics(double now) {
  if (metrics_ == nullptr) return;
  double replicas[3] = {}, depth[3] = {}, free_kv[3] = {}, total_kv[3] = {};
  double completed = 0, burn = 0;
  for (const Replica& r : replicas_) {
    completed += static_cast<double>(r.scheduler->stats().completed);
    if (!r.active) continue;
    const std::size_t role = RoleIndex(r.spec.role);
    replicas[role] += 1;
    depth[role] += static_cast<double>(r.scheduler->outstanding());
    free_kv[role] += static_cast<double>(r.scheduler->pool().free_blocks());
    total_kv[role] += static_cast<double>(r.scheduler->pool().total_blocks());
    burn += r.spec.dollars_per_hour;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    metrics_->Set(metric_ids_.replicas[i], replicas[i]);
    metrics_->Set(metric_ids_.queue_depth[i], depth[i]);
    metrics_->Set(metric_ids_.kv_used[i],
                  total_kv[i] > 0 ? 1.0 - free_kv[i] / total_kv[i] : 0.0);
  }
  metrics_->Set(metric_ids_.ttft_p99,
                ttft_window_.Count(now) > 0 ? ttft_window_.Percentile(now, 99)
                                            : 0.0);
  metrics_->Set(metric_ids_.tpot_p99,
                tpot_window_.Count(now) > 0 ? tpot_window_.Percentile(now, 99)
                                            : 0.0);
  const double window = tokens_window_.window_seconds();
  const double tokens = tokens_window_.Mean(now) *
                        static_cast<double>(tokens_window_.Count(now));
  metrics_->Set(metric_ids_.tokens_per_s, window > 0 ? tokens / window : 0.0);
  metrics_->Set(metric_ids_.inflight_migrations,
                static_cast<double>(coordinator_.InFlight()));
  metrics_->Set(metric_ids_.pending_retries,
                static_cast<double>(pending_retries_.size()));
  metrics_->Set(metric_ids_.dollars_per_hour, burn);
  metrics_->Set(metric_ids_.completed, completed);
  metrics_->Set(metric_ids_.rejected,
                static_cast<double>(tally_.rejected_requests));
  metrics_->Set(metric_ids_.lost, static_cast<double>(tally_.lost_requests));
  metrics_->Set(metric_ids_.retried,
                static_cast<double>(tally_.retried_requests));
  metrics_->Set(metric_ids_.migrated,
                static_cast<double>(tally_.disagg.migrated_requests));
  metrics_->Set(metric_ids_.local_fallbacks,
                static_cast<double>(tally_.disagg.local_decode_fallbacks));
  metrics_->Sample(now);
}

bool ClusterSimulator::RemoveReplica(std::size_t id) {
  if (id >= replicas_.size() || !replicas_[id].active) return false;
  if (ActiveReplicas() <= 1) return false;  // never strand in-flight work
  Replica& victim = replicas_[id];
  Touch(victim);
  victim.active = false;
  router_.ForgetReplica(id);
  const double now = victim.scheduler->Now();
  victim.retired_at = now;  // graceful retirement stops the billing meter
  // Unfinished work (with carried TTFT/progress state) moves to the least
  // loaded ROLE-COMPATIBLE survivor (a decode replica must not inherit
  // prefill work, nor a prefill replica decode work, while a better home is
  // alive); its scheduler clock is already on the shared clock.
  std::vector<serving::Request> orphans = victim.scheduler->Drain();
  for (const serving::Request& req : orphans) {
    const ReplicaRole wanted =
        req.prefill_only ? ReplicaRole::kPrefill : ReplicaRole::kDecode;
    std::size_t best = replicas_.size();
    bool best_compatible = false;
    for (const Replica& r : replicas_) {
      if (!r.active) continue;
      const bool compatible = !router_.role_aware() ||
                              r.spec.role == ReplicaRole::kUnified ||
                              r.spec.role == wanted;
      if (best == replicas_.size() || (compatible && !best_compatible) ||
          (compatible == best_compatible &&
           r.scheduler->outstanding() <
               replicas_[best].scheduler->outstanding())) {
        best = r.id;
        best_compatible = compatible;
      }
    }
    Touch(replicas_[best]).Submit(req);
    ++replicas_[best].submitted;
    ++tally_.rerouted;
  }
  // Graceful removal loses nothing: in-flight migrations headed here are
  // re-planned onto a live decode home (or decode locally at the source)
  // instead of landing on a corpse and burning the retry budget.
  for (const DisaggCoordinator::Migration& m :
       coordinator_.TakeInboundFor(id)) {
    const std::optional<std::size_t> dst =
        router_.RouteDecode(m.continuation.session, Views(0), m.kv.blocks + 1,
                            &m.continuation.prefix);
    if (dst && replicas_[*dst].active) {
      coordinator_.Reroute(m, *dst, std::max(now, m.start));
      ++tally_.rerouted;
      continue;
    }
    // No reroute target: the migrate stage ends here either way (local
    // delivery on the source or genuine loss).
    if (trace_ != nullptr) {
      trace_->AsyncEnd(obs::TraceEventType::kStageMigrate, now,
                       m.continuation.id);
    }
    Replica& src = replicas_[m.src];
    if (src.active) {
      DeliverContinuation(src, m.continuation, m.kv, std::max(now, m.start));
      ++tally_.disagg.local_decode_fallbacks;
      ++tally_.rerouted;
      continue;
    }
    // Source gone too: the transfer has nowhere to land — genuine loss.
    ++tally_.lost_requests;
    tally_.wasted_tokens += static_cast<double>(m.continuation.progress);
    RetryLost(m.continuation, now);
  }
  return true;
}

bool ClusterSimulator::KillReplica(std::size_t id, double now) {
  if (id >= replicas_.size() || !replicas_[id].active) return false;
  LIQUID_PROF_SCOPE("sim/events/kill");
  ++fleet_events_;
  Replica& victim = replicas_[id];
  // Catch the victim up to the fleet clock first so work it would have
  // finished before the failure counts as completed, not lost — and so
  // prefills it already handed off migrate normally (their KV is staged on
  // the wire, not in the dying pool).
  victim.scheduler->StepUntil(now);
  stepped_.push_back(id);
  Harvest();
  victim.active = false;
  victim.killed = true;
  MarkDirty(victim);
  router_.ForgetReplica(id);
  ++tally_.killed_replicas;

  // Everything in flight dies with the replica: the tokens each request
  // generated (all folded into `progress` by the drain) are wasted.
  const std::vector<serving::Request> lost_requests = victim.scheduler->Drain();
  double wasted = 0;
  for (const serving::Request& r : lost_requests) {
    wasted += static_cast<double>(r.progress);
  }
  tally_.lost_requests += lost_requests.size();
  tally_.wasted_tokens += wasted;
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kKill, now, obs::kFleetPid,
                    obs::kTidChaos, id, static_cast<double>(id),
                    static_cast<double>(lost_requests.size()));
  }

  // With no replica left, the retries below would route into an empty fleet
  // and drop: let min-replica enforcement regrow a replica first.
  if (ActiveReplicas() == 0) MaybeAutoscale(now);

  // Re-route storm: every lost request is re-submitted from scratch.  The
  // RetryPolicy meters the storm: backoff delays the re-route, the budget
  // caps it.
  for (const serving::Request& lost : lost_requests) RetryLost(lost, now);
  return true;
}

bool ClusterSimulator::DegradeReplica(std::size_t id, double slowdown_factor) {
  if (id >= replicas_.size() || !replicas_[id].active) return false;
  LIQUID_PROF_SCOPE("sim/events/degrade");
  ++fleet_events_;
  Replica& victim = replicas_[id];
  const bool was_degraded = victim.scheduler->slowdown() > 1.0;
  // The iterations before the fleet clock run at the old speed.
  Touch(victim).SetSlowdown(slowdown_factor);
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kDegrade, FleetNow(), obs::kFleetPid,
                    obs::kTidChaos, id, static_cast<double>(id),
                    victim.scheduler->slowdown());
  }
  // Count replicas that ever degraded, not events (a second brown-out on
  // the same replica is still one degraded replica).
  if (!was_degraded && victim.scheduler->slowdown() > 1.0) {
    ++tally_.degraded_replicas;
  }
  return true;
}

void ClusterSimulator::RetryLost(const serving::Request& lost, double now) {
  // The original request (session intact) is replayed with its original
  // arrival time, so a retry's TTFT charges the failed attempt; attempt
  // counts the failures it survived.
  const serving::Request original = lost.Original();
  serving::TimedRequest retry;
  retry.id = original.id;
  retry.arrival_seconds = original.arrival;
  retry.prompt_tokens = original.prompt_tokens;
  retry.max_new_tokens = original.max_new_tokens;
  retry.session = original.session;
  retry.attempt = original.attempt + 1;
  retry.migrated = original.migrated;
  retry.prefix = original.prefix;
  if (retry_.max_attempts > 0 && retry.attempt > retry_.max_attempts) {
    if (trace_ != nullptr) {
      trace_->Instant(obs::TraceEventType::kRetriesExhausted, now,
                      obs::kFleetPid, obs::kTidChaos, retry.id,
                      static_cast<double>(retry.attempt));
    }
    ++tally_.retries_exhausted;
    return;
  }
  tally_.max_retry_attempts =
      std::max(tally_.max_retry_attempts, retry.attempt);
  ++tally_.retried_requests;
  if (retry_.base_backoff_seconds > 0) {
    const std::uint32_t exponent = std::min(retry.attempt - 1, 20u);
    const double delay = retry_.base_backoff_seconds *
                         static_cast<double>(std::uint64_t{1} << exponent);
    if (trace_ != nullptr) {
      trace_->Instant(obs::TraceEventType::kRetryScheduled, now,
                      obs::kFleetPid, obs::kTidChaos, retry.id,
                      static_cast<double>(retry.attempt), now + delay);
    }
    pending_retries_.push_back({now + delay, retry});
    ArmAutoscaleTick();  // the release is future work the tick must outlive
  } else {
    RouteOne(retry);
  }
}

void ClusterSimulator::AdvanceTo(double deadline) {
  LIQUID_PROF_SCOPE("sim/advance");
  now_ = std::max(now_, deadline);
  FlushDirty();
  // A replica whose horizon is past the deadline would only move its clock
  // and token counts; it stays behind until an event is due or the fleet
  // touches it.  Not <: StepUntil(deadline) admits a head arriving at it.
  for (std::size_t id = 0; id < horizons_.size(); ++id) {
    if (horizons_[id] > deadline || !replicas_[id].active) continue;
    Replica& r = replicas_[id];
    r.scheduler->StepUntil(deadline);
    Refresh(r);
    stepped_.push_back(id);
  }
  Harvest();
}

void ClusterSimulator::Harvest() {
  LIQUID_PROF_SCOPE("sim/harvest");
  // Replica by replica, completions before handoffs.  The interleaving
  // across replicas decides nothing: planning a handoff mutates only its
  // source replica, and the pool windows it feeds are read as a set
  // (Count, Percentile), not in order.
  for (const std::size_t id : stepped_) {
    Replica& r = replicas_[id];
    r.scheduler->TakeOutboxes(harvest_done_, harvest_handoffs_);
    for (const serving::RequestTiming& t : harvest_done_) {
      work_observed_ = true;
      // The fleet-wide windows are fed only for their one reader, the
      // metric gauges.
      if (metrics_ != nullptr) {
        ttft_window_.Add(t.finish, t.Ttft());
        if (t.generated > 1) tpot_window_.Add(t.finish, t.Tpot());
        tokens_window_.Add(t.finish, static_cast<double>(t.generated));
        ttft_hist_->Add(t.Ttft());
        if (t.generated > 1) tpot_hist_->Add(t.Tpot());
      }
      if (r.pool != kNoPool) {
        // Role-typed pools watch their own streams: the TTFT window feeds
        // prefill-style signals, the TPOT window decode-style ones.
        PoolRuntime& runtime = pool_runtime_[r.pool];
        runtime.ttft_window.Add(t.finish, t.Ttft());
        if (t.generated > 1) runtime.tpot_window.Add(t.finish, t.Tpot());
      }
      samples_.Add(t);
    }
    for (const serving::PrefillHandoff& handoff : harvest_handoffs_) {
      work_observed_ = true;
      PlanHandoff(r, handoff);
    }
  }
  stepped_.clear();
}

void ClusterSimulator::PlanHandoff(Replica& src,
                                   const serving::PrefillHandoff& handoff) {
  LIQUID_PROF_SCOPE("disagg/plan_handoff");
  // A prefill-pool request never completes on its pool; its TTFT is decided
  // right here, when the first token leaves the prefill replica.  Feed the
  // pool's signal window from the handoff so kTailTtft sees prefill pain.
  if (src.pool != kNoPool) {
    pool_runtime_[src.pool].ttft_window.Add(
        handoff.ready, handoff.ready - handoff.request.arrival);
  }
  std::optional<std::size_t> dst;
  if (coordinator_.model().Usable()) {
    // Decode placement sees the migrating KV's real identity: the prompt's
    // signature is what the KV registered, so a prefix-aware preset scores
    // shared resident blocks at each candidate, not just session stickiness.
    dst = router_.RouteDecode(handoff.request.session, Views(0),
                              handoff.kv.blocks + 1, &handoff.request.prefix);
  }
  if (dst && *dst == src.id) {
    // The best decode home is this very replica (it can happen when a
    // unified replica hosts a handed-off prefill): plain local delivery,
    // nothing crosses the interconnect.
    DeliverContinuation(src, handoff.request, handoff.kv, handoff.ready);
    return;
  }
  if (dst) {
    const double bytes = KvMigrationModel::KvBytes(
        src.spec.model, src.spec.preset.kv_bits, handoff.kv.tokens);
    if (coordinator_.Begin(handoff, src.id, *dst, bytes)) return;
  }
  // No live decode-capable target, unusable interconnect, or a stall over
  // the migration budget: decode locally on the prefill replica — this
  // request is served unified.
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kLocalFallback, handoff.ready,
                    obs::kFleetPid, obs::kTidInterconnect, handoff.request.id,
                    static_cast<double>(src.id));
  }
  ++tally_.disagg.local_decode_fallbacks;
  DeliverContinuation(src, handoff.request, handoff.kv, handoff.ready);
}

void ClusterSimulator::LandMigrationsThrough(double deadline) {
  LIQUID_PROF_SCOPE("sim/events/migration_land");
  for (const DisaggCoordinator::Migration& m :
       coordinator_.TakeArrivalsThrough(deadline)) {
    ++fleet_events_;
    Replica& dst = replicas_[m.dst];
    if (!dst.active) {
      // The target died mid-transfer: the continuation is lost exactly like
      // in-flight work on a killed replica, and re-enters the same retry
      // path (its generated-so-far token is wasted work).
      if (trace_ != nullptr) {
        trace_->Instant(obs::TraceEventType::kTargetDeath, m.arrive,
                        obs::kFleetPid, obs::kTidInterconnect,
                        m.continuation.id, static_cast<double>(m.dst));
        trace_->AsyncEnd(obs::TraceEventType::kStageMigrate, m.arrive,
                         m.continuation.id);
      }
      ++tally_.disagg.target_deaths;
      ++tally_.lost_requests;
      tally_.wasted_tokens += static_cast<double>(m.continuation.progress);
      RetryLost(m.continuation, m.arrive);
      continue;
    }
    ++dst.submitted;
    ++tally_.disagg.migrated_requests;
    tally_.disagg.migrated_kv_bytes += m.bytes;
    migration_seconds_.push_back(m.arrive - m.start);
    if (trace_ != nullptr) {
      trace_->Instant(obs::TraceEventType::kMigrationLand, m.arrive,
                      obs::kFleetPid, obs::kTidInterconnect, m.continuation.id,
                      static_cast<double>(m.src), static_cast<double>(m.dst),
                      m.arrive - m.start);
      trace_->AsyncEnd(obs::TraceEventType::kStageMigrate, m.arrive,
                       m.continuation.id);
      trace_->Flow(obs::TracePhase::kFlowStep, m.arrive,
                   obs::ReplicaPid(m.dst), obs::kTidEngine, m.continuation.id);
    }
    serving::Request continuation = m.continuation;
    continuation.migrated = true;
    DeliverContinuation(dst, std::move(continuation), m.kv, m.arrive);
  }
}

void ClusterSimulator::DeliverContinuation(Replica& dst,
                                           serving::Request continuation,
                                           const serving::KvExport& kv,
                                           double ready) {
  continuation.ready = ready;
  // An import ahead of the fleet clock would reorder the blocks the
  // destination's own iterations pop.
  if (Touch(dst).AcceptMigrated(continuation, kv)) return;
  // The pool cannot hold the imported KV right now: reset to the original
  // request and recompute the prefill on `dst` — the already-generated first
  // token is wasted work.
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kImportOom, ready, obs::kFleetPid,
                    obs::kTidInterconnect, continuation.id,
                    static_cast<double>(dst.id));
  }
  ++tally_.disagg.import_ooms;
  tally_.wasted_tokens += static_cast<double>(continuation.progress);
  serving::Request fresh = continuation.Original();
  fresh.ready = ready;
  dst.scheduler->Submit(fresh);
}

void ClusterSimulator::ReleaseRetriesThrough(double deadline) {
  LIQUID_PROF_SCOPE("sim/events/retry_release");
  for (;;) {
    std::size_t next = pending_retries_.size();
    for (std::size_t i = 0; i < pending_retries_.size(); ++i) {
      if (pending_retries_[i].due > deadline) continue;
      if (next == pending_retries_.size() ||
          pending_retries_[i].due < pending_retries_[next].due ||
          (pending_retries_[i].due == pending_retries_[next].due &&
           pending_retries_[i].request.id < pending_retries_[next].request.id)) {
        next = i;
      }
    }
    if (next == pending_retries_.size()) return;
    const PendingRetry retry = pending_retries_[next];
    pending_retries_.erase(pending_retries_.begin() +
                           static_cast<std::ptrdiff_t>(next));
    RouteOne(retry.request);
  }
}

const std::vector<ReplicaView>& ClusterSimulator::Views(
    std::size_t prompt_tokens, const serving::PrefixSignature* signature) {
  LIQUID_PROF_SCOPE("router/views");
  FlushDirty();
  // PredictTtft walks each replica's waiting queue; only pay for it when
  // admission control actually reads the estimate.
  if (router_.slo().ttft_budget <= 0) return views_;
  for (const Replica& r : replicas_) {
    if (!r.active) continue;
    ReplicaView& v = views_[r.id];
    // Convert overlap to tokens with the SIGNATURE's block size (it need
    // not match this pool's granularity).
    const std::size_t cached_tokens =
        signature == nullptr
            ? 0
            : v.prefix_index->SharedPrefixBlocks(signature->hashes) *
                  static_cast<std::size_t>(signature->block_tokens);
    v.est_ttft_seconds = r.scheduler->PredictTtft(prompt_tokens, cached_tokens);
  }
  return views_;
}

std::optional<std::size_t> ClusterSimulator::RouteOne(
    const serving::TimedRequest& request) {
  LIQUID_PROF_SCOPE("router/route_one");
  ++fleet_events_;
  // Routing happens "now" on the fleet clock; a backoff retry's original
  // arrival may be far in the past, so the trace timestamps the decision,
  // not the arrival field it replays.
  const double t_route =
      trace_ == nullptr ? 0 : std::max(request.arrival_seconds, FleetNow());
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kArrival, t_route, obs::kFleetPid,
                    obs::kTidRouter, request.id,
                    static_cast<double>(request.prompt_tokens),
                    static_cast<double>(request.max_new_tokens),
                    static_cast<double>(request.attempt));
  }
  RouteExplain explain;
  const RouteDecision decision =
      router_.Decide(request, Views(request.prompt_tokens, &request.prefix),
                     trace_ == nullptr ? nullptr : &explain);
  switch (decision.outcome) {
    case RouteOutcome::kNoReplica:
      if (trace_ != nullptr) {
        trace_->Instant(obs::TraceEventType::kNoReplica, t_route,
                        obs::kFleetPid, obs::kTidRouter, request.id);
      }
      ++tally_.dropped;  // no alive replica; folded into FleetStats.dropped
      return std::nullopt;
    case RouteOutcome::kRejected:
      if (trace_ != nullptr) {
        trace_->Instant(obs::TraceEventType::kReject, t_route, obs::kFleetPid,
                        obs::kTidRouter, request.id, decision.predicted_ttft);
      }
      ++tally_.rejected_requests;
      return std::nullopt;
    case RouteOutcome::kRouted:
      break;
  }
  const std::size_t dest = *decision.replica;
  if (trace_ != nullptr) {
    // The scorer term breakdown rides the route event's variable tail:
    // weighted contributions keyed by term name (ToString(ScoreTerm) returns
    // static literals, which is what TraceArg requires).
    obs::TraceArg terms[16];
    std::size_t nterms = 0;
    for (const TermContribution& term : explain.terms) {
      if (nterms == std::size(terms)) break;
      terms[nterms++] = {ToString(term.term), term.weight * term.value};
    }
    trace_->InstantWithArgs(obs::TraceEventType::kRoute, t_route,
                            obs::kFleetPid, obs::kTidRouter, request.id,
                            static_cast<double>(dest), decision.predicted_ttft,
                            explain.score,
                            std::span<const obs::TraceArg>(terms, nterms));
  }
  serving::Request req = serving::Request::FromTimed(request);
  // A prompt landing on a prefill-specialized replica runs to its first
  // token only; the DisaggCoordinator moves its KV to a decode replica.
  if (router_.role_aware() &&
      replicas_[dest].spec.role == ReplicaRole::kPrefill) {
    req.prefill_only = true;
  }
  Touch(replicas_[dest]).Submit(req);
  ++replicas_[dest].submitted;
  ArmAutoscaleTick();  // new work: the periodic evaluation matters again
  return dest;
}

std::optional<std::size_t> ClusterSimulator::SubmitAndRoute(
    const serving::TimedRequest& request) {
  ++tally_.submitted;
  return RouteOne(request);
}

std::size_t ClusterSimulator::ActiveReplicas() const {
  std::size_t n = 0;
  for (const Replica& r : replicas_) n += r.active ? 1 : 0;
  return n;
}

std::size_t ClusterSimulator::TotalOutstanding() const {
  std::size_t n = 0;
  for (const Replica& r : replicas_) {
    if (r.active) n += r.scheduler->outstanding();
  }
  return n;
}

ClusterSimulator::PoolSignal ClusterSimulator::EvalPool(std::size_t pool,
                                                        double now) {
  const AutoscalePool& config = autoscale_.pools[pool];
  PoolSignal s;
  double capacity = 0;
  std::size_t outstanding = 0, free_kv = 0, total_kv = 0;
  for (const Replica& r : replicas_) {
    if (!r.active || r.pool != pool) continue;
    ++s.active;
    capacity += 1.0 / r.scheduler->slowdown();
    outstanding += r.scheduler->outstanding();
    free_kv += r.scheduler->pool().free_blocks();
    total_kv += r.scheduler->pool().total_blocks();
    // Lifetime evidence, not an instantaneous sample: fast pools (prefill)
    // drain between evaluations, so "outstanding right now" would miss
    // work they demonstrably served.
    s.work_seen |= r.submitted > 0;
  }
  PoolRuntime& runtime = pool_runtime_[pool];
  switch (config.signal) {
    case AutoscaleSignal::kQueueDepth:
      s.value = capacity > 0
                    ? static_cast<double>(outstanding) / capacity
                    : 0;
      break;
    case AutoscaleSignal::kFreeKv:
      s.value = total_kv > 0
                    ? 1.0 - static_cast<double>(free_kv) /
                                static_cast<double>(total_kv)
                    : 0;
      break;
    case AutoscaleSignal::kTailTtft:
      if (runtime.ttft_window.Count(now) < config.min_window_samples) {
        return s;  // abstain: neither up nor down
      }
      s.value = runtime.ttft_window.Percentile(now, 99);
      break;
    case AutoscaleSignal::kTailTpot:
      if (runtime.tpot_window.Count(now) < config.min_window_samples) {
        return s;  // abstain
      }
      s.value = runtime.tpot_window.Percentile(now, 99);
      break;
  }
  s.up = s.value > config.high;
  s.down = s.value < config.low;
  return s;
}

void ClusterSimulator::MaybeAutoscale(double now) {
  if (autoscale_.pools.empty()) return;
  LIQUID_PROF_SCOPE("sim/autoscale");
  // The cooldown gate returns ABOVE the shrink_pending_ reset on purpose: a
  // shrink waiting out its stabilization window stays pending (keeping the
  // tick armed) through the cooldown.  Every evaluation that actually runs
  // starts from false, so an early abstention cannot leave a stale pending
  // flag wedging the tick loop.
  if (now - last_scale_event_ < autoscale_.cooldown_seconds) return;
  shrink_pending_ = false;
  // At most one scale event per evaluation (the shared cooldown paces the
  // loop).  Growth outranks shrink within an evaluation: the most
  // overloaded pool grows first, and the most expensive shrink-eligible
  // pool shrinks first — the biggest cut to predicted
  // $/1M tokens per event.  A hot pool already at max_replicas does NOT
  // block another pool's stabilized shrink.
  struct ShrinkCandidate {
    std::size_t pool;
    double rate;
    double value;
  };
  std::size_t up_pool = kNoPool;
  double up_severity = 0, up_value = 0;
  bool up_forced = false;
  std::vector<ShrinkCandidate> shrinkable;
  for (std::size_t i = 0; i < autoscale_.pools.size(); ++i) {
    const AutoscalePool& pool = autoscale_.pools[i];
    const PoolSignal s = EvalPool(i, now);
    const bool must_grow = s.active < pool.min_replicas;
    if ((s.up || must_grow) && s.active < pool.max_replicas) {
      // Min-replica enforcement beats any signal reading; among hot pools
      // the one furthest over its threshold wins (ties toward the first).
      const double severity =
          must_grow ? kInf : (pool.high > 0 ? s.value / pool.high : s.value);
      if (up_pool == kNoPool || (must_grow && !up_forced) ||
          (must_grow == up_forced && severity > up_severity)) {
        up_pool = i;
        up_severity = severity;
        up_value = s.value;
        up_forced = must_grow;
      }
    }
    // Shrink needs evidence of idleness, not absence of data: the fleet
    // has completed work, THIS pool has served some, and the signal has
    // read low continuously for shrink_stable_seconds — a momentarily
    // empty queue between Poisson gaps is not overprovisioning.
    PoolRuntime& runtime = pool_runtime_[i];
    if (!s.down) {
      runtime.low_since = -1;
    } else if (runtime.low_since < 0) {
      runtime.low_since = now;
    }
    if (s.down && work_observed_ && s.work_seen &&
        s.active > pool.min_replicas) {
      if (now - runtime.low_since >= autoscale_.shrink_stable_seconds) {
        shrinkable.push_back({i, pool.spec.dollars_per_hour, s.value});
      } else {
        shrink_pending_ = true;  // keeps the tick armed while idle
      }
    }
  }

  if (up_pool != kNoPool) {
    CommitScaleUp(up_pool, autoscale_.pools[up_pool].spec, now, up_value);
    return;
  }
  // The most expensive pool shrinks first (the biggest cut to $/1M tok per
  // event); equal prices keep config order.  A pool whose only remaining
  // replicas the victim scan protects (last of a role, SLO infeasibility)
  // falls through to the next candidate instead of wedging the whole
  // shrink path.
  std::stable_sort(shrinkable.begin(), shrinkable.end(),
                   [](const ShrinkCandidate& a, const ShrinkCandidate& b) {
                     return a.rate > b.rate;
                   });
  for (const ShrinkCandidate& candidate : shrinkable) {
    if (CommitScaleDown(candidate.pool, now, candidate.value)) {
      // The shrunken pool must re-earn its stabilization window.
      pool_runtime_[candidate.pool].low_since = -1;
      return;
    }
  }
}

void ClusterSimulator::CommitScaleUp(std::size_t pool, const ReplicaSpec& spec,
                                     double now, double signal_value) {
  const std::size_t id = AddReplica(spec);
  replicas_[id].pool = pool;
  replicas_[id].added_at = now;
  replicas_[id].scheduler->StepUntil(now);  // join the shared clock
  ++tally_.scale_ups;
  tally_.scale_events.push_back({now, true, spec.role, id, signal_value});
  last_scale_event_ = now;
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kScaleUp, now, obs::kFleetPid,
                    obs::kTidAutoscaler, id, static_cast<double>(id),
                    static_cast<double>(pool), signal_value);
  }
}

bool ClusterSimulator::CommitScaleDown(std::size_t pool, double now,
                                       double signal_value) {
  const std::size_t victim = PickScaleDownVictim(pool);
  if (victim >= replicas_.size()) return false;
  // PredictTtft-based feasibility: never shrink into an SLO breach (only
  // enforced when the router actually has a TTFT budget to keep).
  if (router_.slo().ttft_budget > 0 &&
      !router_.ScaleDownSafe(Views(kSloProbePromptTokens), victim)) {
    return false;
  }
  const ReplicaRole role = replicas_[victim].spec.role;
  if (!RemoveReplica(victim)) return false;
  ++tally_.scale_downs;
  tally_.scale_events.push_back({now, false, role, victim, signal_value});
  last_scale_event_ = now;
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kScaleDown, now, obs::kFleetPid,
                    obs::kTidAutoscaler, victim, static_cast<double>(victim),
                    static_cast<double>(pool), signal_value);
  }
  return true;
}

std::size_t ClusterSimulator::PickScaleDownVictim(std::size_t pool) const {
  std::size_t best = replicas_.size();
  bool best_inbound = false;
  for (const Replica& r : replicas_) {
    if (!r.active || r.pool != pool) continue;
    // Never retire the last active replica of a specialized role: routing
    // would wedge into unified fallback (prompts with no prefill home, or
    // migrations with no decode target) until something scales back up.
    if (LastActiveOfRole(r)) continue;
    // Prefer victims with no KV imports on the wire; retiring one forces
    // the coordinator to re-plan transfers mid-flight.
    const bool inbound = coordinator_.InboundCount(r.id) > 0;
    if (best == replicas_.size() || (!inbound && best_inbound) ||
        (inbound == best_inbound &&
         r.scheduler->outstanding() <
             replicas_[best].scheduler->outstanding())) {
      best = r.id;
      best_inbound = inbound;
    }
  }
  return best;
}

bool ClusterSimulator::LastActiveOfRole(const Replica& replica) const {
  if (replica.spec.role == ReplicaRole::kUnified) return false;
  for (const Replica& other : replicas_) {
    if (other.id != replica.id && other.active &&
        other.spec.role == replica.spec.role) {
      return false;
    }
  }
  return true;
}

bool ClusterSimulator::FleetBusy() const {
  if (coordinator_.InFlight() > 0 || !pending_retries_.empty()) return true;
  for (const Replica& r : replicas_) {
    if (r.active && r.scheduler->HasWork()) return true;
  }
  return false;
}

double ClusterSimulator::FleetNow() const {
  double now = 0;
  for (const Replica& r : replicas_) {
    if (r.active) now = std::max(now, r.scheduler->Now());
  }
  return now;
}

void ClusterSimulator::ArmAutoscaleTick() {
  if (autoscale_.pools.empty() || autoscale_.tick_seconds <= 0 ||
      tick_armed_) {
    return;
  }
  tick_armed_ = true;
  next_autoscale_tick_ = FleetNow() + autoscale_.tick_seconds;
}

void ClusterSimulator::ProcessEventsThrough(double deadline) {
  LIQUID_PROF_SCOPE("sim/events");
  // Fire kills, degradations, migration landings and backoff retries in
  // time order up to the deadline.  The schedules are small; a scan per
  // event keeps insertion order-insensitive.
  for (;;) {
    double t_kill = kInf;
    std::size_t kill_idx = kill_schedule_.size();
    for (std::size_t i = 0; i < kill_schedule_.size(); ++i) {
      if (kill_schedule_[i].time > deadline) continue;
      if (kill_schedule_[i].time < t_kill) {
        t_kill = kill_schedule_[i].time;
        kill_idx = i;
      }
    }
    double t_degrade = kInf;
    std::size_t degrade_idx = degrade_schedule_.size();
    for (std::size_t i = 0; i < degrade_schedule_.size(); ++i) {
      if (degrade_schedule_[i].time > deadline) continue;
      if (degrade_schedule_[i].time < t_degrade) {
        t_degrade = degrade_schedule_[i].time;
        degrade_idx = i;
      }
    }
    double t_mig = coordinator_.NextArrival().value_or(kInf);
    if (t_mig > deadline) t_mig = kInf;
    double t_retry = kInf;
    for (const PendingRetry& p : pending_retries_) {
      if (p.due <= deadline) t_retry = std::min(t_retry, p.due);
    }
    // The periodic autoscale tick rides the same calendar, so the
    // autoscaler keeps evaluating between arrivals AND through the
    // post-arrival drain (ProcessEventsThrough(kInf) before quiescence) —
    // the drain tail scales down instead of burning $/hour.
    double t_tick = kInf;
    if (tick_armed_ && next_autoscale_tick_ <= deadline) {
      t_tick = next_autoscale_tick_;
    }
    const double t = std::min({t_kill, t_degrade, t_mig, t_retry, t_tick});
    if (t == kInf) return;
    AdvanceTo(t);
    // Harvesting during AdvanceTo can commit fresh transfers whose arrival
    // is at or before t; land everything due — and release due retries —
    // BEFORE a same-instant kill, so a delivery that physically preceded
    // the failure is never misclassified as a target death.
    LandMigrationsThrough(t);
    ReleaseRetriesThrough(t);
    if (t == t_tick) {
      LIQUID_PROF_SCOPE("sim/events/tick");
      ++fleet_events_;
      next_autoscale_tick_ += autoscale_.tick_seconds;
      if (trace_ != nullptr) {
        trace_->Instant(obs::TraceEventType::kAutoscaleTick, t, obs::kFleetPid,
                        obs::kTidAutoscaler, 0);
      }
      const std::size_t before = tally_.scale_ups + tally_.scale_downs;
      MaybeAutoscale(t);
      SampleMetrics(t);  // the metrics series rides the existing tick
      // Disarm once the fleet is idle and a cooldown-satisfied evaluation
      // fired nothing with no shrink waiting out its stabilization window:
      // every pool is at its floor or its signal abstains.  New work
      // re-arms the tick (ArmAutoscaleTick).
      if (tally_.scale_ups + tally_.scale_downs == before && !FleetBusy() &&
          !shrink_pending_ &&
          t - last_scale_event_ >= autoscale_.cooldown_seconds) {
        tick_armed_ = false;
      }
      continue;
    }
    // A same-instant degrade fires before a kill: slowing a replica that is
    // about to die is a no-op either way, but the order is pinned for
    // determinism.
    if (t == t_degrade) {
      const DegradeEvent degrade = degrade_schedule_[degrade_idx];
      degrade_schedule_.erase(degrade_schedule_.begin() +
                              static_cast<std::ptrdiff_t>(degrade_idx));
      DegradeReplica(degrade.replica, degrade.slowdown_factor);
      continue;
    }
    if (t == t_kill) {
      const KillEvent kill = kill_schedule_[kill_idx];
      kill_schedule_.erase(kill_schedule_.begin() +
                           static_cast<std::ptrdiff_t>(kill_idx));
      KillReplica(kill.replica, kill.time);
    }
  }
}

void ClusterSimulator::DrainToQuiescence() {
  LIQUID_PROF_SCOPE("sim/drain");
  // Arrivals are done, but completion is no longer local to one replica: a
  // prefill finishing here spawns a migration landing there.  Iterate until
  // no replica has work and nothing is on the wire or waiting out a backoff.
  for (;;) {
    bool progressed = false;
    // Replicas run to completion independently; their interactions —
    // migration landings, retries — are consumed below.
    for (Replica& r : replicas_) {
      if (r.active && r.scheduler->HasWork()) {
        r.scheduler->RunToCompletion();
        MarkDirty(r);
        stepped_.push_back(r.id);
        progressed = true;
      }
    }
    Harvest();
    for (;;) {
      const double t_mig = coordinator_.NextArrival().value_or(kInf);
      double t_retry = kInf;
      for (const PendingRetry& p : pending_retries_) {
        t_retry = std::min(t_retry, p.due);
      }
      if (t_mig == kInf && t_retry == kInf) break;
      progressed = true;
      if (t_mig <= t_retry) {
        LandMigrationsThrough(t_mig);
      } else {
        ReleaseRetriesThrough(t_retry);
      }
    }
    if (!progressed) {
      bool residual = false;
      for (const Replica& r : replicas_) {
        residual |= r.active && r.scheduler->HasWork();
      }
      if (!residual) return;
    }
  }
}

FleetStats ClusterSimulator::Run(
    const std::vector<serving::TimedRequest>& trace) {
  LIQUID_PROF_SCOPE("sim/run");
  const WallTimer run_timer;
  const auto arrival_order = [](const serving::TimedRequest& a,
                                const serving::TimedRequest& b) {
    return a.arrival_seconds != b.arrival_seconds
               ? a.arrival_seconds < b.arrival_seconds
               : a.id < b.id;
  };
  // Workload generators already emit arrival order, and copying a
  // million-request trace (each with a prefix-hash vector) just to sort a
  // sorted sequence was a measurable slice of Run() — the comparator is a
  // strict weak order over unique (arrival, id) pairs, so an is_sorted trace
  // would come out of the sort element-for-element unchanged.
  std::vector<serving::TimedRequest> sorted;
  const std::vector<serving::TimedRequest>* requests = &trace;
  if (!std::is_sorted(trace.begin(), trace.end(), arrival_order)) {
    sorted = trace;
    std::sort(sorted.begin(), sorted.end(), arrival_order);
    requests = &sorted;
  }
  // Each request completes at most once, so each sample array is one
  // allocation sized by the trace rather than a chain of doublings.
  samples_.Reserve(requests->size());

  for (const serving::TimedRequest& request : *requests) {
    ProcessEventsThrough(request.arrival_seconds);
    AdvanceTo(request.arrival_seconds);
    MaybeAutoscale(request.arrival_seconds);
    SubmitAndRoute(request);
    SampleMetrics(request.arrival_seconds);
  }
  // Kills scheduled past the last arrival still fire (the fleet keeps
  // working off its backlog, so there is work to lose), as do migrations
  // and backoff retries already on the calendar.
  ProcessEventsThrough(kInf);
  // Replicas no event stepped are behind the last fleet deadline; bring
  // them up so every clock (and so FleetNow) ends where a step of every
  // replica at every event leaves it.
  for (Replica& r : replicas_) {
    if (r.active) Touch(r);
  }
  DrainToQuiescence();
  SampleMetrics(FleetNow());

  FleetStats stats = tally_;
  stats.replicas_final = ActiveReplicas();
  stats.disagg.in_migration = coordinator_.InFlight();
  stats.disagg.migration_seconds = SummarizePercentiles(migration_seconds_);
  for (const Replica& r : replicas_) {
    ReplicaReport report;
    report.id = r.id;
    report.label = r.spec.Label();
    report.role = r.spec.role;
    report.active = r.active;
    report.killed = r.killed;
    report.stats = r.scheduler->stats();
    report.submitted = r.submitted;
    report.dollars_per_hour = r.spec.dollars_per_hour;
    report.added_at = r.added_at;
    report.retired_at = r.retired_at;
    stats.replicas.push_back(report);
    stats.disagg.prefill_handoffs += report.stats.prefill_handoffs;
    if (r.active) {
      stats.disagg.prefill_replicas +=
          r.spec.role == ReplicaRole::kPrefill ? 1 : 0;
      stats.disagg.decode_replicas +=
          r.spec.role == ReplicaRole::kDecode ? 1 : 0;
    }
  }
  const std::size_t routing_drops = stats.dropped;  // kept by Finalize rescan
  FinalizeFleetStats(samples_, stats);
  stats.dropped += routing_drops;

  // Simulator-throughput meter: how much simulated work this Run() did per
  // wall second.  The event/iteration counts and sim span are deterministic;
  // only the wall_* fields vary run to run.
  SimThroughput& st = stats.sim_throughput;
  st.fleet_events = fleet_events_;
  st.engine_iterations = 0;
  for (const ReplicaReport& r : stats.replicas) {
    st.engine_iterations += r.stats.iterations;
  }
  st.events_processed = st.engine_iterations + st.fleet_events;
  st.sim_seconds = FleetNow();
  st.wall_seconds = run_timer.Seconds();
  if (st.wall_seconds > 0) {
    st.events_per_sec =
        static_cast<double>(st.events_processed) / st.wall_seconds;
    st.sim_seconds_per_wall_second = st.sim_seconds / st.wall_seconds;
  }
  if (st.sim_seconds > 0) {
    st.wall_seconds_per_sim_hour = st.wall_seconds / (st.sim_seconds / 3600.0);
  }
  assert(CheckFleetInvariants(stats).empty());
  return stats;
}

}  // namespace liquid::cluster
