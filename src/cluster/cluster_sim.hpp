#pragma once
// Multi-replica cluster simulator: the fleet layer above the single-engine
// serving loop.  N replicas — each a Scheduler over its own paged-KV pool,
// optionally heterogeneous (A100 next to the paper's target GPU, different
// presets/models) — advance on a shared simulated clock while a Router
// places Poisson-trace arrivals.  Replicas with the same hardware, preset,
// model and engine options price their steps through one shared
// ServingEngine, so a fleet fills each cost table once.  Replicas can be added
// or removed mid-run (an autoscaling hook does both automatically: role-typed
// pools with per-pool signals, a cost-aware $/1M-token shrink objective, and
// a periodic event-pump tick that keeps evaluating through the post-arrival
// drain; a fleet-wide autoscaler is one kUnified pool); removing a replica
// drains its unfinished requests and re-routes them.  Replicas can also be KILLED —
// abrupt failure, no drain: in-flight work is lost and re-submitted from
// scratch (under a RetryPolicy budget with exponential backoff), and SLO
// admission control at the router sheds requests whose predicted TTFT busts
// the budget.
//
// Replicas can be role-specialized (ReplicaSpec::role): prompts route to the
// prefill pool, run to their first token, then the DisaggCoordinator
// migrates the exported KV to a decode replica over a priced interconnect
// link — decode replicas keep decoding while transfers fly, and any handoff
// whose stall busts the migration budget (or finds no live decode target)
// decodes locally on its prefill replica, degrading gracefully to unified
// serving.  Conservation generalizes to
//   completed + dropped + rejected + lost == submitted + retried  (+ the
//   retry budget identity lost == retried + retries_exhausted)
// across every scale/kill/shed/migration event, with zero requests left in
// migration at the end of a run.
//
// The fleet keeps no per-request log.  Harvest adds each completion to the
// LatencySamples whose percentiles Run() selects in place, and drops it.  A
// request's lineage rides on the request: session, attempt, and `migrated`,
// which LandMigrationsThrough sets on the continuation it delivers to a
// live decode replica and Request::Original(), RetryLost's retry and
// Request::FromTimed keep, so DisaggStats::migrated_tpot counts a request
// that ever landed a migration wherever its last attempt completes.
//
// The event pump.  A fleet event at time t (an arrival, kill, degrade,
// migration landing, retry release or autoscale tick) steps only the replicas
// whose Horizon() is <= t: a lower bound on the clock at which the next
// iteration that can change anything the fleet reads (outstanding, HasWork,
// free blocks, the prefix index, the completion and handoff outboxes, the
// drop count) may start.  Every other replica stays behind the fleet clock,
// and StepUntil(t) would only have moved its clock and token counts.  Before
// the fleet mutates a replica it brings it current with StepUntil(fleet
// clock) — a touch: the route target before Submit (a retry replays its
// original arrival, which an idle replica left behind would admit in the
// past), the migration or drain destination before AcceptMigrated/Submit, the
// degrade victim before SetSlowdown, the kill and removal victims, and, after
// the last event, every replica once, so each ends on the clock a full step
// at every event would give.  Completions and handoffs are taken out of the
// outboxes of the replicas an event stepped, in id order, so the fleet sees
// each finished request once, and the routing views are kept between
// decisions and refreshed only for the replicas stepped or touched since the
// last one.
//
// Where every replica is still stepped at every event: with a TraceRecorder
// or MetricsRegistry attached (the trace keeps event insertion order and
// the metric windows their feed order), with autoscale pools (their signals
// read every replica), and with an SLO budget (PredictTtft reads every
// running sequence's progress).  There every horizon is -infinity, inside
// the same loop; it is the one place the two paths differ.  Results are
// identical either way.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/disagg/coordinator.hpp"
#include "cluster/fleet_stats.hpp"
#include "cluster/router.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "serving/engine.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"
#include "util/sliding_window.hpp"

namespace liquid::cluster {

/// Everything needed to stand up one replica.
struct ReplicaSpec {
  simgpu::HardwareSpec hw;
  serving::SystemPreset preset;
  serving::LlmConfig model;
  serving::EngineOptions options = {};
  std::size_t kv_pool_blocks = 4096;
  std::size_t block_tokens = 16;
  std::size_t max_batch = 64;
  /// Disaggregated-serving specialization (kUnified = monolithic).
  ReplicaRole role = ReplicaRole::kUnified;
  /// What an hour of this replica costs; 0 disables cost accounting for it.
  double dollars_per_hour = 0;

  [[nodiscard]] std::string Label() const { return hw.name + "/" + preset.name; }
};

/// What the autoscaler keys on.  Thresholds are signal-relative: a queue
/// depth, a latency in seconds, or a used-KV fraction in [0, 1].
enum class AutoscaleSignal {
  kQueueDepth,  ///< mean outstanding requests per unit of effective capacity
                ///  (a replica degraded by factor k counts as 1/k capacity,
                ///  so brown-outs raise the signal instead of masking it)
  kTailTtft,    ///< p99 TTFT over a sliding window of completions
  kFreeKv,      ///< KV pressure: used fraction of the pool's paged-KV blocks
  kTailTpot,    ///< p99 TPOT over a sliding window (decode-pool pain signal)
};

/// One role-typed autoscaling pool: the replicas it governs (by role), the
/// spec a scale-up clones, the signal it watches, and its size bounds.  A
/// disaggregated fleet runs one pool per role so a decode-bound burst grows
/// the decode pool instead of cloning whatever spec was added first.
struct AutoscalePool {
  ReplicaRole role = ReplicaRole::kUnified;
  ReplicaSpec spec;  ///< what a scale-up of this pool adds
  AutoscaleSignal signal = AutoscaleSignal::kQueueDepth;
  /// Signal thresholds.  Suggested defaults per signal: kQueueDepth 8 / 0.5;
  /// kTailTtft and kTailTpot in seconds; kFreeKv used fraction, e.g.
  /// 0.85 / 0.25.
  double high = 8.0;
  double low = 0.5;
  /// A pool below min grows regardless of its signal; the scale-down victim
  /// scan additionally never retires the last active replica of a
  /// specialized role (min 0 lets a pool idle away entirely once another
  /// pool covers its role).
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 16;
  // Windowed-signal (kTailTtft / kTailTpot) knobs: the signal abstains until
  // the pool's window holds enough samples.
  double window_seconds = 10.0;
  std::size_t min_window_samples = 8;
};

/// Autoscaler: each pool whose signal crosses its high threshold (or that
/// sits below its min_replicas) grows by a clone of its spec; a pool whose
/// signal stays below its low threshold drains and removes its least-loaded
/// replica.  When several pools could shrink in one evaluation, the one
/// with the highest spec dollars_per_hour shrinks (the biggest cut to
/// predicted $/1M tokens; equal prices keep pool order); scale-ups stay
/// SLO-driven.  Autoscaling is on exactly when `pools` is non-empty; a
/// fleet-wide autoscaler is one kUnified pool whose spec is the replica spec
/// the fleet was built from.  One cooldown paces the whole autoscaler, at
/// most one scale event fires per evaluation, and scale-down additionally
/// requires the fleet to have observed at least one completion or handoff
/// (an empty queue on a cold fleet is absence of data, not idleness).
struct AutoscaleConfig {
  double cooldown_seconds = 2.0;  ///< minimum time between scale events
  /// Window of the fleet-wide ttft_p99_window / tpot_p99_window metric
  /// gauges (each pool's signal windows use AutoscalePool::window_seconds).
  double window_seconds = 10.0;

  /// Role-typed pools; empty disables autoscaling.
  std::vector<AutoscalePool> pools;

  /// Event-pump evaluation period.  0 keeps the arrival-driven autoscaler
  /// (evaluated only when a request arrives — and therefore blind
  /// to the post-burst drain tail).  > 0 arms a periodic tick in the event
  /// pump: the autoscaler also runs between arrivals and through the drain
  /// to quiescence, so an idle fleet scales back to its minimum instead of
  /// burning $/hour across the tail.  The tick disarms once the fleet is
  /// idle and a cooldown-satisfied evaluation fires no event (windowed
  /// signals abstain on an empty window; kQueueDepth keeps shrinking to the
  /// minimum first), and re-arms on new work.
  double tick_seconds = 0;

  /// Downscale stabilization (k8s-HPA style): a shrink commits only after
  /// the signal has read below `low` CONTINUOUSLY for this long (every
  /// evaluation in the window read low), so a momentarily empty queue
  /// between Poisson gaps doesn't retire capacity the next burst instant
  /// needs back.  Time-based on purpose — an eval count would collapse to
  /// nothing at burst arrival rates.  0 = immediate shrink.
  double shrink_stable_seconds = 0;
};

/// A scheduled abrupt failure for ClusterSimulator::Run: at `time`, replica
/// `replica` dies without draining.
struct KillEvent {
  double time = 0;
  std::size_t replica = 0;
};

/// A scheduled partial degradation: at `time`, the replica's compute slows
/// down by `slowdown_factor` (it keeps serving — nothing is lost — but every
/// prefill/chunk/decode charge runs that much slower, and PredictTtft quotes
/// the degraded speed so admission control and TTFT-scoring see it).
struct DegradeEvent {
  double time = 0;
  std::size_t replica = 0;
  double slowdown_factor = 1.0;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(RoutePolicy policy = RoutePolicy::kLeastOutstanding,
                            AutoscaleConfig autoscale = {}, SloConfig slo = {},
                            RetryPolicy retry = {}, DisaggConfig disagg = {});

  /// Adds a replica (usable mid-run: its clock joins the fleet clock).
  /// Returns the replica id, which is stable for the simulator's lifetime.
  /// Adding a prefill- or decode-role replica arms the router's role-aware
  /// stage (when the interconnect is usable).
  std::size_t AddReplica(const ReplicaSpec& spec);

  /// Drains the replica's unfinished requests, re-routes them to the
  /// remaining replicas, and deactivates it.  Its completed-request stats
  /// are retained.  Returns false for an unknown/already-removed id or when
  /// it is the last active replica.
  bool RemoveReplica(std::size_t id);

  /// Abrupt failure at time `now`: the replica dies WITHOUT draining.  All
  /// in-flight work is lost (tokens already generated are wasted) and each
  /// lost request is re-submitted from scratch through the router — which may
  /// reject or drop it like any arrival, back off per the RetryPolicy, or be
  /// abandoned once the retry budget is spent.  Unlike RemoveReplica, killing
  /// the last alive replica is allowed (failures don't ask permission); its
  /// lost requests then drop.  Returns false for an unknown/already-dead id.
  bool KillReplica(std::size_t id, double now);

  /// Queues a kill for Run() to fire when the shared clock reaches it.
  void ScheduleKill(const KillEvent& kill) { kill_schedule_.push_back(kill); }

  /// Partial degradation (chaos): the replica slows down by `slowdown_factor`
  /// rather than dying — in-flight work survives, it just finishes late.
  /// Factors compose with any earlier degradation by replacement (the event
  /// carries the absolute factor, 1.0 restores full speed).  Returns false
  /// for an unknown or inactive id.
  bool DegradeReplica(std::size_t id, double slowdown_factor);

  /// Queues a degradation for Run() to fire on the shared clock.
  void ScheduleDegrade(const DegradeEvent& degrade) {
    degrade_schedule_.push_back(degrade);
  }

  /// Advances the shared clock to `deadline`: steps every active replica
  /// whose horizon is due (see the header comment; every active replica
  /// when telemetry, autoscale pools or an SLO budget are set), harvests
  /// its new completions, and schedules KV migrations for freshly finished
  /// prefills.  Every value the fleet reads is then what stepping every
  /// replica to `deadline` would give.
  void AdvanceTo(double deadline);

  /// Routes one request at its arrival time.  Returns the chosen replica id;
  /// nullopt when no replica is alive (fleet drop) or the SLO admission
  /// control shed it (rejected).
  std::optional<std::size_t> SubmitAndRoute(
      const serving::TimedRequest& request);

  /// Full episode: sorts the trace by arrival, interleaves advancing the
  /// shared clock, scheduled kills, migration landings, backoff retries and
  /// autoscaling with routing, then runs the fleet to quiescence (no work,
  /// no in-flight migrations, no pending retries) and aggregates FleetStats.
  FleetStats Run(const std::vector<serving::TimedRequest>& trace);

  /// Attaches fleet telemetry (either pointer may be null to skip that
  /// half).  The trace recorder receives every lifecycle event — router
  /// decisions with the scorer term breakdown, admissions, prefill/decode
  /// spans, migrations, kills, scale events — on the shared simulated clock;
  /// the metrics registry is sampled at instants the simulation already
  /// visits (arrivals, the autoscale tick, end of run), so attaching it
  /// never perturbs simulated behavior.  Both must outlive the simulator.
  /// Call before Run(); replicas added later (scale-ups) are wired
  /// automatically.
  void AttachTelemetry(obs::TraceRecorder* trace,
                       obs::MetricsRegistry* metrics);

  [[nodiscard]] std::size_t ActiveReplicas() const;
  [[nodiscard]] std::size_t TotalOutstanding() const;
  /// Distinct ServingEngines behind the fleet's replicas, retired ones
  /// included: replicas with equal (hw, preset, model, options) share one.
  [[nodiscard]] std::size_t EngineCount() const { return engines_.size(); }
  /// Requests whose KV is currently on the wire between pools.
  [[nodiscard]] std::size_t InMigration() const {
    return coordinator_.InFlight();
  }
  [[nodiscard]] const Router& router() const { return router_; }
  [[nodiscard]] const DisaggCoordinator& coordinator() const {
    return coordinator_;
  }

 private:
  /// Sentinel pool index: the replica's role matches no configured pool
  /// (always the case with autoscaling off).
  static constexpr std::size_t kNoPool = static_cast<std::size_t>(-1);

  struct Replica {
    std::size_t id = 0;
    ReplicaSpec spec;
    /// Shared with every replica whose spec prices the same (see engines_).
    std::shared_ptr<const serving::ServingEngine> engine;
    std::unique_ptr<serving::ContinuousBatchScheduler> scheduler;
    bool active = true;
    bool killed = false;
    std::size_t pool = kNoPool;  ///< owning AutoscalePool index
    double added_at = 0;    ///< fleet clock when the replica joined
    double retired_at = -1; ///< scale-down instant; < 0 = never retired
    std::size_t submitted = 0;
    /// Stepped or mutated since its view and horizon were last refreshed.
    bool dirty = false;
  };

  /// Per-pool windowed-signal state (parallel to AutoscaleConfig::pools).
  struct PoolRuntime {
    SlidingWindowStats ttft_window;
    SlidingWindowStats tpot_window;
    /// When the current unbroken run of below-low readings began
    /// (downscale stabilization); < 0 = not currently reading low.
    double low_since = -1;
  };

  /// One pool's signal reading at an evaluation instant.
  struct PoolSignal {
    std::size_t active = 0;  ///< active replicas the pool currently governs
    double value = 0;        ///< the raw signal reading
    bool up = false;         ///< reading above the pool's high threshold
    bool down = false;       ///< reading below the pool's low threshold
    /// The pool has ever been routed work (lifetime submissions > 0) —
    /// shrink evidence: a pool that never served anything shows an empty
    /// queue because the run just started, not because it is
    /// overprovisioned.
    bool work_seen = false;
  };

  /// A kill/migration-loss re-submission waiting out its backoff.
  struct PendingRetry {
    double due = 0;
    serving::TimedRequest request;
  };

  /// The routing views of every replica, by id, for one decision: the
  /// kept views with the dirty replicas refreshed.  `signature` (when
  /// given) lets the TTFT estimate price the prefix-cache discount at each
  /// replica; the views also expose each pool's PrefixIndex for the
  /// router's overlap term.  Valid until the next fleet mutation.
  [[nodiscard]] const std::vector<ReplicaView>& Views(
      std::size_t prompt_tokens,
      const serving::PrefixSignature* signature = nullptr);
  /// Telemetry, autoscale pools or an SLO budget read every replica at
  /// every event, so every horizon is -infinity (see the header comment).
  [[nodiscard]] bool StepsEveryReplica() const;
  /// Queues the replica's view and horizon for a refresh.
  void MarkDirty(Replica& replica);
  /// Re-reads the replica's view and horizon from its scheduler.
  void Refresh(Replica& replica);
  /// Refreshes every dirty replica.
  void FlushDirty();
  /// Brings the replica to the fleet clock before the fleet mutates it
  /// (StepUntil(now_), which by the horizon contract changes nothing the
  /// fleet reads) and marks it dirty.  Returns its scheduler.
  serving::ContinuousBatchScheduler& Touch(Replica& replica);
  /// The engine of an earlier replica with the same pricing inputs as
  /// `spec`, or a new one appended to engines_.
  std::shared_ptr<const serving::ServingEngine> EngineFor(
      const ReplicaSpec& spec);
  /// Shared routing path for arrivals and kill-retries: counts rejects/drops
  /// and submits to the chosen scheduler (flagged prefill-only when it lands
  /// on a prefill-role replica).
  std::optional<std::size_t> RouteOne(const serving::TimedRequest& request);
  /// One request lost with its host (kill) or transfer (target death, or
  /// its source and target both gone): replays `lost.Original()` with its
  /// session and one more attempt, spending a retry — scheduling the
  /// re-route after backoff — or abandons the request when the budget is
  /// gone.
  void RetryLost(const serving::Request& lost, double now);
  /// Takes the outboxes of the replicas in stepped_ (in id order): adds
  /// each completion to samples_ and the signal windows, and plans a
  /// migration for each prefill handoff; then empties stepped_.  A replica
  /// no event stepped has empty outboxes.
  void Harvest();
  void PlanHandoff(Replica& src, const serving::PrefillHandoff& handoff);
  /// Delivers a continuation + KV to `dst`'s scheduler; on import OOM the
  /// request is reset to original form and recomputes there (wasting its
  /// first token).
  void DeliverContinuation(Replica& dst, serving::Request continuation,
                           const serving::KvExport& kv, double ready);
  /// Lands every due migration: marks the continuation `migrated` and
  /// delivers it to a live target, or takes the retry path when the target
  /// died mid-transfer.
  void LandMigrationsThrough(double deadline);
  void ReleaseRetriesThrough(double deadline);
  /// One autoscaler evaluation: per-pool signals, at most one scale event
  /// per call (the shared cooldown paces the loop), SLO-driven growth
  /// outranking cost-driven shrink.
  void MaybeAutoscale(double now);
  [[nodiscard]] PoolSignal EvalPool(std::size_t pool, double now);
  /// First configured pool whose role matches, else kNoPool.
  [[nodiscard]] std::size_t PoolFor(ReplicaRole role) const;
  /// Least-outstanding active replica of `pool` that is safe to retire:
  /// never the last active replica of a specialized role, and replicas with
  /// KV imports in flight are passed over while a quieter victim exists
  /// (retiring them would force the coordinator to re-plan transfers
  /// RemoveReplica can otherwise leave alone).
  [[nodiscard]] std::size_t PickScaleDownVictim(std::size_t pool) const;
  [[nodiscard]] bool LastActiveOfRole(const Replica& replica) const;
  void CommitScaleUp(std::size_t pool, const ReplicaSpec& spec, double now,
                     double signal_value);
  bool CommitScaleDown(std::size_t pool, double now, double signal_value);
  /// Any queued/running work, in-flight migration, or pending retry.
  [[nodiscard]] bool FleetBusy() const;
  /// The shared clock: furthest-advanced active replica (0 when none).
  [[nodiscard]] double FleetNow() const;
  /// Re-arms the periodic autoscale tick when new work enters an idle fleet.
  void ArmAutoscaleTick();
  /// Fires kills, migration landings and backoff retries in time order up
  /// to `deadline`, advancing the fleet clock to each event.
  void ProcessEventsThrough(double deadline);
  /// Post-arrival phase of Run(): repeat (run replicas to completion, land
  /// events) until no work, migrations or retries remain anywhere.
  void DrainToQuiescence();

  /// Names the replica's Perfetto process lane and wires its scheduler's
  /// lifecycle hooks (no-op when no recorder is attached).
  void WireReplicaTelemetry(Replica& replica);
  /// Registers the fleet metric series (schema fixed before first sample).
  void RegisterMetrics();
  /// Snapshots every registered series into one time-series row at `now`.
  void SampleMetrics(double now);

  /// Handles into the attached MetricsRegistry.  Role-indexed arrays run
  /// kUnified, kPrefill, kDecode.
  struct MetricIds {
    std::size_t replicas[3] = {};
    std::size_t queue_depth[3] = {};
    std::size_t kv_used[3] = {};
    std::size_t ttft_p99 = 0;
    std::size_t tpot_p99 = 0;
    std::size_t tokens_per_s = 0;
    std::size_t inflight_migrations = 0;
    std::size_t pending_retries = 0;
    std::size_t dollars_per_hour = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t lost = 0;
    std::size_t retried = 0;
    std::size_t migrated = 0;
    std::size_t local_fallbacks = 0;
  };

  Router router_;
  AutoscaleConfig autoscale_;
  RetryPolicy retry_;
  DisaggCoordinator coordinator_;
  std::vector<Replica> replicas_;
  /// The fleet's distinct engines, one per distinct (hw, preset, model,
  /// options) added so far, in first-use order.  A replica whose spec
  /// matches an earlier one shares that engine and its warm cost tables.
  std::vector<std::shared_ptr<const serving::ServingEngine>> engines_;
  /// Counters accumulated during the run.
  FleetStats tally_;
  double last_scale_event_ = -1e300;
  /// Pending, consumed by Run.
  std::vector<KillEvent> kill_schedule_;
  /// Pending, consumed by Run.
  std::vector<DegradeEvent> degrade_schedule_;
  std::vector<PendingRetry> pending_retries_;
  /// The latency samples of every completion harvested so far, reserved by
  /// Run() for one per trace request.
  LatencySamples samples_;
  /// Harvest's scratch: a replica's outboxes, taken by swap so their
  /// storage cycles between the fleet and the schedulers.
  std::vector<serving::RequestTiming> harvest_done_;
  std::vector<serving::PrefillHandoff> harvest_handoffs_;
  /// Visible stalls, one per landed migration.
  std::vector<double> migration_seconds_;
  /// Fleet-wide TTFT/TPOT windows behind the ttft_p99_window /
  /// tpot_p99_window metric gauges, fed only while metrics are attached;
  /// nothing that steers the simulation reads them (pool signals read their
  /// own PoolRuntime windows).
  SlidingWindowStats ttft_window_;
  SlidingWindowStats tpot_window_;
  /// Per-pool signal windows, parallel to autoscale_.pools.
  std::vector<PoolRuntime> pool_runtime_;
  /// Recent generated-token samples (finish, tokens) behind the
  /// tokens_per_s_window gauge over a fixed 10 s window, fed only while
  /// metrics are attached.
  SlidingWindowStats tokens_window_;
  /// Periodic autoscale tick state (armed only when tick_seconds > 0).
  bool tick_armed_ = false;
  double next_autoscale_tick_ = 0;
  /// The fleet has produced at least one completion or prefill handoff.
  /// Scale-down requires this evidence: a cold fleet with an empty queue is
  /// unprovisioned, not overprovisioned.
  bool work_observed_ = false;
  /// A stabilizing shrink is waiting out its window; keeps the periodic
  /// tick armed through an otherwise idle fleet so the shrink can land.
  bool shrink_pending_ = false;
  /// Fleet-level event count for the SimThroughput meter: routing decisions,
  /// migration landings, kills, degrades, autoscale ticks.  Deterministic
  /// under a fixed seed (counts simulated work, not wall time).
  std::uint64_t fleet_events_ = 0;
  /// The fleet clock: the latest AdvanceTo deadline.  A touch steps a
  /// replica to it.
  double now_ = 0;
  /// Per replica id: its horizon (+infinity once inactive, -infinity while
  /// StepsEveryReplica()) and its routing view, both as of its last refresh.
  std::vector<double> horizons_;
  std::vector<ReplicaView> views_;
  /// Replicas to refresh before the next read of horizons_ or views_.
  std::vector<std::size_t> dirty_;
  /// Replicas stepped since the last Harvest, in id order.
  std::vector<std::size_t> stepped_;
  // Telemetry (null = detached; every hook is one branch when detached).
  obs::TraceRecorder* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  MetricIds metric_ids_;
  /// Owned by *metrics_.
  obs::Histogram* ttft_hist_ = nullptr;
  /// Owned by *metrics_.
  obs::Histogram* tpot_hist_ = nullptr;
};

}  // namespace liquid::cluster
