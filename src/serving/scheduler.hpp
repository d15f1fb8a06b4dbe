#pragma once
// Iteration-level (continuous) batching scheduler over the paged KV cache —
// the Orca/vLLM-style runtime loop the paper's serving system builds on.
//
// Requests arrive (optionally with timestamps) carrying a prompt length and
// a generation budget; each engine iteration admits arrived requests while
// KV blocks remain, runs one decode step for all running sequences (costed
// by the ServingEngine), retires finished sequences, and preempts
// (recompute-style) when an append OOMs.  Per-request timings (TTFT, TPOT,
// end-to-end) are recorded for the latency experiments.
//
// Two extensions serve the disaggregated prefill/decode cluster layer:
//
//  * Prefill-only completion: a request flagged `prefill_only` leaves the
//    scheduler as soon as its first token exists — its KV is exported from
//    the pool and parked in the handoff outbox for the cluster layer to
//    migrate to a decode replica.  A request flagged `kv_migrated` is the
//    other end of that journey: its KV is imported before admission
//    (AcceptMigrated), so admission skips the prefill charge entirely.
//
//  * Scheduler-level chunked prefill: when the engine runs with
//    prefill_chunk_tokens > 0, admission no longer charges the whole prompt
//    in one iteration.  The sequence is admitted instantly and its prefill
//    advances one chunk per Step interleaved with decode steps
//    (Sarathi-style), so a long prompt cannot stall the decode batch for its
//    whole prefill.
//
// Decode runs.  Between fleet events most iterations change only the clock
// and the token counts: a fixed batch of decode-ready sequences each gains
// one token.  StepUntil and RunToCompletion advance such a stretch of k >= 1
// iterations in one call when no iteration in it needs per-iteration
// bookkeeping: every running sequence is decode-ready with at least 2
// tokens left (so none retires; Step has already given each its first
// token and handed prefill-only ones off), and the waiting head stays out
// (it arrives after the clock at every iteration, or the batch is full, or
// the KV pool is short; the last two hold until a retirement, which is a
// plain Step).  The run prices iteration by iteration exactly as Step does,
// with the same DecodePricer (kept for the last batch size) and the same +=
// order, and stops where StepUntil would.  Then it appends k tokens per
// sequence with one KvBlockManager::AppendTokens call by slab slot, which
// takes the same block ids k Steps would.  The run is capped at the
// iterations the free list covers, so an iteration whose append would
// preempt is still a plain Step.  Stats, completions, traces (one
// kDecodeStep span per iteration) and every block id are those of k Steps.
//
// The run stays open across StepUntil calls: its shape (the head's
// admission time, the fewest tokens left, the rounds the free list covers)
// is kept until something other than a run changes the batch, the queue or
// the free list, so the next call resumes it without a rescan.
//
// The horizon.  A fleet reads a replica through outstanding(), HasWork(), the
// free block count, the prefix index, the completion and handoff outboxes and
// the drop count; a decode run changes none of them until an iteration
// retires a sequence or takes a block.  The horizon is the clock at which the
// first iteration that may change one of them can start: the start of run
// iteration min(left - 1, least tail-block room), capped at the admissible
// head's arrival; an idle replica's head arrival (infinity with an empty
// queue); and the clock itself whenever the next iteration needs a plain
// Step.  StepUntil(t) for any t below the horizon therefore leaves every
// fleet-read value as it was, and the run is the same iterations whether it
// is reached in one StepUntil or in several.  An earlier horizon is always
// safe.  Horizon() returns a lower bound priced from the run's next iteration
// alone (a decode step costs no less at a longer KV length), and DecodeRun
// reuses that price, so each iteration is still priced once.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "obs/trace_recorder.hpp"
#include "serving/engine.hpp"
#include "serving/kv_cache.hpp"
#include "serving/workload.hpp"

namespace liquid::serving {

struct Request {
  SeqId id = 0;
  std::size_t prompt_tokens = 0;
  std::size_t max_new_tokens = 0;
  double arrival = 0;  ///< simulated arrival time (0 = already queued)

  // Internal bookkeeping carried across preemptions.
  double first_token_time = -1;
  std::size_t progress = 0;  ///< tokens generated in earlier residencies

  /// Earliest admit time, when later than `arrival` (a migrated continuation
  /// cannot start decoding before its KV transfer lands).  TTFT still
  /// charges from `arrival`.
  double ready = 0;
  /// Complete at the first token and export KV for migration (prefill pool).
  bool prefill_only = false;
  /// KV already imported into this scheduler's pool: admission skips both
  /// the allocation and the prefill charge (decode pool).
  bool kv_migrated = false;
  /// Retry identity, carried unchanged through every residency: whether
  /// some attempt landed a KV migration on a live decode replica (unlike
  /// kv_migrated, sticky through import OOMs and retries; Retire copies it
  /// into RequestTiming), the failed attempts this request has survived, and
  /// the conversation key decode placement keeps sticky.  The scheduler
  /// never reads them.
  bool migrated = false;
  std::uint32_t attempt = 0;
  std::uint64_t session = 0;

  /// Block-hash signature of the prompt; published in the pool's
  /// PrefixIndex once the prefill (or import) makes the blocks resident.
  /// Admission looks the signature up in the live index: leading blocks
  /// resident then skip their prefill compute (the blocks are still
  /// allocated — the discount is compute, not memory — and a full-prompt
  /// hit still recomputes the last token for logits).
  PrefixSignature prefix = {};

  /// A fresh submission of a trace request.
  [[nodiscard]] static Request FromTimed(const TimedRequest& timed) {
    Request r;
    r.id = timed.id;
    r.prompt_tokens = timed.prompt_tokens;
    r.max_new_tokens = timed.max_new_tokens;
    r.arrival = timed.arrival_seconds;
    r.migrated = timed.migrated;
    r.attempt = timed.attempt;
    r.session = timed.session;
    r.prefix = timed.prefix;
    return r;
  }

  /// The request as first submitted: `progress` tokens were folded into
  /// prompt_tokens (and out of max_new_tokens) by each FoldGenerated, so
  /// unfolding them recovers the original shape.  Arrival, the retry
  /// identity and prefix (the content identity) survive; timing and
  /// generation state do not.
  [[nodiscard]] Request Original() const {
    Request r;
    r.id = id;
    r.prompt_tokens = prompt_tokens - progress;
    r.max_new_tokens = max_new_tokens + progress;
    r.arrival = arrival;
    r.migrated = migrated;
    r.attempt = attempt;
    r.session = session;
    r.prefix = prefix;
    return r;
  }

  /// Carries `generated` tokens of a residency forward: they become prompt
  /// the next residency re-reads (or recomputes) and leave the budget.
  void FoldGenerated(std::size_t generated) {
    prompt_tokens += generated;
    max_new_tokens -= generated;
    progress += generated;
  }

  [[nodiscard]] double EffectiveArrival() const {
    return ready > arrival ? ready : arrival;
  }
};

/// What a prefill-only request leaves behind: the continuation (prompt
/// folded forward, first-token timing carried) plus its exported KV.  The
/// cluster layer turns this into a migration to a decode replica.
struct PrefillHandoff {
  Request request;
  KvExport kv;
  double ready = 0;  ///< scheduler clock when the prefill (+1 token) finished
};

struct SchedulerStats {
  std::size_t iterations = 0;
  std::size_t completed = 0;
  std::size_t preemptions = 0;
  std::size_t dropped = 0;  ///< requests that can never fit the KV pool
  std::size_t prefill_handoffs = 0;  ///< prefill-only requests handed off
  /// Admissions whose leading prompt blocks were resident.
  std::size_t prefix_hits = 0;
  double prefill_tokens_saved = 0;  ///< prompt tokens whose prefill was skipped
  double simulated_seconds = 0;
  double busy_seconds = 0;  ///< clock time spent in prefill/decode compute
  double generated_tokens = 0;
  std::size_t peak_running = 0;
  [[nodiscard]] double TokensPerSecond() const {
    return simulated_seconds > 0 ? generated_tokens / simulated_seconds : 0;
  }
};

class ContinuousBatchScheduler {
 public:
  ContinuousBatchScheduler(const ServingEngine& engine,
                           std::size_t kv_pool_blocks,
                           std::size_t block_tokens,
                           std::size_t max_batch = 256);

  void Submit(Request request);

  /// Lands a migrated-in continuation: imports its KV into this pool and
  /// queues the request with the import already paid for.  Returns false
  /// (importing nothing) when the pool cannot hold the KV — the caller must
  /// fall back to recomputing the prefill from scratch.
  bool AcceptMigrated(Request request, const KvExport& kv);

  /// Runs until every submitted request completes; returns aggregate stats.
  SchedulerStats RunToCompletion();

  /// Executes a single engine iteration (admission + one decode step).
  /// Returns false when there is no work left.
  bool Step();

  /// Advances the replica until its simulated clock reaches `deadline` or it
  /// runs out of work; an idle replica's clock is snapped to `deadline` so a
  /// fleet of replicas stays on a shared simulated clock.  A single iteration
  /// may overshoot the deadline (discrete-event semantics).
  void StepUntil(double deadline);

  /// A lower bound on the horizon (see the header comment): StepUntil to
  /// any earlier clock changes only the clock, the token counts and the
  /// stats.  Infinity when the replica has no work.  Not const: it opens
  /// the run and prices its next iteration, which DecodeRun reuses.
  [[nodiscard]] double Horizon();

  /// Extracts every unfinished request (running first, preserving carried
  /// timing state, then waiting) and frees their KV blocks.  Every token a
  /// request generated here is folded into its `progress`.  Used by the
  /// cluster layer to re-route work off a replica being scaled down, and on
  /// a kill, where each request's `progress` is wasted work and its
  /// Original() is what gets retried.
  std::vector<Request> Drain();

  /// TTFT estimate for a request of `prompt_tokens` arriving now: its own
  /// prefill, the prefills queued ahead of it, the REMAINING chunks of any
  /// prefill currently in progress (already-processed chunks are credited,
  /// so mid-prefill admission predictions do not over-reject), and — when
  /// the batch or pool is saturated — a service-rate admission wait (one
  /// slot frees every mean-remaining-tokens / batch decode steps, so each
  /// FIFO position ahead costs that much).  Infinity when the prompt can
  /// never fit the pool.  The admission-control signal behind SloConfig.
  /// `cached_prefix_tokens` prices the prefix-cache discount (the request's
  /// own prefill shrinks to the uncached suffix), so admission control and
  /// TTFT-scoring placement both see locality; it is in TOKENS because the
  /// signature's block size need not match this pool's.
  ///
  /// Cost: each queued request's prefill term (its PrefillCharge at its live
  /// prefix credit) is cached next to it in the queue.  A term reads only the
  /// request, which is fixed while it waits, the pool's PrefixIndex
  /// membership and the slowdown, so the cache is exact under this rule:
  /// every term is repriced when PrefixIndex::epoch() or the slowdown
  /// changed since the last call, and otherwise only entries queued since
  /// then (Submit, AcceptMigrated, a preempted retry) are priced.  The terms
  /// are still summed one by one in FIFO order, so the estimate is the same
  /// double an uncached walk returns.  The migrated-KV skip stays a live
  /// check.  The cache is scheduler state like the queue itself: only the
  /// thread that owns the scheduler may call this.
  [[nodiscard]] double PredictTtft(
      std::size_t prompt_tokens, std::size_t cached_prefix_tokens = 0) const;

  /// Partial degradation (chaos): every subsequent compute charge — prefill,
  /// chunk, decode — runs `factor`× slower (clamped to >= 1).  Unlike a
  /// kill, nothing is lost; the replica just stops pulling its weight, and
  /// PredictTtft quotes the degraded speed so admission control sees it.
  void SetSlowdown(double factor) {
    slowdown_ = factor < 1.0 ? 1.0 : factor;
    run_state_ = RunState::kStale;  // the run was priced at the old factor
  }
  [[nodiscard]] double slowdown() const { return slowdown_; }

  /// Attaches lifecycle tracing (cluster telemetry).  `replica` is this
  /// scheduler's fleet id — events land in that replica's Perfetto lane.
  /// The recorder must outlive the scheduler; nullptr detaches.  Every hook
  /// is a single null-check branch when detached.
  void SetTrace(obs::TraceRecorder* trace, std::size_t replica) {
    trace_ = trace;
    trace_pid_ = obs::ReplicaPid(replica);
  }

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }
  /// The completion outbox: requests finished here since the last
  /// TakeOutboxes, in completion order.
  [[nodiscard]] const std::vector<RequestTiming>& completions() const {
    return completions_;
  }
  /// The handoff outbox: prefill-only requests that finished their prefill
  /// here since the last TakeOutboxes, with exported KV, in handoff order.
  [[nodiscard]] const std::vector<PrefillHandoff>& handoffs() const {
    return handoffs_;
  }
  /// Hands both outboxes to the caller by swap and leaves them empty:
  /// `completions` and `handoffs` receive what finished since the last
  /// call, and their old contents are discarded (their storage becomes the
  /// new outboxes').  The cluster layer takes each finished request exactly
  /// once this way.
  void TakeOutboxes(std::vector<RequestTiming>& completions,
                    std::vector<PrefillHandoff>& handoffs) {
    completions_.swap(completions);
    handoffs_.swap(handoffs);
    completions_.clear();
    handoffs_.clear();
  }
  [[nodiscard]] std::size_t running() const { return running_.size(); }
  [[nodiscard]] std::size_t waiting() const { return waiting_.size(); }
  /// Queue depth the router balances on: everything admitted or queued.
  [[nodiscard]] std::size_t outstanding() const {
    return running_.size() + waiting_.size();
  }
  [[nodiscard]] bool HasWork() const {
    return !running_.empty() || !waiting_.empty();
  }
  [[nodiscard]] double Now() const { return stats_.simulated_seconds; }
  /// Read-only view of the paged-KV pool (free/used block introspection).
  [[nodiscard]] const KvBlockManager& pool() const { return pool_; }

 private:
  struct Running {
    Request request;
    std::size_t generated = 0;
    /// Prompt tokens still to prefill (scheduler-level chunked prefill).
    /// Zero once the sequence is decode-ready; always zero when the engine
    /// runs unchunked (the whole prefill is charged at admission).
    std::size_t prefill_remaining = 0;
    /// The sequence's KvBlockManager slab slot, the handle appends take.
    std::uint32_t slot = KvBlockManager::kNoSlot;
  };

  /// Whether DecodeRun can advance from the current state, with run_ and
  /// run_slots_ describing the run when it can.  Kept across calls: only
  /// DecodeRun (which updates it) and the calls that change the batch, the
  /// queue or the free list (which mark it stale) move it.
  bool OpenRun();
  /// Advances a decode run of k >= 1 iterations that StepUntil(deadline)
  /// would take one Step at a time (see the header comment).  Returns false,
  /// changing nothing, when the next iteration needs a plain Step.
  bool DecodeRun(double deadline);
  /// The engine's DecodePricer for `batch`, kept for the last batch size
  /// priced (one entry: a decode batch keeps its size between admissions
  /// and retirements).
  const ServingEngine::DecodePricer& PricerFor(std::size_t batch);
  void Admit();
  void Preempt();
  void Retire(const Running& done);
  void Handoff(const Running& done);
  /// Cost of the chunks still ahead of a mid-prefill sequence.
  [[nodiscard]] double RemainingPrefillSeconds(const Running& r) const;
  /// Prompt tokens the request's prefill can skip: its signature's overlap
  /// with the live index (capped so a full hit still recomputes the last
  /// token for logits).
  [[nodiscard]] std::size_t CachedPrefixTokens(const Request& request) const;
  /// Prefill charge for a request whose first `cached` prompt tokens are
  /// resident (its CachedPrefixTokens at admission).
  [[nodiscard]] double PrefillCharge(const Request& request,
                                     std::size_t cached) const;

  const ServingEngine& engine_;
  KvBlockManager pool_;
  std::size_t max_batch_;
  std::size_t chunk_;  ///< engine prefill_chunk_tokens (0 = unchunked)
  double slowdown_ = 1.0;  ///< degradation factor on every compute charge
  obs::TraceRecorder* trace_ = nullptr;  ///< null = tracing disabled
  std::int32_t trace_pid_ = 0;  ///< this replica's trace process lane
  /// A queued request with its prefill term as PredictTtft last priced it
  /// (PrefillCharge at the live prefix credit; -1 until first priced).
  struct Waiting {
    Request request;
    mutable double prefill = -1;
  };
  std::deque<Waiting> waiting_;
  /// Index epoch and slowdown the cached Waiting::prefill terms were priced
  /// at; PredictTtft reprices every term when either has moved.
  mutable std::uint64_t priced_epoch_ = 0;
  mutable double priced_slowdown_ = 1.0;
  std::vector<Running> running_;
  /// The open decode run (see OpenRun).  kRefused: the next iteration
  /// needs a plain Step.
  enum class RunState : std::uint8_t { kStale, kRefused, kOpen };
  static constexpr std::size_t kUnknownRoom = static_cast<std::size_t>(-1);
  struct RunShape {
    double admit_at = 0;      ///< the head's arrival if it fits, else inf
    std::size_t left = 0;     ///< fewest tokens any sequence has left
    std::size_t len_sum = 0;  ///< KV tokens summed over the batch
    std::size_t covered = 0;  ///< rounds the free list covers (<= left - 1)
    std::size_t room = 0;     ///< least tail-block room, or kUnknownRoom
    double next_seconds = -1; ///< the next iteration's price (< 0: unpriced)
  };
  RunState run_state_ = RunState::kStale;
  RunShape run_;
  /// The slots of running_, in batch order, while the run is open.
  std::vector<std::uint32_t> run_slots_;
  /// PricerFor's entry: the batch size pricer_ was built for (0 = none yet).
  std::size_t pricer_batch_ = 0;
  ServingEngine::DecodePricer pricer_;
  SchedulerStats stats_;
  std::vector<RequestTiming> completions_;
  std::vector<PrefillHandoff> handoffs_;
};

}  // namespace liquid::serving
