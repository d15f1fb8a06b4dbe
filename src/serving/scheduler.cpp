#include "serving/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/prof/wall_profiler.hpp"

namespace liquid::serving {

ContinuousBatchScheduler::ContinuousBatchScheduler(const ServingEngine& engine,
                                                   std::size_t kv_pool_blocks,
                                                   std::size_t block_tokens,
                                                   std::size_t max_batch)
    : engine_(engine), pool_(kv_pool_blocks, block_tokens),
      max_batch_(max_batch),
      chunk_(engine.options().prefill_chunk_tokens) {}

void ContinuousBatchScheduler::Submit(Request request) {
  if (trace_ != nullptr) {
    trace_->AsyncBegin(obs::TraceEventType::kStageQueued,
                       std::max(stats_.simulated_seconds,
                                request.EffectiveArrival()),
                       request.id, static_cast<double>(trace_pid_ - 1));
  }
  waiting_.push_back({request});
  run_state_ = RunState::kStale;  // the head may be new
}

bool ContinuousBatchScheduler::AcceptMigrated(Request request,
                                              const KvExport& kv) {
  if (!pool_.Import(kv)) return false;
  request.kv_migrated = true;
  run_state_ = RunState::kStale;  // the import took free blocks
  if (trace_ != nullptr) {
    trace_->AsyncBegin(obs::TraceEventType::kStageQueued,
                       std::max(stats_.simulated_seconds,
                                request.EffectiveArrival()),
                       request.id, static_cast<double>(trace_pid_ - 1));
  }
  waiting_.push_back({request});
  return true;
}

std::size_t ContinuousBatchScheduler::CachedPrefixTokens(
    const Request& request) const {
  if (request.prefix.empty() || request.prefix.block_tokens == 0) return 0;
  // The live index is the only source of a hit: residency moves both ways
  // while a request waits (a same-prefix request queued ahead registers its
  // blocks when its prefill runs, or the holder retires and frees them).
  const std::size_t blocks = std::min(
      pool_.prefix_index().SharedPrefixBlocks(request.prefix.hashes),
      request.prefix.hashes.size());
  if (blocks == 0) return 0;
  std::size_t cached =
      blocks * static_cast<std::size_t>(request.prefix.block_tokens);
  // The signature's final block can be partial; never credit tokens it does
  // not attest (a preempted retry's prompt grows past the signed prompt).
  if (request.prefix.covered_tokens > 0) {
    cached = std::min(cached, request.prefix.covered_tokens);
  }
  // A fully cached prompt still recomputes its last token for logits.
  return std::min(cached,
                  request.prompt_tokens > 0 ? request.prompt_tokens - 1 : 0);
}

double ContinuousBatchScheduler::PrefillCharge(const Request& request,
                                               std::size_t cached) const {
  // With a cached prefix, only the suffix is computed; its attention still
  // reads the cached tokens (same shape as a later chunk of a chunked
  // prefill, so it is priced the same way).
  const double t =
      cached > 0
          ? engine_.PrefillChunkSeconds(request.prompt_tokens - cached, cached)
          : engine_.PrefillSeconds(1, request.prompt_tokens);
  return t * slowdown_;
}

void ContinuousBatchScheduler::Admit() {
  while (!waiting_.empty() && running_.size() < max_batch_) {
    const Request& next = waiting_.front().request;
    if (next.EffectiveArrival() > stats_.simulated_seconds) break;
    const std::uint32_t imported =
        next.kv_migrated ? pool_.Slot(next.id) : KvBlockManager::kNoSlot;
    if (imported != KvBlockManager::kNoSlot) {
      // The KV landed via AcceptMigrated: nothing to allocate, no prefill to
      // charge.  One free block of generation headroom keeps parity with the
      // conservative admission below.
      if (!pool_.CanAllocate(1)) break;
      if (trace_ != nullptr) {
        const double at = stats_.simulated_seconds;
        trace_->Instant(obs::TraceEventType::kAdmit, at, trace_pid_,
                        obs::kTidLifecycle, next.id);
        trace_->AsyncEnd(obs::TraceEventType::kStageQueued, at, next.id);
        trace_->AsyncBegin(obs::TraceEventType::kStageRun, at, next.id,
                           static_cast<double>(trace_pid_ - 1));
      }
      running_.push_back({next, 0, 0, imported});
      waiting_.pop_front();
      continue;
    }
    // Conservative admission: require room for the prompt plus one block of
    // generation headroom so a fresh sequence cannot immediately preempt.
    const std::size_t need = pool_.BlocksNeeded(next.prompt_tokens) + 1;
    if (!pool_.CanAllocate(need)) break;
    const bool ok = pool_.AddSequence(next.id, next.prompt_tokens);
    assert(ok);
    (void)ok;
    const std::uint32_t slot = pool_.Slot(next.id);
    const std::size_t cached = CachedPrefixTokens(next);
    if (cached > 0) {
      ++stats_.prefix_hits;
      stats_.prefill_tokens_saved += static_cast<double>(cached);
    }
    const double admitted_at = stats_.simulated_seconds;
    if (trace_ != nullptr) {
      trace_->Instant(obs::TraceEventType::kAdmit, admitted_at, trace_pid_,
                      obs::kTidLifecycle, next.id,
                      static_cast<double>(cached));
      if (cached > 0) {
        trace_->Instant(obs::TraceEventType::kPrefixHit, admitted_at,
                        trace_pid_, obs::kTidLifecycle, next.id,
                        static_cast<double>(cached));
      }
      trace_->AsyncEnd(obs::TraceEventType::kStageQueued, admitted_at,
                       next.id);
      trace_->AsyncBegin(obs::TraceEventType::kStageRun, admitted_at, next.id,
                         static_cast<double>(trace_pid_ - 1));
    }
    if (chunk_ > 0) {
      // Chunked prefill: the sequence enters the batch immediately and its
      // prefill advances one chunk per Step, interleaved with decode.  The
      // cached prefix never enters the chunk queue (prefill_remaining starts
      // at the uncached suffix, so `prior` accounting sees it as done).
      running_.push_back({next, 0, next.prompt_tokens - cached, slot});
    } else {
      // Prefill for the admitted sequence happens in this iteration; charge
      // it (minus the cached-prefix discount).
      const double prefill = PrefillCharge(next, cached);
      stats_.simulated_seconds += prefill;
      stats_.busy_seconds += prefill;
      if (trace_ != nullptr) {
        trace_->Span(obs::TraceEventType::kPrefill, admitted_at, prefill,
                     trace_pid_, obs::kTidEngine, next.id,
                     static_cast<double>(next.prompt_tokens),
                     static_cast<double>(cached));
      }
      if (!next.prefix.empty()) {
        pool_.RegisterPrefix(next.id, next.prefix.hashes);
      }
      running_.push_back({next, 0, 0, slot});
    }
    waiting_.pop_front();
  }
  stats_.peak_running = std::max(stats_.peak_running, running_.size());
}

void ContinuousBatchScheduler::Preempt() {
  // Recompute-style preemption: evict the most recently admitted sequence
  // back to the waiting queue, releasing its blocks.
  assert(!running_.empty());
  Running victim = running_.back();
  running_.pop_back();
  pool_.Free(victim.request.id);
  if (trace_ != nullptr) {
    const double at = stats_.simulated_seconds;
    trace_->Instant(obs::TraceEventType::kPreempt, at, trace_pid_,
                    obs::kTidLifecycle, victim.request.id,
                    static_cast<double>(victim.generated));
    trace_->AsyncEnd(obs::TraceEventType::kStageRun, at, victim.request.id);
    trace_->AsyncBegin(obs::TraceEventType::kStageQueued, at,
                       victim.request.id,
                       static_cast<double>(trace_pid_ - 1));
  }
  // It restarts with its tokens-so-far as the new prompt; timing state
  // (first token, cumulative progress) carries over.  Migrated KV does not
  // survive eviction: the retry recomputes its prefill like any other.
  Request retry = victim.request;
  retry.FoldGenerated(victim.generated);
  retry.kv_migrated = false;
  waiting_.push_front({retry});
  ++stats_.preemptions;
}

void ContinuousBatchScheduler::Retire(const Running& done) {
  pool_.Free(done.request.id);
  RequestTiming timing;
  timing.id = done.request.id;
  timing.arrival = done.request.arrival;
  timing.first_token = done.request.first_token_time >= 0
                           ? done.request.first_token_time
                           : stats_.simulated_seconds;
  timing.finish = stats_.simulated_seconds;
  timing.generated = done.request.progress + done.generated;
  timing.migrated = done.request.migrated;
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kComplete, timing.finish, trace_pid_,
                    obs::kTidLifecycle, timing.id,
                    static_cast<double>(timing.generated), timing.Ttft());
    trace_->AsyncEnd(obs::TraceEventType::kStageRun, timing.finish,
                     timing.id);
    if (done.request.kv_migrated) {
      // Close the KV-migration flow arrow at the migrated request's final
      // decode step on this (decode) replica.
      trace_->Flow(obs::TracePhase::kFlowEnd, timing.finish, trace_pid_,
                   obs::kTidEngine, timing.id);
    }
  }
  completions_.push_back(timing);
  ++stats_.completed;
}

void ContinuousBatchScheduler::Handoff(const Running& done) {
  PrefillHandoff h;
  h.kv = pool_.Export(done.request.id);
  Request cont = done.request;
  cont.FoldGenerated(done.generated);
  cont.prefill_only = false;
  cont.kv_migrated = true;
  h.request = cont;
  h.ready = stats_.simulated_seconds;
  if (trace_ != nullptr) {
    trace_->Instant(obs::TraceEventType::kHandoffExport, h.ready, trace_pid_,
                    obs::kTidLifecycle, cont.id,
                    static_cast<double>(h.kv.tokens));
    trace_->AsyncEnd(obs::TraceEventType::kStageRun, h.ready, cont.id);
    // Open the KV-migration flow arrow at the prefill replica's engine lane.
    trace_->Flow(obs::TracePhase::kFlowStart, h.ready, trace_pid_,
                 obs::kTidEngine, cont.id);
  }
  handoffs_.push_back(h);
  ++stats_.prefill_handoffs;
}

bool ContinuousBatchScheduler::Step() {
  LIQUID_PROF_SCOPE("engine/step");
  // The batch, the queue and the free list may change below.
  run_state_ = RunState::kStale;
  // If idle and the head request is in the future, fast-forward the clock.
  if (running_.empty() && !waiting_.empty() &&
      waiting_.front().request.EffectiveArrival() > stats_.simulated_seconds) {
    stats_.simulated_seconds = waiting_.front().request.EffectiveArrival();
  }
  {
    LIQUID_PROF_SCOPE("engine/step/admit");
    Admit();
  }
  if (running_.empty()) {
    if (waiting_.empty()) return false;
    // Nothing is running, so no blocks will ever be freed: the head request
    // cannot fit even a drained pool.  Drop it rather than livelock.
    const SeqId dropped = waiting_.front().request.id;
    if (trace_ != nullptr) {
      trace_->Instant(obs::TraceEventType::kPoolDrop, stats_.simulated_seconds,
                      trace_pid_, obs::kTidLifecycle, dropped);
      trace_->AsyncEnd(obs::TraceEventType::kStageQueued,
                       stats_.simulated_seconds, dropped);
    }
    waiting_.pop_front();
    ++stats_.dropped;
    return true;
  }

  // Chunked prefill: advance the oldest in-progress prefill by one chunk.
  // "Oldest" is by (arrival, id), not batch slot — retirements swap slots
  // around, and letting the chunk rotate among prefills makes concurrent
  // prompts all finish in a cluster (a burst of simultaneous handoffs the
  // decode pool pays for in its TPOT tail).  True FIFO keeps completions
  // serialized, like unchunked admission, while still bounding how long any
  // one prompt monopolizes an iteration.
  if (chunk_ > 0) {
    LIQUID_PROF_SCOPE("engine/step/prefill_chunk");
    Running* oldest = nullptr;
    for (Running& r : running_) {
      if (r.prefill_remaining == 0) continue;
      if (oldest == nullptr || r.request.arrival < oldest->request.arrival ||
          (r.request.arrival == oldest->request.arrival &&
           r.request.id < oldest->request.id)) {
        oldest = &r;
      }
    }
    if (oldest != nullptr) {
      Running& r = *oldest;
      const std::size_t prior = r.request.prompt_tokens - r.prefill_remaining;
      const std::size_t len = std::min(chunk_, r.prefill_remaining);
      const double t = engine_.PrefillChunkSeconds(len, prior) * slowdown_;
      if (trace_ != nullptr) {
        trace_->Span(obs::TraceEventType::kPrefillChunk,
                     stats_.simulated_seconds, t, trace_pid_, obs::kTidEngine,
                     r.request.id, static_cast<double>(len),
                     static_cast<double>(prior));
      }
      stats_.simulated_seconds += t;
      stats_.busy_seconds += t;
      r.prefill_remaining -= len;
      if (r.prefill_remaining == 0 && !r.request.prefix.empty()) {
        // The whole prompt is now resident: publish its blocks.
        pool_.RegisterPrefix(r.request.id, r.request.prefix.hashes);
      }
    }
  }

  {
    LIQUID_PROF_SCOPE("engine/step/decode");
    // KV length for costing: mean sequence length across the decode-ready
    // batch (sequences still prefilling sit out the decode step).
    double mean_len = 0;
    std::size_t ready = 0;
    for (const Running& r : running_) {
      if (r.prefill_remaining > 0) continue;
      mean_len += static_cast<double>(r.request.prompt_tokens + r.generated);
      ++ready;
    }
    if (ready == 0) {
      // Chunk-only iteration: the clock advanced, nothing decodes yet.
      ++stats_.iterations;
      return true;
    }
    mean_len /= static_cast<double>(ready);

    // Append one token to every decode-ready sequence by its slab slot,
    // preempting on OOM.
    for (std::size_t i = 0; i < running_.size();) {
      if (running_[i].prefill_remaining > 0) {
        ++i;
        continue;
      }
      assert(pool_.Slot(running_[i].request.id) == running_[i].slot);
      if (pool_.AppendTokens({&running_[i].slot, 1}, 1)) {
        ++running_[i].generated;
        ++i;
      } else {
        Preempt();
        if (running_.empty()) break;
        i = std::min(i, running_.size());
      }
    }
    if (running_.empty()) return !waiting_.empty();

    std::size_t batch = 0;
    for (const Running& r : running_) {
      batch += r.prefill_remaining == 0 ? 1 : 0;
    }
    if (batch == 0) {
      ++stats_.iterations;
      return true;
    }
    const double decode =
        PricerFor(batch).Seconds(static_cast<std::size_t>(mean_len)) *
        slowdown_;
    if (trace_ != nullptr) {
      trace_->Span(obs::TraceEventType::kDecodeStep, stats_.simulated_seconds,
                   decode, trace_pid_, obs::kTidEngine, /*id=*/0,
                   static_cast<double>(batch), mean_len);
    }
    stats_.simulated_seconds += decode;
    stats_.busy_seconds += decode;
    stats_.generated_tokens += static_cast<double>(batch);
    ++stats_.iterations;
  }

  {
    LIQUID_PROF_SCOPE("engine/step/retire");
    // Record first-token times and retire finished sequences.  A prefill-only
    // request leaves at its first token: its KV is exported for migration.
    for (std::size_t i = 0; i < running_.size();) {
      Running& r = running_[i];
      if (r.prefill_remaining > 0) {
        ++i;
        continue;
      }
      if (r.request.first_token_time < 0 &&
          r.generated + r.request.progress > 0) {
        r.request.first_token_time = stats_.simulated_seconds;
      }
      if (r.generated >= r.request.max_new_tokens) {
        Retire(r);
        running_[i] = running_.back();
        running_.pop_back();
      } else if (r.request.prefill_only &&
                 r.generated + r.request.progress > 0) {
        Handoff(r);
        running_[i] = running_.back();
        running_.pop_back();
      } else {
        ++i;
      }
    }
  }
  return true;
}

const ServingEngine::DecodePricer& ContinuousBatchScheduler::PricerFor(
    std::size_t batch) {
  if (pricer_batch_ != batch) {
    pricer_ = engine_.PriceDecode(batch);
    pricer_batch_ = batch;
  }
  return pricer_;
}

bool ContinuousBatchScheduler::OpenRun() {
  if (run_state_ != RunState::kStale) return run_state_ == RunState::kOpen;
  run_state_ = RunState::kRefused;
  if (running_.empty()) return false;
  // Admit takes the head once the clock reaches its arrival, unless the
  // batch is full or the pool cannot fit it; neither changes before a
  // retirement (the run's appends only shrink the free list).
  run_.admit_at = std::numeric_limits<double>::infinity();
  if (!waiting_.empty() && running_.size() < max_batch_) {
    const Request& head = waiting_.front().request;
    const std::size_t need =
        head.kv_migrated && pool_.HasSequence(head.id)
            ? 1
            : pool_.BlocksNeeded(head.prompt_tokens) + 1;
    if (pool_.CanAllocate(need)) run_.admit_at = head.EffectiveArrival();
  }
  if (run_.admit_at <= stats_.simulated_seconds) return false;

  // Every sequence decodes in every iteration of the run, and none reaches
  // its retirement: the run is at most `left` - 1 iterations, `left` being
  // the fewest tokens any sequence has left.  Nor does one reach its first
  // token or a handoff: Step leaves every decode-ready sequence with its
  // first token, and hands a prefill-only one off at it.
  run_.left = std::numeric_limits<std::size_t>::max();
  run_.len_sum = 0;
  run_slots_.clear();
  for (const Running& r : running_) {
    if (r.prefill_remaining > 0) return false;
    assert(r.request.first_token_time >= 0 && !r.request.prefill_only);
    run_.left = std::min(run_.left, r.request.max_new_tokens - r.generated);
    run_.len_sum += r.request.prompt_tokens + r.generated;
    assert(pool_.Slot(r.request.id) == r.slot);
    run_slots_.push_back(r.slot);
  }
  if (run_.left < 2) return false;
  // The iteration whose appends the free list cannot cover preempts: leave
  // it to Step.
  run_.covered = pool_.CoveredRounds(run_slots_, run_.left - 1);
  if (run_.covered == 0) return false;
  run_.room = kUnknownRoom;
  run_.next_seconds = -1;
  run_state_ = RunState::kOpen;
  return true;
}

double ContinuousBatchScheduler::Horizon() {
  const double now = stats_.simulated_seconds;
  if (running_.empty()) {
    // Idle: the next Step fast-forwards to the head and admits or drops it.
    return waiting_.empty() ? std::numeric_limits<double>::infinity()
                            : waiting_.front().request.EffectiveArrival();
  }
  if (!OpenRun()) return now;
  // Iteration j of the run (from 0) retires a sequence at j = left - 1 and
  // first takes a block at j = the least tail room; every iteration before
  // both changes only the clock and the token counts.
  if (run_.room == kUnknownRoom) run_.room = pool_.TailRoom(run_slots_);
  const std::size_t quiet = std::min(run_.left - 1, run_.room);
  // Iteration j costs DecodePricer::Seconds(kv_len + j), which is
  // non-decreasing in the KV length: it combines non-negative constants
  // and one term linear in the length by +, * and / only, and rounding
  // each operation is monotone.  So is each += of the clock, so adding the
  // first iteration's cost `quiet` times bounds the start of iteration
  // `quiet` from below, from the one price DecodeRun then reuses.
  double start = now;
  if (quiet > 0 && run_.next_seconds < 0) {
    run_.next_seconds = PricerFor(running_.size()).Seconds(run_.len_sum /
                                                           running_.size()) *
                        slowdown_;
  }
  for (std::size_t j = 0; j < quiet && start < run_.admit_at; ++j) {
    start += run_.next_seconds;
  }
  return std::min(run_.admit_at, start);
}

bool ContinuousBatchScheduler::DecodeRun(double deadline) {
  if (!OpenRun()) return false;
  LIQUID_PROF_SCOPE("engine/step/decode");
  const std::size_t n = running_.size();
  const ServingEngine::DecodePricer& pricer = PricerFor(n);
  const double batch = static_cast<double>(n);
  // Step costs each iteration at the floor of the mean length, which grows
  // by exactly one per iteration since every sequence gains one token.
  const std::size_t len_sum = run_.len_sum;
  const std::size_t kv_len = len_sum / n;
  // StepUntil stops at the deadline, and Admit takes the head at admit_at.
  const double stop = std::min(deadline, run_.admit_at);
  obs::TraceRecorder* const trace = trace_;
  double clock = stats_.simulated_seconds;
  double busy = stats_.busy_seconds;
  double generated = stats_.generated_tokens;
  std::size_t k = 0;
  while (k < run_.covered && clock < stop) {
    // The first iteration's price may be Horizon's, not priced again.
    const double decode = k == 0 && run_.next_seconds >= 0
                              ? run_.next_seconds
                              : pricer.Seconds(kv_len + k) * slowdown_;
    if (trace != nullptr) {
      trace->Span(obs::TraceEventType::kDecodeStep, clock, decode, trace_pid_,
                  obs::kTidEngine, /*id=*/0, batch,
                  static_cast<double>(len_sum + k * n) / batch);
    }
    clock += decode;
    busy += decode;
    generated += batch;
    ++k;
  }
  const bool appended = pool_.AppendTokens(run_slots_, k);
  assert(appended);
  (void)appended;
  for (Running& r : running_) r.generated += k;
  stats_.simulated_seconds = clock;
  stats_.busy_seconds = busy;
  stats_.generated_tokens = generated;
  stats_.iterations += k;
  // The run stays open: every sequence is k tokens further on, and the
  // free list covers k fewer rounds.
  run_.left -= k;
  run_.len_sum += k * n;
  run_.covered -= k;
  run_.room = run_.room != kUnknownRoom && run_.room >= k ? run_.room - k
                                                          : kUnknownRoom;
  run_.next_seconds = -1;
  if (run_.left < 2 || run_.covered == 0 || run_.admit_at <= clock) {
    run_state_ = RunState::kRefused;
  }
  return true;
}

void ContinuousBatchScheduler::StepUntil(double deadline) {
  while (stats_.simulated_seconds < deadline) {
    // Idle (or waiting only on arrivals past the deadline): snap the clock to
    // the deadline instead of fast-forwarding past it, so a request routed
    // here at `deadline` is admitted at its true arrival time.
    if (running_.empty() &&
        (waiting_.empty() ||
         waiting_.front().request.EffectiveArrival() > deadline)) {
      stats_.simulated_seconds = deadline;
      return;
    }
    if (!DecodeRun(deadline) && !Step()) return;
  }
}

std::vector<Request> ContinuousBatchScheduler::Drain() {
  run_state_ = RunState::kStale;
  std::vector<Request> out;
  out.reserve(running_.size() + waiting_.size());
  if (trace_ != nullptr) {
    // Close every open journey-stage slice at the drain instant; the
    // re-submission elsewhere opens fresh ones.
    for (const Running& r : running_) {
      trace_->AsyncEnd(obs::TraceEventType::kStageRun,
                       stats_.simulated_seconds, r.request.id);
    }
    for (const Waiting& w : waiting_) {
      trace_->AsyncEnd(obs::TraceEventType::kStageQueued,
                       stats_.simulated_seconds, w.request.id);
    }
  }
  for (const Running& r : running_) {
    pool_.Free(r.request.id);
    Request req = r.request;
    req.FoldGenerated(r.generated);
    req.kv_migrated = false;  // the KV stays behind; the next host recomputes
    out.push_back(req);
  }
  running_.clear();
  for (const Waiting& w : waiting_) {
    pool_.Free(w.request.id);  // no-op unless KV was imported before admission
    Request req = w.request;
    req.kv_migrated = false;
    out.push_back(req);
  }
  waiting_.clear();
  return out;
}

double ContinuousBatchScheduler::RemainingPrefillSeconds(
    const Running& r) const {
  double eta = 0;
  std::size_t prior = r.request.prompt_tokens - r.prefill_remaining;
  std::size_t remaining = r.prefill_remaining;
  while (remaining > 0) {
    const std::size_t len = std::min(chunk_, remaining);
    eta += engine_.PrefillChunkSeconds(len, prior);
    prior += len;
    remaining -= len;
  }
  return eta * slowdown_;
}

double ContinuousBatchScheduler::PredictTtft(
    std::size_t prompt_tokens, std::size_t cached_prefix_tokens) const {
  if (pool_.BlocksNeeded(prompt_tokens) + 1 > pool_.total_blocks()) {
    return std::numeric_limits<double>::infinity();
  }
  // Own prefill — discounted by the resident cached prefix so placement and
  // admission control both price locality — plus the prefills queued ahead
  // of us (each admission charges its prefill on the shared clock, FIFO
  // order; a queued request's own live-index overlap shrinks its charge the
  // same way).  The discount arrives in TOKENS (the caller converts from
  // signature blocks with the signature's own block size, which need not
  // match this pool's).  Queued migrated-in continuations carry their KV —
  // nothing to prefill.
  const std::size_t cached_tokens =
      prompt_tokens > 0 ? std::min(cached_prefix_tokens, prompt_tokens - 1)
                        : 0;
  double eta =
      cached_tokens > 0
          ? engine_.PrefillChunkSeconds(prompt_tokens - cached_tokens,
                                        cached_tokens) *
                slowdown_
          : engine_.PrefillSeconds(1, prompt_tokens) * slowdown_;
  // A queued term changes only with the index membership (through
  // CachedPrefixTokens) or the slowdown; anything else it reads is fixed
  // while the request waits.  So every term is repriced when either moved
  // since the last call, and otherwise only the entries queued since then.
  const std::uint64_t epoch = pool_.prefix_index().epoch();
  const bool stale = epoch != priced_epoch_ || slowdown_ != priced_slowdown_;
  priced_epoch_ = epoch;
  priced_slowdown_ = slowdown_;
  for (const Waiting& w : waiting_) {
    if (w.request.kv_migrated && pool_.HasSequence(w.request.id)) continue;
    if (stale || w.prefill < 0) {
      w.prefill = PrefillCharge(w.request, CachedPrefixTokens(w.request));
    }
    eta += w.prefill;
  }
  if (chunk_ > 0) {
    // Mid-flight chunked prefills: only their REMAINING chunks are ahead of
    // us.  Crediting the already-processed chunks keeps the estimate from
    // over-rejecting a request that arrives halfway through a long prefill.
    for (const Running& r : running_) {
      if (r.prefill_remaining > 0) eta += RemainingPrefillSeconds(r);
    }
  }
  if (running_.empty()) return eta;
  // Service-rate model for the admission wait: a saturated batch frees one
  // slot per retirement, and retirements happen every (remaining tokens /
  // batch) decode steps on average — so each FIFO position ahead of us costs
  // mean_remaining * step / batch seconds.  First token then lands one step
  // after admission (folded into the same term).
  const bool batch_full = running_.size() >= max_batch_;
  const bool kv_full =
      !pool_.CanAllocate(pool_.BlocksNeeded(prompt_tokens) + 1);
  if (batch_full || kv_full || !waiting_.empty()) {
    double mean_len = 0, mean_remaining = 0;
    for (const Running& r : running_) {
      mean_len += static_cast<double>(r.request.prompt_tokens + r.generated);
      mean_remaining +=
          static_cast<double>(r.request.max_new_tokens - r.generated);
    }
    mean_len /= static_cast<double>(running_.size());
    mean_remaining /= static_cast<double>(running_.size());
    const double step =
        engine_.DecodeStepSeconds(running_.size(),
                                  static_cast<std::size_t>(mean_len)) *
        slowdown_;
    const double per_slot =
        mean_remaining * step / static_cast<double>(running_.size());
    eta += per_slot * static_cast<double>(waiting_.size() + 1);
  }
  return eta;
}

SchedulerStats ContinuousBatchScheduler::RunToCompletion() {
  while (DecodeRun(std::numeric_limits<double>::infinity()) || Step()) {
  }
  return stats_;
}

}  // namespace liquid::serving
