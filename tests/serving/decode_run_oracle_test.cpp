// Oracle test for ContinuousBatchScheduler's decode runs: a seeded random
// replay drives the real scheduler, whose StepUntil and RunToCompletion
// advance a fixed decode batch many iterations per call, and a reference copy
// of the scheduler that only ever runs the one-iteration Step, with one
// KvBlockManager::AppendToken per sequence per iteration.  After every call
// both must agree on the stats, completions, handoffs, every block table and
// the free list, and the real scheduler's kDecodeStep trace spans must be
// the reference's iterations and its kPoolDrop instants the reference's
// drops.  The mix reaches preemption-level KV
// pressure, chunked prefill, prefill-only handoffs, migrated imports,
// slowdown changes and full batches.
//
// The same replay checks the horizon contract a fleet relies on to leave a
// replica behind its clock: after every StepUntil and every mutation, no
// iteration a copy of the reference would start before the real
// scheduler's Horizon() changes outstanding, the free blocks, the
// prefix-index epoch, completions, handoffs or the drop count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <deque>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "obs/trace_recorder.hpp"
#include "serving/scheduler.hpp"
#include "util/rng.hpp"

namespace liquid::serving {
namespace {

/// One decode iteration as the reference priced it.
struct DecodeSpan {
  double start = 0, seconds = 0, batch = 0, mean_len = 0;
};

/// The one-iteration scheduler: Admit, Step and StepUntil as they were
/// before decode runs, for requests without a prefix signature.
class ReferenceScheduler {
 public:
  ReferenceScheduler(const ServingEngine& engine, std::size_t kv_pool_blocks,
                     std::size_t block_tokens, std::size_t max_batch)
      : engine_(engine), pool_(kv_pool_blocks, block_tokens),
        max_batch_(max_batch),
        chunk_(engine.options().prefill_chunk_tokens) {}

  void Submit(const Request& request) {
    assert(request.prefix.empty());
    waiting_.push_back(request);
  }
  bool AcceptMigrated(Request request, const KvExport& kv) {
    if (!pool_.Import(kv)) return false;
    request.kv_migrated = true;
    waiting_.push_back(request);
    return true;
  }
  void SetSlowdown(double factor) { slowdown_ = factor < 1.0 ? 1.0 : factor; }

  void StepUntil(double deadline) {
    while (stats_.simulated_seconds < deadline) {
      if (running_.empty() &&
          (waiting_.empty() ||
           waiting_.front().EffectiveArrival() > deadline)) {
        stats_.simulated_seconds = deadline;
        return;
      }
      if (!Step()) return;
    }
  }
  void RunToCompletion() {
    while (Step()) {
    }
  }

  bool Step() {
    if (running_.empty() && !waiting_.empty() &&
        waiting_.front().EffectiveArrival() > stats_.simulated_seconds) {
      stats_.simulated_seconds = waiting_.front().EffectiveArrival();
    }
    Admit();
    if (running_.empty()) {
      if (waiting_.empty()) return false;
      dropped_ids_.push_back(waiting_.front().id);
      waiting_.pop_front();
      ++stats_.dropped;
      return true;
    }
    if (chunk_ > 0) {
      Running* oldest = nullptr;
      for (Running& r : running_) {
        if (r.prefill_remaining == 0) continue;
        if (oldest == nullptr ||
            r.request.arrival < oldest->request.arrival ||
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
        stats_.simulated_seconds += t;
        stats_.busy_seconds += t;
        r.prefill_remaining -= len;
      }
    }
    double mean_len = 0;
    std::size_t ready = 0;
    for (const Running& r : running_) {
      if (r.prefill_remaining > 0) continue;
      mean_len += static_cast<double>(r.request.prompt_tokens + r.generated);
      ++ready;
    }
    if (ready == 0) {
      ++stats_.iterations;
      return true;
    }
    mean_len /= static_cast<double>(ready);
    for (std::size_t i = 0; i < running_.size();) {
      if (running_[i].prefill_remaining > 0) {
        ++i;
        continue;
      }
      if (pool_.AppendToken(running_[i].request.id)) {
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
        engine_.DecodeStepSeconds(batch, static_cast<std::size_t>(mean_len)) *
        slowdown_;
    spans_.push_back({stats_.simulated_seconds, decode,
                      static_cast<double>(batch), mean_len});
    stats_.simulated_seconds += decode;
    stats_.busy_seconds += decode;
    stats_.generated_tokens += static_cast<double>(batch);
    ++stats_.iterations;
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
    return true;
  }

  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<RequestTiming>& completions() const {
    return completions_;
  }
  [[nodiscard]] const std::vector<PrefillHandoff>& handoffs() const {
    return handoffs_;
  }
  [[nodiscard]] const std::vector<SeqId>& dropped_ids() const {
    return dropped_ids_;
  }
  [[nodiscard]] const std::vector<DecodeSpan>& spans() const { return spans_; }
  [[nodiscard]] const KvBlockManager& pool() const { return pool_; }
  [[nodiscard]] std::size_t running() const { return running_.size(); }
  [[nodiscard]] std::size_t waiting() const { return waiting_.size(); }
  [[nodiscard]] bool HasWork() const {
    return !running_.empty() || !waiting_.empty();
  }
  /// The clock the next Step's iteration starts at (an idle Step first
  /// fast-forwards to the head's arrival).
  [[nodiscard]] double NextStart() const {
    return running_.empty() && !waiting_.empty()
               ? std::max(stats_.simulated_seconds,
                          waiting_.front().EffectiveArrival())
               : stats_.simulated_seconds;
  }

 private:
  struct Running {
    Request request;
    std::size_t generated = 0;
    std::size_t prefill_remaining = 0;
  };

  void Admit() {
    while (!waiting_.empty() && running_.size() < max_batch_) {
      const Request& next = waiting_.front();
      if (next.EffectiveArrival() > stats_.simulated_seconds) break;
      if (next.kv_migrated && pool_.HasSequence(next.id)) {
        if (!pool_.CanAllocate(1)) break;
        running_.push_back({next, 0, 0});
        waiting_.pop_front();
        continue;
      }
      const std::size_t need = pool_.BlocksNeeded(next.prompt_tokens) + 1;
      if (!pool_.CanAllocate(need)) break;
      const bool ok = pool_.AddSequence(next.id, next.prompt_tokens);
      assert(ok);
      (void)ok;
      if (chunk_ > 0) {
        running_.push_back({next, 0, next.prompt_tokens});
      } else {
        const double prefill =
            engine_.PrefillSeconds(1, next.prompt_tokens) * slowdown_;
        stats_.simulated_seconds += prefill;
        stats_.busy_seconds += prefill;
        running_.push_back({next, 0, 0});
      }
      waiting_.pop_front();
    }
    stats_.peak_running = std::max(stats_.peak_running, running_.size());
  }

  void Preempt() {
    Running victim = running_.back();
    running_.pop_back();
    pool_.Free(victim.request.id);
    Request retry = victim.request;
    retry.prompt_tokens += victim.generated;
    retry.max_new_tokens -= victim.generated;
    retry.progress += victim.generated;
    retry.kv_migrated = false;
    waiting_.push_front(retry);
    ++stats_.preemptions;
  }

  void Retire(const Running& done) {
    pool_.Free(done.request.id);
    RequestTiming timing;
    timing.id = done.request.id;
    timing.arrival = done.request.arrival;
    timing.first_token = done.request.first_token_time >= 0
                             ? done.request.first_token_time
                             : stats_.simulated_seconds;
    timing.finish = stats_.simulated_seconds;
    timing.generated = done.request.progress + done.generated;
    completions_.push_back(timing);
    ++stats_.completed;
  }

  void Handoff(const Running& done) {
    PrefillHandoff h;
    h.kv = pool_.Export(done.request.id);
    Request cont = done.request;
    cont.prompt_tokens += done.generated;
    cont.max_new_tokens -= done.generated;
    cont.progress += done.generated;
    cont.prefill_only = false;
    cont.kv_migrated = true;
    h.request = cont;
    h.ready = stats_.simulated_seconds;
    handoffs_.push_back(h);
    ++stats_.prefill_handoffs;
  }

  const ServingEngine& engine_;
  KvBlockManager pool_;
  std::size_t max_batch_;
  std::size_t chunk_;
  double slowdown_ = 1.0;
  std::deque<Request> waiting_;
  std::vector<Running> running_;
  SchedulerStats stats_;
  std::vector<RequestTiming> completions_;
  std::vector<PrefillHandoff> handoffs_;
  std::vector<SeqId> dropped_ids_;
  std::vector<DecodeSpan> spans_;
};

const simgpu::HardwareSpec kH800 = simgpu::HardwareSpec::H800();

void ExpectSameRequest(const Request& a, const Request& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.prompt_tokens, b.prompt_tokens);
  EXPECT_EQ(a.max_new_tokens, b.max_new_tokens);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.first_token_time, b.first_token_time);
  EXPECT_EQ(a.progress, b.progress);
  EXPECT_EQ(a.ready, b.ready);
  EXPECT_EQ(a.prefill_only, b.prefill_only);
  EXPECT_EQ(a.kv_migrated, b.kv_migrated);
}

/// Every observable the two schedulers share, compared exactly.
void ExpectSame(const ContinuousBatchScheduler& real,
                const obs::TraceRecorder& trace,
                const ReferenceScheduler& ref, SeqId ids,
                const std::string& where) {
  SCOPED_TRACE(where);
  const SchedulerStats& a = real.stats();
  const SchedulerStats& b = ref.stats();
  ASSERT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.prefill_handoffs, b.prefill_handoffs);
  EXPECT_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.busy_seconds, b.busy_seconds);
  EXPECT_EQ(a.generated_tokens, b.generated_tokens);
  EXPECT_EQ(a.peak_running, b.peak_running);
  EXPECT_EQ(real.running(), ref.running());
  EXPECT_EQ(real.waiting(), ref.waiting());

  ASSERT_EQ(real.completions().size(), ref.completions().size());
  for (std::size_t i = 0; i < ref.completions().size(); ++i) {
    const RequestTiming& x = real.completions()[i];
    const RequestTiming& y = ref.completions()[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.first_token, y.first_token);
    EXPECT_EQ(x.finish, y.finish);
    EXPECT_EQ(x.generated, y.generated);
  }
  ASSERT_EQ(real.handoffs().size(), ref.handoffs().size());
  for (std::size_t i = 0; i < ref.handoffs().size(); ++i) {
    const PrefillHandoff& x = real.handoffs()[i];
    const PrefillHandoff& y = ref.handoffs()[i];
    ExpectSameRequest(x.request, y.request);
    EXPECT_EQ(x.kv.id, y.kv.id);
    EXPECT_EQ(x.kv.tokens, y.kv.tokens);
    EXPECT_EQ(x.kv.blocks, y.kv.blocks);
    EXPECT_EQ(x.ready, y.ready);
  }
  // The real scheduler keeps no drop log; its kPoolDrop instants are it.
  std::vector<SeqId> dropped;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.type == obs::TraceEventType::kPoolDrop) dropped.push_back(e.id);
  }
  EXPECT_EQ(dropped, ref.dropped_ids());

  const KvBlockManager& p = real.pool();
  const KvBlockManager& q = ref.pool();
  const auto free_p = p.free_list();
  const auto free_q = q.free_list();
  EXPECT_TRUE(std::ranges::equal(free_p, free_q)) << "free lists differ";
  for (SeqId id = 0; id < ids; ++id) {
    EXPECT_EQ(p.SequenceTokens(id), q.SequenceTokens(id)) << "id " << id;
    EXPECT_EQ(p.BlockTable(id), q.BlockTable(id)) << "id " << id;
  }

  // One kDecodeStep span per decode iteration, as the reference priced it.
  std::vector<DecodeSpan> spans;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.type == obs::TraceEventType::kDecodeStep) {
      spans.push_back({e.t, e.dur, e.a0, e.a1});
    }
  }
  ASSERT_EQ(spans.size(), ref.spans().size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start, ref.spans()[i].start) << "span " << i;
    EXPECT_EQ(spans[i].seconds, ref.spans()[i].seconds) << "span " << i;
    EXPECT_EQ(spans[i].batch, ref.spans()[i].batch) << "span " << i;
    EXPECT_EQ(spans[i].mean_len, ref.spans()[i].mean_len) << "span " << i;
  }
}

/// How often the mix reached each path the oracle is there to check.
struct Coverage {
  std::size_t preemptions = 0, chunked = 0, handoffs = 0, imports = 0,
              slowdowns = 0, full_batches = 0, iterations = 0;
  /// Reference iterations run ahead of a horizon, and horizons that lay
  /// past the clock.
  std::size_t quiet_iterations = 0, horizons_ahead = 0;
};

/// Everything a fleet reads of a replica.
auto FleetReads(const ReferenceScheduler& s) {
  return std::make_tuple(s.running() + s.waiting(), s.pool().free_blocks(),
                         s.pool().prefix_index().epoch(),
                         s.completions().size(), s.handoffs().size(),
                         s.stats().dropped, s.HasWork());
}

/// The horizon contract: a copy of the reference runs every iteration that
/// would start before the real scheduler's horizon, and none may change
/// what a fleet reads.  Horizon() itself must not change the real
/// scheduler's outcome, which the next ExpectSame checks.
void ExpectHorizonHolds(ContinuousBatchScheduler& real,
                        const ReferenceScheduler& ref, const std::string& where,
                        Coverage& seen) {
  SCOPED_TRACE(where);
  const double horizon = real.Horizon();
  if (!ref.HasWork()) {
    EXPECT_EQ(horizon, std::numeric_limits<double>::infinity());
    return;
  }
  seen.horizons_ahead += horizon > ref.stats().simulated_seconds;
  ReferenceScheduler probe = ref;
  const auto before = FleetReads(probe);
  while (probe.HasWork() && probe.NextStart() < horizon) {
    const double start = probe.NextStart();
    probe.Step();
    ++seen.quiet_iterations;
    ASSERT_EQ(FleetReads(probe), before)
        << "iteration at " << start << " before the horizon " << horizon;
  }
}

/// One seeded scenario's knobs, drawn from the seed.
struct Scenario {
  std::size_t chunk = 0;        ///< engine prefill_chunk_tokens
  std::size_t pool_blocks = 0;  ///< small pools preempt
  std::size_t block_tokens = 0;
  std::size_t max_batch = 0;    ///< small batches fill
  std::size_t max_prompt = 0;
  std::size_t max_new = 0;
  double rate = 0;              ///< arrivals per simulated second
  std::uint64_t prefill_only_pct = 0;
};

Coverage RunScenario(std::uint64_t seed) {
  Rng rng(seed);
  Scenario s;
  s.chunk = rng.Below(2) == 0 ? 0 : 8 + rng.Below(24);
  const bool tight = rng.Below(2) == 0;
  s.block_tokens = 2 + rng.Below(15);
  s.pool_blocks = tight ? 24 + rng.Below(40) : 4096;
  s.max_batch = rng.Below(2) == 0 ? 1 + rng.Below(4) : 64;
  s.max_prompt = 8 + rng.Below(tight ? 24 : 120);
  s.max_new = 2 + rng.Below(60);
  s.prefill_only_pct = rng.Below(3) == 0 ? 30 : 0;

  EngineOptions options;
  options.prefill_chunk_tokens = s.chunk;
  const ServingEngine engine(kH800, SystemPreset::LiquidServe(),
                             LlmConfig::Llama2_7B(), options);
  // Arrivals a few decode steps apart, so runs end at arrivals as often as
  // at retirements.
  s.rate = (0.2 + rng.NextDouble()) / engine.DecodeStepSeconds(1, 64);

  ContinuousBatchScheduler real(engine, s.pool_blocks, s.block_tokens,
                                s.max_batch);
  ReferenceScheduler ref(engine, s.pool_blocks, s.block_tokens, s.max_batch);
  obs::TraceRecorder trace;
  real.SetTrace(&trace, 0);

  Coverage seen;
  constexpr SeqId kRequests = 80;
  SeqId next_id = 0;
  std::size_t handoffs_seen = 0;
  double clock = 0;
  const auto where = [&](const std::string& what) {
    return "seed " + std::to_string(seed) + " " + what;
  };
  while (next_id < kRequests) {
    const double now = clock;
    clock += -std::log(1.0 - rng.NextDouble()) / s.rate;
    Request r;
    r.id = next_id++;
    r.prompt_tokens = 1 + rng.Below(s.max_prompt);
    r.max_new_tokens = 1 + rng.Below(s.max_new);
    r.arrival = clock;
    r.prefill_only = rng.Below(100) < s.prefill_only_pct;
    // Half the requests are queued before they arrive, as a replayed trace
    // is, so a run must stop where Admit takes the head; the others are
    // submitted at their arrival, as the fleet routes them.
    const bool ahead = rng.Below(2) == 0;
    if (ahead) {
      real.Submit(r);
      ref.Submit(r);
    }
    real.StepUntil(clock);
    ref.StepUntil(clock);
    ExpectSame(real, trace, ref, kRequests,
               where("StepUntil(" + std::to_string(clock) + ")"));
    ExpectHorizonHolds(real, ref,
                       where("after StepUntil(" + std::to_string(clock) + ")"),
                       seen);
    if (::testing::Test::HasFailure()) return seen;
    if (!ahead) {
      real.Submit(r);
      ref.Submit(r);
    }
    seen.full_batches += real.running() == s.max_batch;

    // Land new handoffs back here, as a unified replica hosting its own
    // continuation would, after a transfer delay that may outlast the next
    // arrival.
    for (; handoffs_seen < ref.handoffs().size(); ++handoffs_seen) {
      const PrefillHandoff& h = ref.handoffs()[handoffs_seen];
      Request cont = h.request;
      cont.ready = std::max(h.ready, now) + 2.0 * rng.NextDouble() / s.rate;
      const bool a = real.AcceptMigrated(cont, h.kv);
      const bool b = ref.AcceptMigrated(cont, h.kv);
      EXPECT_EQ(a, b) << where("AcceptMigrated");
      seen.imports += b;
    }
    if (rng.Below(10) == 0) {
      const double factor = 1.0 + static_cast<double>(rng.Below(4)) / 2.0;
      real.SetSlowdown(factor);
      ref.SetSlowdown(factor);
      ++seen.slowdowns;
    }
    // A fleet also reads the horizon after it submits, imports or degrades.
    ExpectHorizonHolds(real, ref, where("after the mutations"), seen);
    if (::testing::Test::HasFailure()) return seen;
  }
  real.RunToCompletion();
  ref.RunToCompletion();
  ExpectSame(real, trace, ref, kRequests, where("RunToCompletion"));
  seen.preemptions = ref.stats().preemptions;
  seen.chunked = s.chunk > 0 ? ref.stats().iterations : 0;
  seen.handoffs = ref.stats().prefill_handoffs;
  seen.iterations = ref.stats().iterations;
  return seen;
}

TEST(DecodeRunOracleTest, EveryStepUntilMatchesOneIterationSteps) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const Coverage c = RunScenario(seed);
    if (HasFailure()) return;
    total.preemptions += c.preemptions;
    total.chunked += c.chunked;
    total.handoffs += c.handoffs;
    total.imports += c.imports;
    total.slowdowns += c.slowdowns;
    total.full_batches += c.full_batches;
    total.iterations += c.iterations;
    total.quiet_iterations += c.quiet_iterations;
    total.horizons_ahead += c.horizons_ahead;
  }
  // The mix reached every path the oracle is there to check.
  EXPECT_GT(total.preemptions, 100u);
  EXPECT_GT(total.chunked, 1000u);
  EXPECT_GT(total.handoffs, 50u);
  EXPECT_GT(total.imports, 50u);
  EXPECT_GT(total.slowdowns, 100u);
  EXPECT_GT(total.full_batches, 100u);
  EXPECT_GT(total.iterations, 10000u);
  // The horizons the replay checked were not all the clock itself.
  EXPECT_GT(total.horizons_ahead, 1000u);
  EXPECT_GT(total.quiet_iterations, 2000u);
}

TEST(DecodeRunOracleTest, MigratedHeadStopsTheRunAtItsReadyTime) {
  // A continuation whose KV is already imported needs one free block, not
  // its whole prompt, so it is admissible on a pool too full for a fresh
  // prompt of its size: a run must stop at its ready time.
  const ServingEngine engine(kH800, SystemPreset::LiquidServe(),
                             LlmConfig::Llama2_7B());
  ContinuousBatchScheduler real(engine, /*blocks=*/64, /*block_tokens=*/4, 8);
  ReferenceScheduler ref(engine, 64, 4, 8);
  obs::TraceRecorder trace;
  real.SetTrace(&trace, 0);
  const Request first{.id = 0, .prompt_tokens = 8, .max_new_tokens = 40};
  real.Submit(first);
  ref.Submit(first);
  Request cont{.id = 1, .prompt_tokens = 200, .max_new_tokens = 20};
  cont.first_token_time = 0;
  cont.progress = 1;
  cont.ready = engine.PrefillSeconds(1, 8) +
               5.5 * engine.DecodeStepSeconds(1, 10);
  const KvExport kv{.id = 1, .tokens = 200, .blocks = 50, .prefix_hashes = {}};
  ASSERT_TRUE(real.AcceptMigrated(cont, kv));
  ASSERT_TRUE(ref.AcceptMigrated(cont, kv));
  ASSERT_LT(real.pool().free_blocks(), 51u);  // a fresh prompt would not fit
  const double later = cont.ready + 10 * engine.DecodeStepSeconds(2, 200);
  real.StepUntil(later);
  ref.StepUntil(later);
  ExpectSame(real, trace, ref, 2, "StepUntil past the ready time");
  EXPECT_EQ(real.running(), 2u);
  real.RunToCompletion();
  ref.RunToCompletion();
  ExpectSame(real, trace, ref, 2, "RunToCompletion");
}

}  // namespace
}  // namespace liquid::serving
