// Scheduler-level disaggregation hooks: prefill-only completion + KV export
// handoff, the completion and handoff outboxes, AcceptMigrated
// continuations (no re-prefill), ready-time gating, and the chunked-prefill
// PredictTtft credit for already-processed chunks.

#include "serving/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace liquid::serving {
namespace {

const simgpu::HardwareSpec kH800 = simgpu::HardwareSpec::H800();

ServingEngine MakeEngine(std::size_t chunk = 0) {
  EngineOptions options;
  options.prefill_chunk_tokens = chunk;
  return ServingEngine(kH800, SystemPreset::LiquidServe(),
                       LlmConfig::Llama2_7B(), options);
}

TEST(PrefillHandoffTest, PrefillOnlyRequestExportsKvAtFirstToken) {
  const ServingEngine engine = MakeEngine();
  ContinuousBatchScheduler sched(engine, 256, 16);
  Request req;
  req.id = 42;
  req.prompt_tokens = 64;
  req.max_new_tokens = 32;
  req.prefill_only = true;
  sched.Submit(req);
  while (sched.Step()) {
  }
  // No completion — a handoff instead, with the KV gone from the pool.
  EXPECT_EQ(sched.stats().completed, 0u);
  ASSERT_EQ(sched.handoffs().size(), 1u);
  EXPECT_EQ(sched.stats().prefill_handoffs, 1u);
  const PrefillHandoff& h = sched.handoffs()[0];
  EXPECT_EQ(h.kv.id, 42u);
  EXPECT_EQ(h.kv.tokens, 65u);  // prompt + the first generated token
  EXPECT_EQ(sched.pool().used_blocks(), 0u);
  // The continuation carries the first-token timing and folded progress.
  EXPECT_EQ(h.request.prompt_tokens, 65u);
  EXPECT_EQ(h.request.max_new_tokens, 31u);
  EXPECT_EQ(h.request.progress, 1u);
  EXPECT_GE(h.request.first_token_time, 0.0);
  EXPECT_TRUE(h.request.kv_migrated);
  EXPECT_FALSE(h.request.prefill_only);
  EXPECT_DOUBLE_EQ(h.ready, h.request.first_token_time);
}

TEST(PrefillHandoffTest, PrefillOnlyWithSingleTokenBudgetCompletesNormally) {
  const ServingEngine engine = MakeEngine();
  ContinuousBatchScheduler sched(engine, 256, 16);
  Request req;
  req.id = 1;
  req.prompt_tokens = 32;
  req.max_new_tokens = 1;  // the first token IS the whole response
  req.prefill_only = true;
  sched.Submit(req);
  while (sched.Step()) {
  }
  EXPECT_EQ(sched.stats().completed, 1u);
  EXPECT_TRUE(sched.handoffs().empty());
}

TEST(PrefillHandoffTest, AcceptMigratedSkipsPrefillCharge) {
  const ServingEngine engine = MakeEngine();
  // Prefill side.
  ContinuousBatchScheduler prefill(engine, 256, 16);
  Request req;
  req.id = 7;
  req.prompt_tokens = 128;
  req.max_new_tokens = 16;
  req.prefill_only = true;
  prefill.Submit(req);
  while (prefill.Step()) {
  }
  ASSERT_EQ(prefill.handoffs().size(), 1u);
  const PrefillHandoff h = prefill.handoffs()[0];

  // Decode side: accepting the continuation must import the KV and decode
  // without recomputing the prefill.
  ContinuousBatchScheduler decode(engine, 256, 16);
  Request cont = h.request;
  cont.ready = h.ready;
  ASSERT_TRUE(decode.AcceptMigrated(cont, h.kv));
  EXPECT_EQ(decode.pool().SequenceTokens(7), 129u);
  while (decode.Step()) {
  }
  ASSERT_EQ(decode.stats().completed, 1u);
  // 15 decode steps remain; no prefill time should have been charged beyond
  // them.  Compare against serving the same remainder with a prefill: the
  // migrated path must be strictly cheaper in busy time.
  const double decode_busy = decode.stats().busy_seconds;
  ContinuousBatchScheduler fresh(engine, 256, 16);
  fresh.Submit({8, 129, 15, h.ready});
  while (fresh.Step()) {
  }
  EXPECT_LT(decode_busy, fresh.stats().busy_seconds);
  // The completion stitches end-to-end timing across both replicas.
  const RequestTiming& t = decode.completions()[0];
  EXPECT_EQ(t.generated, 16u);
  EXPECT_DOUBLE_EQ(t.first_token, h.request.first_token_time);
}

TEST(PrefillHandoffTest, TakeOutboxesEmptiesThemAndLaterOutputStartsFresh) {
  const ServingEngine engine = MakeEngine();
  ContinuousBatchScheduler sched(engine, 256, 16);
  Request handed;
  handed.id = 1;
  handed.prompt_tokens = 64;
  handed.max_new_tokens = 8;
  handed.prefill_only = true;
  sched.Submit(handed);
  sched.Submit({2, 32, 2});
  while (sched.Step()) {
  }
  ASSERT_EQ(sched.completions().size(), 1u);
  ASSERT_EQ(sched.handoffs().size(), 1u);

  // The caller's stale contents are discarded, not handed back.
  std::vector<RequestTiming> done(3);
  std::vector<PrefillHandoff> handoffs(2);
  sched.TakeOutboxes(done, handoffs);
  EXPECT_TRUE(sched.completions().empty());
  EXPECT_TRUE(sched.handoffs().empty());
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, 2u);
  ASSERT_EQ(handoffs.size(), 1u);
  EXPECT_EQ(handoffs[0].request.id, 1u);

  // Later output lands in fresh outboxes: only what finished since the
  // swap, and a second swap returns exactly that.
  sched.Submit({3, 16, 2, sched.Now()});
  while (sched.Step()) {
  }
  ASSERT_EQ(sched.completions().size(), 1u);
  EXPECT_EQ(sched.completions()[0].id, 3u);
  EXPECT_TRUE(sched.handoffs().empty());
  sched.TakeOutboxes(done, handoffs);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, 3u);
  EXPECT_TRUE(handoffs.empty());
  EXPECT_TRUE(sched.completions().empty());
  EXPECT_EQ(sched.stats().completed, 2u);
  EXPECT_EQ(sched.stats().prefill_handoffs, 1u);
}

TEST(PrefillHandoffTest, ReadyTimeGatesAdmission) {
  const ServingEngine engine = MakeEngine();
  ContinuousBatchScheduler sched(engine, 256, 16);
  Request req;
  req.id = 3;
  req.prompt_tokens = 32;
  req.max_new_tokens = 4;
  req.arrival = 0.0;   // arrived long ago...
  req.ready = 5.0;     // ...but its KV lands at t=5
  sched.Submit(req);
  sched.StepUntil(1.0);
  EXPECT_EQ(sched.running(), 0u);  // not admitted before the KV exists
  while (sched.Step()) {
  }
  ASSERT_EQ(sched.stats().completed, 1u);
  EXPECT_GE(sched.completions()[0].finish, 5.0);
}

TEST(PrefillHandoffTest, ChunkedPredictTtftCreditsProcessedChunks) {
  const ServingEngine engine = MakeEngine(/*chunk=*/128);
  ContinuousBatchScheduler sched(engine, 1024, 16);
  sched.Submit({1, 1024, 8});
  // Admission is instant under chunked prefill; the prefill then advances
  // one chunk per Step.
  ASSERT_TRUE(sched.Step());
  ASSERT_EQ(sched.running(), 1u);
  double last = sched.PredictTtft(512);
  // As chunks complete, the predicted TTFT for a newcomer must fall: the
  // already-processed chunks are credited, not re-charged.
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(sched.Step());
    const double now = sched.PredictTtft(512);
    EXPECT_LT(now, last) << "step " << step;
    last = now;
  }
  // And strictly below charging the whole prompt again (the unfixed
  // behavior): predictor with zero credit = own prefill + full peer prefill.
  const double full_recharge =
      engine.PrefillSeconds(1, 512) + engine.PrefillSeconds(1, 1024);
  EXPECT_LT(last, full_recharge);
}

TEST(PrefillHandoffTest, ChunkedSchedulerStillCompletesEverything) {
  const ServingEngine engine = MakeEngine(/*chunk=*/256);
  ContinuousBatchScheduler sched(engine, 512, 16, /*max_batch=*/8);
  for (SeqId i = 0; i < 12; ++i) {
    sched.Submit({i, 100 + 150 * static_cast<std::size_t>(i % 4), 24});
  }
  const SchedulerStats stats = sched.RunToCompletion();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_DOUBLE_EQ(stats.generated_tokens, 12.0 * 24);
  EXPECT_EQ(sched.pool().used_blocks(), 0u);
}

}  // namespace
}  // namespace liquid::serving
