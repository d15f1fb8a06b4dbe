// PredictTtft keeps each queued request's prefill term next to it and
// reprices the queue only when the prefix index's membership or the
// slowdown changed.  A scheduler queried after every operation must return
// the exact double that a never-queried replay of the same operations
// returns on its first, cold query.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "serving/scheduler.hpp"

namespace liquid::serving {
namespace {

constexpr std::size_t kBlockTokens = 16;
constexpr std::size_t kPoolBlocks = 64;  ///< 1024 tokens: preemption happens
constexpr std::size_t kMaxBatch = 8;

struct Op {
  enum Kind { kSubmit, kStep, kAcceptMigrated, kSetSlowdown, kDrain, kKill };
  Kind kind = kStep;
  Request request;      ///< kSubmit, kAcceptMigrated
  KvExport kv;          ///< kAcceptMigrated
  double slowdown = 1;  ///< kSetSlowdown
  int steps = 1;        ///< kStep
};

void Apply(ContinuousBatchScheduler& sched, const Op& op) {
  switch (op.kind) {
    case Op::kSubmit:
      sched.Submit(op.request);
      break;
    case Op::kStep:
      for (int i = 0; i < op.steps; ++i) (void)sched.Step();
      break;
    case Op::kAcceptMigrated:
      (void)sched.AcceptMigrated(op.request, op.kv);
      break;
    case Op::kSetSlowdown:
      sched.SetSlowdown(op.slowdown);
      break;
    case Op::kDrain:
      // A scale-down that keeps the work: drained requests queue again.
      for (const Request& r : sched.Drain()) sched.Submit(r);
      break;
    case Op::kKill:
      // A kill: the drained work is lost.
      (void)sched.Drain();
      break;
  }
}

/// Signed prompts share one of three preambles (64, 128 or 192 tokens);
/// a third of the prompts are unsigned.
PrefixSignature Preamble(std::uint64_t which, std::size_t prompt_tokens) {
  const std::size_t shared = std::min<std::size_t>(prompt_tokens, 64 * (which + 1));
  return MakePrefixSignature(which + 1, shared, prompt_tokens, kBlockTokens);
}

std::vector<Op> MakeOps(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  std::vector<Op> ops;
  SeqId next_id = 1;
  while (ops.size() < count) {
    const std::uint64_t roll = pick(100);
    Op op;
    if (roll < 40) {
      op.kind = Op::kSubmit;
      op.request.id = next_id++;
      op.request.prompt_tokens = 32 + pick(400);
      op.request.max_new_tokens = 4 + pick(60);
      if (pick(3) != 0) {
        op.request.prefix = Preamble(pick(3), op.request.prompt_tokens);
      }
    } else if (roll < 76) {
      op.kind = Op::kStep;
      op.steps = 1 + static_cast<int>(pick(3));
    } else if (roll < 84) {
      op.kind = Op::kAcceptMigrated;
      op.request.id = next_id++;
      op.request.prompt_tokens = 32 + pick(300);
      op.request.max_new_tokens = 4 + pick(60);
      op.request.prefix = Preamble(pick(3), op.request.prompt_tokens);
      op.kv.id = op.request.id;
      op.kv.tokens = op.request.prompt_tokens;
      op.kv.blocks = (op.kv.tokens + kBlockTokens - 1) / kBlockTokens;
      op.kv.prefix_hashes = op.request.prefix.hashes;
    } else if (roll < 96) {
      op.kind = Op::kSetSlowdown;
      const double factors[] = {1.0, 1.5, 2.0, 3.0};
      op.slowdown = factors[pick(4)];
    } else if (roll < 98) {
      op.kind = Op::kDrain;
    } else {
      op.kind = Op::kKill;
    }
    ops.push_back(op);
  }
  return ops;
}

void ExpectCacheMatchesCold(std::size_t chunk) {
  EngineOptions options;
  options.prefill_chunk_tokens = chunk;
  const ServingEngine engine(simgpu::HardwareSpec::H800(),
                             SystemPreset::LiquidServe(),
                             LlmConfig::Llama2_7B(), options);
  const std::vector<Op> ops = MakeOps(/*seed=*/17, /*count=*/300);
  constexpr std::size_t kPrompt = 200;
  constexpr std::size_t kCached = 64;

  ContinuousBatchScheduler warm(engine, kPoolBlocks, kBlockTokens, kMaxBatch);
  std::size_t queried_with_queue = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Apply(warm, ops[i]);
    ContinuousBatchScheduler cold(engine, kPoolBlocks, kBlockTokens,
                                  kMaxBatch);
    for (std::size_t j = 0; j <= i; ++j) Apply(cold, ops[j]);
    ASSERT_EQ(warm.PredictTtft(kPrompt, kCached),
              cold.PredictTtft(kPrompt, kCached))
        << "after op " << i << " (kind " << ops[i].kind << ")";
    queried_with_queue += warm.waiting() > 1 ? 1 : 0;
  }
  // The sequence must reach the paths the cache has to survive.
  EXPECT_GT(warm.stats().preemptions, 0u);
  EXPECT_GT(warm.stats().prefix_hits, 0u);
  EXPECT_GT(queried_with_queue, ops.size() / 4);
}

TEST(SchedulerTest, PredictTtftCacheMatchesColdScheduler) {
  ExpectCacheMatchesCold(0);
}

TEST(SchedulerTest, PredictTtftCacheMatchesColdChunkedScheduler) {
  ExpectCacheMatchesCold(128);
}

}  // namespace
}  // namespace liquid::serving
