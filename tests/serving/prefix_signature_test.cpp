// Prefix-signature determinism and the fleet-wide prefix-cache index
// lifecycle: the same prompt must hash to the same blocks anywhere (that is
// what makes a cross-replica index meaningful), fork/Export/Import must
// preserve the hashes through sharing and migration, and eviction must
// decrement the index back to zero — a stale index would advertise prefill
// savings that no longer exist.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/router.hpp"
#include "serving/engine.hpp"
#include "serving/kv_cache.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"

namespace liquid::serving {
namespace {

// ---- Oracle: the full rolling chain -----------------------------------
// Signatures once hashed every prompt block, the unique tail included (keyed
// by request id).  These helpers are a copy of that derivation; the
// equivalence test checks the shareable-blocks-only signatures against it.

std::uint64_t OracleMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t OracleContentWord(std::uint64_t key, std::size_t t) {
  return OracleMix64(key ^ OracleMix64(static_cast<std::uint64_t>(t)));
}

/// One hash per prompt block (the last one possibly partial): the first
/// `shared_tokens` tokens from `content_key`'s stream, the rest from
/// `unique_key`'s.
std::vector<std::uint64_t> FullChain(std::uint64_t content_key,
                                     std::uint64_t unique_key,
                                     std::size_t shared_tokens,
                                     std::size_t prompt_tokens,
                                     std::size_t block_tokens) {
  std::vector<std::uint64_t> hashes;
  shared_tokens = std::min(shared_tokens, prompt_tokens);
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::size_t t = 0; t < prompt_tokens; ++t) {
    const std::uint64_t word = t < shared_tokens
                                   ? OracleContentWord(content_key, t)
                                   : OracleContentWord(unique_key, t);
    h = OracleMix64(h ^ word);
    if ((t + 1) % block_tokens == 0 || t + 1 == prompt_tokens) {
      hashes.push_back(h);
    }
  }
  return hashes;
}

TEST(PrefixSignatureTest, SamePromptSameHashesAcrossReplicas) {
  // Two "replicas" computing independently (same derivation inputs) agree on
  // every block hash — the signature is a pure function, never RNG state.
  const PrefixSignature a = MakePrefixSignature(/*content_key=*/7,
                                                /*shared_tokens=*/128,
                                                /*prompt_tokens=*/300,
                                                /*block_tokens=*/16);
  const PrefixSignature b = MakePrefixSignature(7, 128, 300, 16);
  ASSERT_EQ(a.hashes.size(), b.hashes.size());
  EXPECT_EQ(a.hashes, b.hashes);
  // Only the 128 / 16 = 8 wholly shared blocks are hashed, but the prompt
  // still counts ceil(300 / 16) = 19 blocks, the tail block short.
  EXPECT_EQ(a.hashes.size(), 8u);
  EXPECT_EQ(a.blocks(), 19u);
  EXPECT_EQ(a.covered_tokens, 300u);
  EXPECT_EQ(a.block_tokens, 16u);
}

TEST(PrefixSignatureTest, SharedPreambleMatchesExactlyToDivergence) {
  // Two prompts over the same 128-token preamble agree on the 8 blocks
  // fully inside it (128/16 = 8), and the signature ends there: under the
  // full chain their unique tails diverge from block 8 on, forever after.
  const PrefixSignature a = MakePrefixSignature(7, 128, 512, 16);
  ASSERT_EQ(a.hashes.size(), 8u);
  EXPECT_EQ(a.blocks(), 32u);
  const auto full_a = FullChain(7, 1, 128, 512, 16);
  const auto full_b = FullChain(7, 2, 128, 512, 16);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.hashes[i], full_a[i]) << "shared block " << i;
    EXPECT_EQ(a.hashes[i], full_b[i]) << "shared block " << i;
  }
  for (std::size_t i = 8; i < full_a.size(); ++i) {
    EXPECT_NE(full_a[i], full_b[i]) << "diverged block " << i;
  }
  // Different preambles never match, even at block 0.
  const PrefixSignature c = MakePrefixSignature(8, 128, 512, 16);
  EXPECT_NE(a.hashes[0], c.hashes[0]);
}

TEST(PrefixSignatureTest, TraceSignaturesDeterministicAndSessionGrouped) {
  TraceConfig config;
  config.count = 24;
  config.sessions = 6;
  config.shared_prefix_fraction = 0.5;
  config.prefix_groups = 3;
  config.prefix_block_tokens = 16;
  const auto t1 = GenerateTrace(config, 42);
  const auto t2 = GenerateTrace(config, 42);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].prefix.hashes, t2[i].prefix.hashes) << "request " << i;
    EXPECT_FALSE(t1[i].prefix.empty());
  }
  // Requests whose sessions share a prefix group share leading hashes
  // (sessions 0 and 3 are both group 0 with prefix_groups=3).
  const TimedRequest* g0a = nullptr;
  const TimedRequest* g0b = nullptr;
  for (const TimedRequest& r : t1) {
    if (r.session == 0) g0a = &r;
    if (r.session == 3) g0b = &r;
  }
  ASSERT_NE(g0a, nullptr);
  ASSERT_NE(g0b, nullptr);
  EXPECT_EQ(g0a->prefix.hashes[0], g0b->prefix.hashes[0]);
}

TEST(PrefixSignatureTest, DisjointTracesShareNothing) {
  // shared_prefix_fraction = 0 (the default): every request is unique
  // content, so no block can match another request's and none is hashed.
  TraceConfig config;
  config.count = 16;
  config.sessions = 4;  // same sessions, still no content sharing
  const auto trace = GenerateTrace(config, 9);
  for (const TimedRequest& r : trace) {
    EXPECT_TRUE(r.prefix.empty()) << "request " << r.id;
    EXPECT_EQ(r.prefix.covered_tokens, r.prompt_tokens);
    EXPECT_EQ(r.prefix.blocks(), (r.prompt_tokens + 15) / 16);
  }
  // A prefix-aware fleet replaying it finds nothing to reuse.
  cluster::ClusterSimulator sim(cluster::RoutePolicy::kPrefixAware);
  for (int i = 0; i < 2; ++i) {
    cluster::ReplicaSpec spec;
    spec.hw = simgpu::HardwareSpec::H800();
    spec.preset = SystemPreset::LiquidServe();
    spec.model = LlmConfig::Llama2_7B();
    spec.kv_pool_blocks = 1024;
    spec.block_tokens = 16;
    sim.AddReplica(spec);
  }
  const cluster::FleetStats stats = sim.Run(trace);
  EXPECT_EQ(stats.completed, trace.size());
  EXPECT_EQ(stats.prefix_hits, 0u);
  EXPECT_EQ(stats.prefill_tokens_saved, 0.0);
}

/// The router's prefix_overlap reading for `request` against one replica
/// holding `index`: the first term of the prefix_aware preset.
double OverlapScore(const TimedRequest& request, const PrefixIndex& index) {
  cluster::Router router(cluster::RoutePolicy::kPrefixAware);
  std::vector<cluster::ReplicaView> views(1);
  views[0].prefix_index = &index;
  cluster::RouteExplain explain;
  EXPECT_EQ(router.Decide(request, views, &explain).replica, 0u);
  return explain.terms.empty() ? -1.0 : explain.terms[0].value;
}

TEST(PrefixSignatureTest, MatchesFullChainOnEveryPairOfRequests) {
  // Seeded (shared, prompt, block) triples over three preambles, covering:
  // nothing shared, less than one block shared, sharing ending on and off a
  // block boundary, a fully shared prompt with a partial last block, and
  // prompts shorter than one block.  Against the full-chain oracle, the
  // signature is a leading prefix of the chain, and every pair of requests
  // gets the same shared-block count and the same router overlap score.
  for (const std::size_t block : {1u, 7u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::mt19937_64 rng(seed * 1000 + block);
      struct Case {
        TimedRequest request;             ///< carries the new signature
        TimedRequest oracle;              ///< carries the full chain
      };
      std::vector<Case> cases;
      for (std::uint64_t id = 0; id < 48; ++id) {
        const std::uint64_t preamble = rng() % 3;
        std::size_t prompt = 1 + rng() % (5 * block + 3);
        std::size_t shared = 0;
        switch (id % 6) {
          case 0: shared = 0; break;
          case 1: shared = rng() % block; break;  // < one block
          case 2: shared = block * (rng() % (prompt / block + 1)); break;
          case 3: shared = rng() % (prompt + 1); break;
          case 4: prompt = block * (1 + rng() % 4) + rng() % block;
                  shared = prompt; break;  // fully shared, often partial
          case 5: prompt = 1 + rng() % block; shared = rng() % (prompt + 1);
                  break;  // prompt within one block
        }
        shared = std::min(shared, prompt);
        Case c;
        c.request.id = id;
        c.request.prompt_tokens = prompt;
        c.request.prefix = MakePrefixSignature(preamble, shared, prompt, block);
        c.oracle = c.request;
        c.oracle.prefix.hashes =
            FullChain(preamble, OracleMix64(0xb1a5 ^ id), shared, prompt,
                      block);
        const auto& sig = c.request.prefix.hashes;
        const auto& full = c.oracle.prefix.hashes;
        ASSERT_LE(sig.size(), full.size());
        EXPECT_TRUE(std::equal(sig.begin(), sig.end(), full.begin()))
            << "block " << block << " seed " << seed << " id " << id;
        EXPECT_EQ(c.request.prefix.blocks(), full.size());
        cases.push_back(std::move(c));
      }
      for (const Case& holder : cases) {
        PrefixIndex now, before;
        for (const std::uint64_t h : holder.request.prefix.hashes) now.Add(h);
        for (const std::uint64_t h : holder.oracle.prefix.hashes) before.Add(h);
        for (const Case& probe : cases) {
          if (probe.request.id == holder.request.id) continue;
          EXPECT_EQ(now.SharedPrefixBlocks(probe.request.prefix.hashes),
                    before.SharedPrefixBlocks(probe.oracle.prefix.hashes))
              << "block " << block << " seed " << seed << " probe "
              << probe.request.id << " holder " << holder.request.id;
          EXPECT_EQ(OverlapScore(probe.request, now),
                    OverlapScore(probe.oracle, before));
        }
      }
    }
  }
}

TEST(PrefixIndexTest, SharedPrefixBlocksIsLongestLeadingRun) {
  PrefixIndex index;
  index.Add(10);
  index.Add(20);
  index.Add(40);  // present but not contiguous with the prefix
  const std::uint64_t sig[] = {10, 20, 30, 40};
  EXPECT_EQ(index.SharedPrefixBlocks(sig), 2u);  // stops at the miss on 30
  index.Add(30);
  EXPECT_EQ(index.SharedPrefixBlocks(sig), 4u);
  EXPECT_EQ(index.SharedPrefixBlocks({}), 0u);
}

TEST(PrefixIndexTest, RegisterFreeDecrementsToZero) {
  KvBlockManager pool(/*total_blocks=*/64, /*block_tokens=*/16);
  const std::uint64_t sig[] = {1, 2, 3};
  ASSERT_TRUE(pool.AddSequence(7, 48));
  pool.RegisterPrefix(7, sig);
  EXPECT_EQ(pool.prefix_index().size(), 3u);
  EXPECT_EQ(pool.prefix_index().SharedPrefixBlocks(sig), 3u);
  // Eviction (Free) removes the registration with the blocks: the index
  // drains to exactly zero, advertising nothing stale.
  pool.Free(7);
  EXPECT_EQ(pool.prefix_index().size(), 0u);
  EXPECT_EQ(pool.prefix_index().SharedPrefixBlocks(sig), 0u);
}

TEST(PrefixIndexTest, SharedHashesStayUntilLastHolderFrees) {
  KvBlockManager pool(64, 16);
  const std::uint64_t sig[] = {11, 22};
  ASSERT_TRUE(pool.AddSequence(1, 32));
  ASSERT_TRUE(pool.AddSequence(2, 40));
  pool.RegisterPrefix(1, sig);
  const std::uint64_t epoch = pool.prefix_index().epoch();
  // A second holder of the same preamble adds no membership.
  pool.RegisterPrefix(2, sig);
  EXPECT_EQ(pool.prefix_index().epoch(), epoch);
  EXPECT_EQ(pool.prefix_index().size(), 2u);
  // Freeing the first holder keeps the hashes: the second still has them.
  pool.Free(1);
  EXPECT_EQ(pool.prefix_index().SharedPrefixBlocks(sig), 2u);
  EXPECT_EQ(pool.prefix_index().epoch(), epoch);
  pool.Free(2);
  EXPECT_EQ(pool.prefix_index().size(), 0u);
  EXPECT_EQ(pool.prefix_index().epoch(), epoch + 2);  // two hashes left
}

TEST(PrefixIndexTest, ExportOfOneHolderKeepsTheOthersHashes) {
  KvBlockManager src(64, 16), dst(64, 16);
  const std::uint64_t sig[] = {31, 32, 33};
  const std::uint64_t head[] = {31};
  ASSERT_TRUE(src.AddSequence(1, 48));
  ASSERT_TRUE(src.AddSequence(2, 16));
  src.RegisterPrefix(1, sig);
  src.RegisterPrefix(2, head);  // holds only the first hash
  const KvExport moved = src.Export(1);
  EXPECT_EQ(moved.prefix_hashes, std::vector<std::uint64_t>(sig, sig + 3));
  // The source keeps what sequence 2 still holds, and only that.
  EXPECT_EQ(src.prefix_index().SharedPrefixBlocks(sig), 1u);
  EXPECT_EQ(src.prefix_index().size(), 1u);
  ASSERT_TRUE(dst.Import(moved));
  EXPECT_EQ(dst.prefix_index().SharedPrefixBlocks(sig), 3u);
}

TEST(PrefixIndexTest, ExportImportMovesHashesBetweenPools) {
  KvBlockManager src(64, 16), dst(64, 16);
  const std::uint64_t sig[] = {5, 6, 7, 8};
  ASSERT_TRUE(src.AddSequence(9, 64));
  src.RegisterPrefix(9, sig);
  KvExport exported = src.Export(9);
  // The hashes ride the export and leave the source index with the blocks.
  EXPECT_EQ(exported.prefix_hashes.size(), 4u);
  EXPECT_EQ(src.prefix_index().size(), 0u);
  ASSERT_TRUE(dst.Import(exported));
  EXPECT_EQ(dst.prefix_index().SharedPrefixBlocks(sig), 4u);
  dst.Free(9);
  EXPECT_EQ(dst.prefix_index().size(), 0u);
}

TEST(PrefixIndexTest, ReRegisterReplacesInsteadOfLeaking) {
  KvBlockManager pool(64, 16);
  const std::uint64_t first[] = {1, 2};
  const std::uint64_t second[] = {3};
  ASSERT_TRUE(pool.AddSequence(4, 32));
  pool.RegisterPrefix(4, first);
  pool.RegisterPrefix(4, second);
  EXPECT_EQ(pool.prefix_index().size(), 1u);
  EXPECT_FALSE(pool.prefix_index().Contains(1));
  EXPECT_TRUE(pool.prefix_index().Contains(3));
}

class PrefixCreditTest : public ::testing::Test {
 protected:
  PrefixCreditTest()
      : engine_(simgpu::HardwareSpec::H800(), SystemPreset::LiquidServe(),
                LlmConfig::Llama2_7B()) {}

  static Request Req(SeqId id, std::size_t prompt,
                     const PrefixSignature& prefix) {
    Request r;
    r.id = id;
    r.prompt_tokens = prompt;
    r.max_new_tokens = 4;
    r.prefix = prefix;
    return r;
  }

  ServingEngine engine_;
};

TEST_F(PrefixCreditTest, StaleCreditIsNotHonored) {
  // The provider prefills, retires and frees its blocks before the
  // same-signature consumer is admitted: nothing is resident any more, so
  // the consumer pays the full cold prefill.
  const PrefixSignature sig = MakePrefixSignature(1, 512, 1024, 16);
  ContinuousBatchScheduler cold(engine_, 256, 16);
  cold.Submit(Req(1, 1024, sig));
  const SchedulerStats cold_stats = cold.RunToCompletion();

  ContinuousBatchScheduler stale(engine_, 256, 16);
  stale.Submit(Req(1, 1024, sig));
  const double provider_busy = stale.RunToCompletion().busy_seconds;
  EXPECT_EQ(stale.pool().prefix_index().size(), 0u);
  EXPECT_EQ(stale.pool().free_blocks(), stale.pool().total_blocks());
  Request consumer = Req(2, 1024, sig);
  consumer.arrival = stale.Now();
  stale.Submit(consumer);
  const SchedulerStats stale_stats = stale.RunToCompletion();
  EXPECT_EQ(stale_stats.completed, 2u);
  EXPECT_EQ(stale_stats.prefix_hits, 0u);
  EXPECT_DOUBLE_EQ(stale_stats.prefill_tokens_saved, 0.0);
  EXPECT_NEAR(stale_stats.busy_seconds - provider_busy,
              cold_stats.busy_seconds, 1e-12 * cold_stats.busy_seconds);
}

TEST_F(PrefixCreditTest, AdmissionRefreshesCreditFromLiveIndex) {
  // Two same-preamble requests queued together: the second's prefill reuses
  // the first's resident blocks, because admission looks the signature up
  // in the live index (which the first prefill has just filled).
  const PrefixSignature a = MakePrefixSignature(1, 512, 1024, 16);
  const PrefixSignature b = MakePrefixSignature(1, 512, 1024, 16);
  ContinuousBatchScheduler cold(engine_, 256, 16);
  cold.Submit(Req(1, 1024, a));
  const SchedulerStats cold_stats = cold.RunToCompletion();

  ContinuousBatchScheduler sched(engine_, 256, 16);
  sched.Submit(Req(1, 1024, a));
  sched.Submit(Req(2, 1024, b));
  const SchedulerStats stats = sched.RunToCompletion();
  EXPECT_EQ(stats.prefix_hits, 1u);  // the second request hit
  EXPECT_DOUBLE_EQ(stats.prefill_tokens_saved, 512.0);
  EXPECT_EQ(cold_stats.prefix_hits, 0u);
  // Two prompts for less than double the cold busy time: the consumer's
  // shared 512 tokens were not re-prefilled.
  EXPECT_LT(stats.busy_seconds, 2 * cold_stats.busy_seconds);
}

TEST_F(PrefixCreditTest, FullHitStillRecomputesLastToken) {
  // Fully shared prompt content: two requests with identical signatures.
  const PrefixSignature sig = MakePrefixSignature(1, 1024, 1024, 16);
  ContinuousBatchScheduler sched(engine_, 256, 16);
  sched.Submit(Req(1, 1024, sig));
  sched.Submit(Req(2, 1024, sig));
  const SchedulerStats stats = sched.RunToCompletion();
  // The second prompt is fully cached: 1023 tokens saved, the last one
  // recomputed for logits.
  EXPECT_EQ(stats.prefix_hits, 1u);
  EXPECT_DOUBLE_EQ(stats.prefill_tokens_saved, 1023.0);
  EXPECT_GT(stats.busy_seconds, 0.0);
}

TEST_F(PrefixCreditTest, PredictTtftPricesTheDiscount) {
  ContinuousBatchScheduler sched(engine_, 256, 16);
  const double cold = sched.PredictTtft(1024, 0);
  const double warm = sched.PredictTtft(1024, /*cached_prefix_tokens=*/512);
  EXPECT_LT(warm, cold);
  // The discount never inverts feasibility: an impossible prompt stays
  // impossible no matter the credit.
  EXPECT_TRUE(std::isinf(sched.PredictTtft(1 << 20, 4096)));
}

TEST_F(PrefixCreditTest, SlowdownScalesComputeAndPrediction) {
  ContinuousBatchScheduler fast(engine_, 256, 16);
  ContinuousBatchScheduler slow(engine_, 256, 16);
  slow.SetSlowdown(3.0);
  EXPECT_DOUBLE_EQ(slow.PredictTtft(512), 3.0 * fast.PredictTtft(512));

  Request r;
  r.id = 1;
  r.prompt_tokens = 512;
  r.max_new_tokens = 8;
  fast.Submit(r);
  slow.Submit(r);
  const SchedulerStats fs = fast.RunToCompletion();
  const SchedulerStats ss = slow.RunToCompletion();
  EXPECT_NEAR(ss.busy_seconds, 3.0 * fs.busy_seconds,
              1e-9 * fs.busy_seconds);
  // Degradation loses nothing: same work completes, just later.
  EXPECT_EQ(ss.completed, fs.completed);
  // Sub-1.0 factors clamp (degradation cannot speed a replica up).
  slow.SetSlowdown(0.25);
  EXPECT_DOUBLE_EQ(slow.slowdown(), 1.0);
}

}  // namespace
}  // namespace liquid::serving
