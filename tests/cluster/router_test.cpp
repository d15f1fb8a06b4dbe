#include "cluster/router.hpp"

#include <gtest/gtest.h>

namespace liquid::cluster {
namespace {

serving::TimedRequest Req(std::uint64_t id, std::uint64_t session = 0) {
  serving::TimedRequest r;
  r.id = id;
  r.session = session;
  return r;
}

TEST(RouterTest, ParseAndPrintPoliciesRoundTrip) {
  // Table-driven: every preset round-trips through its canonical name, and
  // the advertised accepted-names list covers exactly those names.
  struct Case {
    RoutePolicy policy;
    const char* name;
  };
  const Case cases[] = {
      {RoutePolicy::kRoundRobin, "round_robin"},
      {RoutePolicy::kLeastOutstanding, "least_outstanding"},
      {RoutePolicy::kLeastKvLoad, "least_kv"},
      {RoutePolicy::kSessionAffinity, "affinity"},
      {RoutePolicy::kPrefixAware, "prefix_aware"},
  };
  const std::string names = RoutePolicyNames();
  for (const Case& c : cases) {
    EXPECT_STREQ(ToString(c.policy), c.name);
    const auto parsed = ParseRoutePolicy(c.name);
    ASSERT_TRUE(parsed.has_value()) << c.name;
    EXPECT_EQ(*parsed, c.policy) << c.name;
    EXPECT_NE(names.find(c.name), std::string::npos)
        << "'" << c.name << "' missing from RoutePolicyNames()";
  }
  // Unknown, near-miss, and case-mangled names are all rejected — callers
  // print RoutePolicyNames() on this path.
  for (const char* bad :
       {"no_such_policy", "", "prefix", "Affinity", "least_kv "}) {
    EXPECT_FALSE(ParseRoutePolicy(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(RouterTest, RoundRobinCyclesAndSkipsDeadReplicas) {
  Router router(RoutePolicy::kRoundRobin);
  std::vector<ReplicaView> views(3);
  views[1].alive = false;
  EXPECT_EQ(router.Decide(Req(0), views).replica, 0u);
  EXPECT_EQ(router.Decide(Req(1), views).replica, 2u);  // skips dead replica 1
  EXPECT_EQ(router.Decide(Req(2), views).replica, 0u);
}

TEST(RouterTest, NoAliveReplicaRoutesNowhere) {
  Router router(RoutePolicy::kRoundRobin);
  std::vector<ReplicaView> views(2);
  views[0].alive = views[1].alive = false;
  EXPECT_FALSE(router.Decide(Req(0), views).replica.has_value());
}

TEST(RouterTest, LeastOutstandingPicksShortestQueue) {
  Router router(RoutePolicy::kLeastOutstanding);
  std::vector<ReplicaView> views(3);
  views[0].outstanding = 5;
  views[1].outstanding = 2;
  views[2].outstanding = 9;
  EXPECT_EQ(router.Decide(Req(0), views).replica, 1u);
}

TEST(RouterTest, LeastKvLoadPicksMostFreeBlocks) {
  Router router(RoutePolicy::kLeastKvLoad);
  std::vector<ReplicaView> views(3);
  // Queue depth says replica 0; KV headroom says replica 2.
  views[0].outstanding = 1;
  views[0].free_kv_blocks = 10;
  views[1].outstanding = 4;
  views[1].free_kv_blocks = 40;
  views[2].outstanding = 4;
  views[2].free_kv_blocks = 300;
  EXPECT_EQ(router.Decide(Req(0), views).replica, 2u);
}

TEST(RouterTest, LeastKvLoadTieBreaksTowardLowestIndex) {
  Router router(RoutePolicy::kLeastKvLoad);
  std::vector<ReplicaView> views(3);
  for (ReplicaView& v : views) v.free_kv_blocks = 7;
  EXPECT_EQ(router.Decide(Req(0), views).replica, 0u);
}

TEST(RouterTest, AffinityPinsSessionToFirstPlacement) {
  Router router(RoutePolicy::kSessionAffinity);
  std::vector<ReplicaView> views(3);
  views[0].outstanding = 9;
  views[1].outstanding = 0;
  views[2].outstanding = 9;
  ASSERT_EQ(router.Decide(Req(0, /*session=*/42), views).replica, 1u);
  // Even when another replica becomes less loaded, the session stays pinned.
  views[1].outstanding = 50;
  EXPECT_EQ(router.Decide(Req(1, 42), views).replica, 1u);
  EXPECT_EQ(router.Decide(Req(2, 42), views).replica, 1u);
  // A different session lands on the now least-loaded replica.
  EXPECT_EQ(router.Decide(Req(3, 43), views).replica, 0u);
}

TEST(RouterTest, AffinityRepinsWhenReplicaForgotten) {
  Router router(RoutePolicy::kSessionAffinity);
  std::vector<ReplicaView> views(2);
  views[0].outstanding = 0;
  views[1].outstanding = 3;
  ASSERT_EQ(router.Decide(Req(0, 7), views).replica, 0u);
  router.ForgetReplica(0);
  views[0].alive = false;
  EXPECT_EQ(router.Decide(Req(1, 7), views).replica, 1u);
}

TEST(RouterTest, RoundRobinRotationFairAfterForgettingRemovedReplica) {
  // Regression: the cluster keeps replica indices stable after a kill or
  // scale-down (the dead replica stays in the view vector, alive=false).
  // ForgetReplica must NOT shift the cursor in that convention, or the
  // rotation re-serves the replica just served and starves another.
  Router router(RoutePolicy::kRoundRobin);
  std::vector<ReplicaView> views(3);
  EXPECT_EQ(router.Decide(Req(0), views).replica, 0u);
  EXPECT_EQ(router.Decide(Req(1), views).replica, 1u);  // cursor now 2
  // Replica 0 dies; indices stay stable.
  router.ForgetReplica(0);
  views[0].alive = false;
  // Rotation continues with replica 2, then alternates 1/2 — no double-serve
  // of replica 1 and no starvation of replica 2.
  EXPECT_EQ(router.Decide(Req(2), views).replica, 2u);
  EXPECT_EQ(router.Decide(Req(3), views).replica, 1u);
  EXPECT_EQ(router.Decide(Req(4), views).replica, 2u);
}

TEST(RouterTest, RoundRobinStaleCursorClampedToShrunkenViews) {
  Router router(RoutePolicy::kRoundRobin);
  std::vector<ReplicaView> views(4);
  for (int i = 0; i < 4; ++i) {
    (void)router.Decide(Req(static_cast<unsigned>(i)), views).replica;
  }
  // The fleet shrinks behind the router's back (no ForgetReplica call): a
  // stale cursor must still produce a valid, cycling rotation.
  views.resize(2);
  const auto a = router.Decide(Req(10), views).replica;
  const auto b = router.Decide(Req(11), views).replica;
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_LT(*a, 2u);
  EXPECT_LT(*b, 2u);
  EXPECT_NE(*a, *b);
}

TEST(RouterTest, ForgetKilledReplicaDropsPinsAndRepins) {
  // Kill semantics: the replica is forgotten while still present in the view
  // vector (marked dead, never drained).  Its sessions must re-place.
  Router router(RoutePolicy::kSessionAffinity);
  std::vector<ReplicaView> views(3);
  views[0].outstanding = 1;
  views[1].outstanding = 0;
  views[2].outstanding = 5;
  ASSERT_EQ(router.Decide(Req(0, /*session=*/9), views).replica, 1u);
  // Replica 1 is killed: forgotten, marked dead, still in the vector.
  router.ForgetReplica(1);
  views[1].alive = false;
  // The session re-places by least-outstanding among survivors...
  EXPECT_EQ(router.Decide(Req(1, 9), views).replica, 0u);
  // ...and the new pin is sticky even when load shifts.
  views[0].outstanding = 50;
  EXPECT_EQ(router.Decide(Req(2, 9), views).replica, 0u);
}

TEST(RouterTest, AffinityReplacementAfterKillWithoutForget) {
  // Even if ForgetReplica were missed, a dead pinned replica must not be
  // routed to; the session re-pins to an alive one.
  Router router(RoutePolicy::kSessionAffinity);
  std::vector<ReplicaView> views(2);
  ASSERT_EQ(router.Decide(Req(0, 5), views).replica, 0u);
  views[0].alive = false;
  views[1].outstanding = 7;
  EXPECT_EQ(router.Decide(Req(1, 5), views).replica, 1u);
}

TEST(RouterTest, DecideRejectsWhenAllReplicasBustBudget) {
  Router router(RoutePolicy::kLeastOutstanding,
                SloConfig{/*ttft_budget=*/1.0, /*reject_above=*/1.0});
  std::vector<ReplicaView> views(3);
  for (ReplicaView& v : views) v.est_ttft_seconds = 5.0;
  const RouteDecision d = router.Decide(Req(0), views);
  EXPECT_EQ(d.outcome, RouteOutcome::kRejected);
  EXPECT_FALSE(d.replica.has_value());
  EXPECT_DOUBLE_EQ(d.predicted_ttft, 5.0);
}

TEST(RouterTest, DecideFallsBackToFastestReplicaUnderSlo) {
  // The policy's pick (affinity pin) busts the budget, but another replica
  // can still serve inside it: route there instead of rejecting.
  Router router(RoutePolicy::kSessionAffinity,
                SloConfig{/*ttft_budget=*/1.0, /*reject_above=*/1.0});
  std::vector<ReplicaView> views(2);
  views[0].outstanding = 0;
  ASSERT_EQ(router.Decide(Req(0, /*session=*/3), views).replica, 0u);
  views[0].est_ttft_seconds = 4.0;  // pinned replica now overloaded
  views[1].est_ttft_seconds = 0.5;
  views[1].outstanding = 1;
  const RouteDecision d = router.Decide(Req(1, 3), views);
  EXPECT_EQ(d.outcome, RouteOutcome::kRouted);
  EXPECT_EQ(d.replica, 1u);
  EXPECT_DOUBLE_EQ(d.predicted_ttft, 0.5);
}

TEST(RouterTest, DecideWithSloDisabledNeverRejects) {
  Router router(RoutePolicy::kRoundRobin);  // default SloConfig: disabled
  std::vector<ReplicaView> views(2);
  for (ReplicaView& v : views) v.est_ttft_seconds = 1e9;
  const RouteDecision d = router.Decide(Req(0), views);
  EXPECT_EQ(d.outcome, RouteOutcome::kRouted);
}

TEST(RouterTest, DecideNoAliveReplicaIsDropNotReject) {
  Router router(RoutePolicy::kLeastOutstanding,
                SloConfig{/*ttft_budget=*/1.0, /*reject_above=*/1.0});
  std::vector<ReplicaView> views(2);
  views[0].alive = views[1].alive = false;
  const RouteDecision d = router.Decide(Req(0), views);
  EXPECT_EQ(d.outcome, RouteOutcome::kNoReplica);
  EXPECT_FALSE(d.replica.has_value());
}

// ---- Scorer-pipeline behavior (the placement refactor) ----------------

serving::TimedRequest SignedReq(std::uint64_t id, std::uint64_t session,
                                std::vector<std::uint64_t> hashes) {
  serving::TimedRequest r;
  r.id = id;
  r.session = session;
  r.prompt_tokens = hashes.size() * 16;
  r.prefix.block_tokens = 16;
  r.prefix.hashes = std::move(hashes);
  return r;
}

TEST(RouterScorerTest, PresetPipelinesExposeTheirTerms) {
  // The legacy presets are data now: single-term pipelines (affinity adds
  // its load fallback).  Guards against a preset silently changing shape.
  EXPECT_EQ(PromptPipeline(RoutePolicy::kRoundRobin).size(), 1u);
  EXPECT_EQ(PromptPipeline(RoutePolicy::kRoundRobin)[0].term,
            ScoreTerm::kRotation);
  EXPECT_EQ(PromptPipeline(RoutePolicy::kLeastOutstanding)[0].term,
            ScoreTerm::kLoad);
  EXPECT_EQ(PromptPipeline(RoutePolicy::kLeastKvLoad)[0].term,
            ScoreTerm::kFreeKv);
  EXPECT_EQ(PromptPipeline(RoutePolicy::kSessionAffinity)[0].term,
            ScoreTerm::kAffinity);
  const ScorerPipeline prefix = PromptPipeline(RoutePolicy::kPrefixAware);
  EXPECT_EQ(prefix[0].term, ScoreTerm::kPrefixOverlap);
  EXPECT_STREQ(ToString(ScoreTerm::kPrefixOverlap), "prefix_overlap");
}

TEST(RouterScorerTest, PrefixAwareRoutesToSharedBlocks) {
  Router router(RoutePolicy::kPrefixAware);
  serving::PrefixIndex warm;
  for (std::uint64_t h : {1ull, 2ull, 3ull, 4ull}) warm.Add(h);
  serving::PrefixIndex cold;
  std::vector<ReplicaView> views(3);
  views[0].prefix_index = &cold;
  views[1].prefix_index = &warm;  // holds the request's whole signature
  views[2].prefix_index = &cold;
  views[1].outstanding = 2;  // mild load must not scare the overlap away
  EXPECT_EQ(router.Decide(SignedReq(0, 5, {1, 2, 3, 4}), views).replica, 1u);
}

TEST(RouterScorerTest, PrefixAwareLoadTermSpillsHotspots) {
  // Overlap weight 2.0 vs load weight 0.5: a full overlap is worth a 4-deep
  // queue, not a 40-deep one — a hotspot spills to an idle replica.
  Router router(RoutePolicy::kPrefixAware);
  serving::PrefixIndex warm;
  for (std::uint64_t h : {1ull, 2ull}) warm.Add(h);
  std::vector<ReplicaView> views(2);
  views[0].prefix_index = &warm;
  views[0].outstanding = 10;  // 2.0 overlap < 0.5 * 10 load penalty
  views[1].outstanding = 0;
  EXPECT_EQ(router.Decide(SignedReq(0, 5, {1, 2}), views).replica, 1u);
  views[0].outstanding = 3;  // 2.0 overlap > 0.5 * 3: locality wins again
  EXPECT_EQ(router.Decide(SignedReq(1, 6, {1, 2}), views).replica, 0u);
}

TEST(RouterScorerTest, PrefixAwareDegeneratesToStickinessWhenDisjoint) {
  // No shared blocks anywhere: the pin term keeps the session home while
  // load stays comparable — affinity-like behavior on disjoint workloads.
  Router router(RoutePolicy::kPrefixAware);
  std::vector<ReplicaView> views(2);
  views[0].outstanding = 1;
  views[1].outstanding = 0;
  // Least loaded.
  ASSERT_EQ(router.Decide(SignedReq(0, 9, {42}), views).replica, 1u);
  views[0].outstanding = 0;  // load evens out: the pin keeps the session home
  EXPECT_EQ(router.Decide(SignedReq(1, 9, {43}), views).replica, 1u);
}

TEST(RouterScorerTest, DecodePrefixOverlapOutranksStickiness) {
  // Legacy decode placement would stay with the session's old decode home;
  // prefix_aware follows the migrating KV's shared blocks instead.
  Router router(RoutePolicy::kPrefixAware);
  serving::PrefixIndex warm;
  for (std::uint64_t h : {7ull, 8ull}) warm.Add(h);
  std::vector<ReplicaView> views(3);
  views[0].role = ReplicaRole::kDecode;
  views[0].free_kv_blocks = 50;
  views[1].role = ReplicaRole::kDecode;
  views[1].free_kv_blocks = 50;
  views[1].prefix_index = &warm;
  views[2].role = ReplicaRole::kPrefill;  // never a decode target
  // Pin session 3 onto replica 0 first (no overlap info).
  ASSERT_EQ(router.RouteDecode(3, views, 1), 0u);
  // With shared blocks visible on replica 1, the pin loses.
  const serving::PrefixSignature sig = SignedReq(0, 3, {7, 8}).prefix;
  EXPECT_EQ(router.RouteDecode(3, views, 1, &sig), 1u);
  // And under a legacy preset the pin would have held.
  Router legacy(RoutePolicy::kSessionAffinity);
  ASSERT_EQ(legacy.RouteDecode(3, views, 1), 0u);
  EXPECT_EQ(legacy.RouteDecode(3, views, 1, &sig), 0u);
}

TEST(RouterScorerTest, DecodeRolePreferenceStillAbsoluteUnderPrefix) {
  // A unified replica holding the whole signature must not outbid a decode
  // replica: role preference is the top tier of the decode pipeline.
  Router router(RoutePolicy::kPrefixAware);
  serving::PrefixIndex warm;
  warm.Add(1);
  std::vector<ReplicaView> views(2);
  views[0].role = ReplicaRole::kUnified;
  views[0].prefix_index = &warm;
  views[0].free_kv_blocks = 100;
  views[1].role = ReplicaRole::kDecode;
  views[1].free_kv_blocks = 10;
  const serving::PrefixSignature sig = SignedReq(0, 1, {1}).prefix;
  EXPECT_EQ(router.RouteDecode(1, views, 1, &sig), 1u);
}

}  // namespace
}  // namespace liquid::cluster
