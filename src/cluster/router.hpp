#pragma once
// Request router for the multi-replica serving cluster.  The
// ClusterSimulator keeps one ReplicaView per replica, refreshed whenever the
// replica is stepped or changed, and at each arrival asks the router for a
// destination over those views.
//
// Placement is a SCORING PIPELINE: a weighted sum of orthogonal terms
// (rotation fairness, queue depth, free KV, session affinity, shared
// prefix-cache blocks), evaluated per alive eligible replica;
// the highest score wins, ties break toward the lowest index so routing
// stays deterministic.  The historical policies survive as weight PRESETS
// over that pipeline — each reproduces the pre-pipeline decisions exactly:
//
//   round_robin        — rotation only: rotate over alive replicas.
//   least_outstanding  — load only: fewest queued+running (classic LOR LB).
//   least_kv           — free-KV only; long-prompt aware, since a replica's
//                        queue can be short while its KV pool is pinned by a
//                        few huge prompts.
//   affinity           — sticky session routing: an overwhelming affinity
//                        term pins a session to its replica; new sessions
//                        place by the load term.
//   prefix_aware       — prefix-cache locality: scores the shared leading
//                        blocks between the request's prompt signature and
//                        each replica's resident PrefixIndex, with session
//                        stickiness and load as lower-order terms.  Routes
//                        shared-prefix work (few-shot preambles, forked
//                        conversations) to the replica that can skip the
//                        most prefill compute.
//
// Disaggregated serving adds a role-aware stage AHEAD of the pipeline: when
// the fleet has alive prefill-specialized replicas (and the interconnect can
// actually move KV), fresh prompts go to the least-loaded prefill replica
// and decode-specialized replicas never see a prompt.  Role eligibility is a
// hard mask, not a weighted term: a weight could be outbid, and a prompt on
// a decode replica is a correctness bug, not a bad trade.  Once a prefill
// finishes, RouteDecode places the continuation through a decode-side
// pipeline (decode-pin, decode-role preference, shared prefix under the
// prefix_aware preset, free KV).  When the prefill pool is empty the stage
// falls through to the configured preset over unified replicas — graceful
// fallback to monolithic serving.
//
// The router is deliberately stateless about time: it only sees the views
// the simulator hands it, so pipelines stay unit-testable without an engine.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serving/kv_cache.hpp"
#include "serving/workload.hpp"

namespace liquid::cluster {

enum class RoutePolicy {
  kRoundRobin,
  kLeastOutstanding,
  kLeastKvLoad,
  kSessionAffinity,
  kPrefixAware,
};

[[nodiscard]] const char* ToString(RoutePolicy policy);
/// Parses "round_robin" | "least_outstanding" | "least_kv" | "affinity" |
/// "prefix_aware"; nullopt on anything else (error paths should echo
/// RoutePolicyNames()).
[[nodiscard]] std::optional<RoutePolicy> ParseRoutePolicy(
    const std::string& name);
/// The accepted preset names, "|"-separated — for usage/error messages.
[[nodiscard]] std::string RoutePolicyNames();

/// One weighted term of the placement score.
enum class ScoreTerm {
  kRotation,       ///< -(distance past the round-robin cursor)
  kLoad,           ///< -outstanding (queued + running requests)
  kFreeKv,         ///< +free KV blocks (raw count)
  kAffinity,       ///< 1 when the session is pinned here, else 0 (decode
                   ///  mode additionally requires min_free_blocks headroom)
  kPrefixOverlap,  ///< shared leading signature blocks resident here,
                   ///  normalized by the prompt's block count (0..1)
  kRolePreference, ///< decode placement: 1 for decode-role replicas, else 0
};

[[nodiscard]] const char* ToString(ScoreTerm term);

struct ScorerSpec {
  ScoreTerm term;
  double weight;
};

/// A placement policy as data: the weighted terms summed per replica.
using ScorerPipeline = std::vector<ScorerSpec>;

/// The prompt-side weight preset for a policy.
[[nodiscard]] ScorerPipeline PromptPipeline(RoutePolicy policy);
/// The decode-side weight preset (post-prefill continuation placement).
[[nodiscard]] ScorerPipeline DecodePipeline(RoutePolicy policy);

/// What a replica is specialized for in a disaggregated fleet.
enum class ReplicaRole {
  kUnified,  ///< prefills and decodes (the monolithic default)
  kPrefill,  ///< runs prompts to first token, then exports KV
  kDecode,   ///< receives migrated KV and runs decode steps only
};

[[nodiscard]] const char* ToString(ReplicaRole role);

/// What a policy is allowed to see about one replica at decision time.
struct ReplicaView {
  bool alive = true;
  ReplicaRole role = ReplicaRole::kUnified;
  std::size_t outstanding = 0;     ///< waiting + running requests
  std::size_t free_kv_blocks = 0;
  std::size_t total_kv_blocks = 0;
  /// Predicted TTFT for the request being routed, were it placed here
  /// (simulator-computed, optimistic lower bound).  Admission control keys
  /// on this; 0 means "no estimate" and never trips the SLO check.
  double est_ttft_seconds = 0;
  /// The replica's resident prefix-block index (kPrefixOverlap scores the
  /// request's signature against it); nullptr scores as zero overlap.
  const serving::PrefixIndex* prefix_index = nullptr;
};

/// SLO-aware admission control: rather than queue unboundedly, the router
/// rejects (429-style) a request whose predicted TTFT busts the budget on
/// every alive replica.  Disabled when ttft_budget <= 0.
struct SloConfig {
  double ttft_budget = 0;     ///< seconds; <= 0 disables admission control
  double reject_above = 1.0;  ///< reject when predicted > budget * this
};

/// Retry budget + exponential backoff for kill/migration-loss re-submissions,
/// so a re-route storm after a failure cannot amplify overload.  Retry k
/// (1-based) is released base_backoff * 2^(k-1) seconds after the loss;
/// beyond max_attempts the request is abandoned (retries_exhausted).
struct RetryPolicy {
  std::uint32_t max_attempts = 0;   ///< retries per request; 0 = unlimited
  double base_backoff_seconds = 0;  ///< 0 = immediate re-route (no backoff)
};

/// Outcome of one routing decision under admission control.
enum class RouteOutcome {
  kRouted,     ///< placed on `replica`
  kNoReplica,  ///< no alive replica (fleet-level drop)
  kRejected,   ///< predicted TTFT busts the SLO everywhere (shed load)
};

struct RouteDecision {
  RouteOutcome outcome = RouteOutcome::kNoReplica;
  std::optional<std::size_t> replica;
  double predicted_ttft = 0;  ///< estimate for the chosen (or best) replica
};

/// One weighted term's reading for the winning replica — the scorer
/// breakdown telemetry records per routing decision (and the training rows
/// a learned re-weighting would fit on).
struct TermContribution {
  ScoreTerm term = ScoreTerm::kLoad;
  double weight = 0;
  double value = 0;  ///< raw TermValue; the contribution is weight * value
};

/// Optional out-param of Decide: why the pipeline picked its winner.
/// Capturing it costs one extra term-value copy per improved candidate, so
/// callers only pass it when telemetry is attached.
struct RouteExplain {
  std::vector<TermContribution> terms;  ///< the winner's term readings
  double score = 0;                     ///< the winning weighted sum
};

class Router {
 public:
  explicit Router(RoutePolicy policy, SloConfig slo = {})
      : slo_(slo),
        pipeline_(PromptPipeline(policy)),
        decode_pipeline_(DecodePipeline(policy)) {}

  /// Picks a destination among alive prompt-eligible replicas; ties break
  /// toward the lowest index so routing stays deterministic.  With
  /// role_aware() on and a live prefill pool, this is the least-loaded
  /// prefill replica; otherwise the configured pipeline over unified
  /// replicas (decode replicas are a last resort).  kNoReplica when no
  /// replica is alive.  Then SLO admission control: if the pipeline's
  /// choice busts the TTFT budget, falls back to the prompt-eligible replica
  /// with the lowest predicted TTFT; if even that busts it, the request is
  /// rejected instead of queued.  Without a budget the placement is always
  /// the pipeline's.  `explain` (optional) receives the winning replica's
  /// scorer term breakdown for telemetry.
  [[nodiscard]] RouteDecision Decide(const serving::TimedRequest& request,
                                     const std::vector<ReplicaView>& replicas,
                                     RouteExplain* explain = nullptr);

  /// Places a post-prefill continuation through the decode pipeline.  Under
  /// the legacy presets: the session's previous decode home if it is alive
  /// and has `min_free_blocks` KV blocks free, else the alive decode replica
  /// with the most free KV.  Under prefix_aware, shared resident prefix
  /// blocks (the continuation's signature, which is exactly what its
  /// migrating KV registered, scored against each target's index) outrank
  /// stickiness.  Unified replicas are used when no decode replica is
  /// alive; returns nullopt when neither exists (the caller decodes locally
  /// on the prefill replica — unified fallback).
  [[nodiscard]] std::optional<std::size_t> RouteDecode(
      std::uint64_t session, const std::vector<ReplicaView>& replicas,
      std::size_t min_free_blocks,
      const serving::PrefixSignature* prefix = nullptr);

  /// Drops affinity pins onto `replica` (called on scale-down or kill); its
  /// sessions will be re-placed on their next request.  Replica indices stay
  /// stable across removals (dead replicas remain in the view vector with
  /// alive=false), so round-robin rotation continues fairly.
  void ForgetReplica(std::size_t replica);

  /// PredictTtft-based scale-down feasibility: would a fresh prompt of the
  /// probed size still be admittable with `victim` gone?  Masks the victim
  /// out of the views, re-derives prompt eligibility over the survivors
  /// (the role pool the victim leaves may hand prompts to a different
  /// pool), and checks the best surviving predicted TTFT against the same
  /// budget * reject_above ceiling Decide() rejects on.  Trivially true
  /// without an SLO budget — cost-driven shrink is then ungated.  The
  /// caller must have built the views with the probe's prompt size so
  /// est_ttft_seconds is populated.
  [[nodiscard]] bool ScaleDownSafe(const std::vector<ReplicaView>& replicas,
                                   std::size_t victim) const;

  [[nodiscard]] const SloConfig& slo() const { return slo_; }
  /// Enables the role-aware stage (set by the cluster once the fleet has
  /// specialized replicas and a usable interconnect).
  void set_role_aware(bool on) { role_aware_ = on; }
  [[nodiscard]] bool role_aware() const { return role_aware_; }

 private:
  /// A set of replica roles, one bit per ReplicaRole.
  static constexpr unsigned RoleBit(ReplicaRole role) {
    return 1u << static_cast<unsigned>(role);
  }

  /// Everything a scoring pass needs beyond the views.
  struct ScoreInput {
    std::uint64_t session = 0;
    const serving::PrefixSignature* prefix = nullptr;
    bool decode_mode = false;  ///< decode pin map + role-preference semantics
    std::size_t min_free_blocks = 0;  ///< decode pin headroom gate
    /// Roles an alive replica must have to be scored (RoleBit set).
    unsigned roles = ~0u;
    /// The replica the session is pinned to in the mode's pin map, looked
    /// up once per decision (npos = unpinned).
    std::size_t pinned = static_cast<std::size_t>(-1);
  };

  /// Runs one pipeline over the views: argmax of the weighted term sum over
  /// eligible replicas (ties toward the lowest index), then applies the
  /// post-decision state updates owned by the participating terms (rotation
  /// cursor, affinity pins).  Scores term-major: one pass per term over the
  /// candidates, then one argmax pass; RouteExplain is read for the winner.
  [[nodiscard]] std::optional<std::size_t> ScoreRoute(
      ScoreInput input, const std::vector<ReplicaView>& replicas,
      const ScorerPipeline& pipeline, RouteExplain* explain = nullptr);
  [[nodiscard]] double TermValue(ScoreTerm term, const ScoreInput& input,
                                 const std::vector<ReplicaView>& replicas,
                                 std::size_t i, std::size_t cursor) const;
  /// The roles a fresh prompt may land on, treating replica `dead` as not
  /// alive: with role_aware(), only prefill replicas while one is alive,
  /// else everything but decode replicas while a unified one is alive,
  /// else every role (decode replicas as the last resort).
  [[nodiscard]] unsigned PromptRoles(
      const std::vector<ReplicaView>& replicas,
      std::size_t dead = static_cast<std::size_t>(-1)) const;
  /// The prompt placement restricted to replicas whose role is in `roles`.
  [[nodiscard]] std::optional<std::size_t> RouteAmong(
      const serving::TimedRequest& request,
      const std::vector<ReplicaView>& replicas, unsigned roles,
      RouteExplain* explain);

  SloConfig slo_;
  /// The policy's presets: the weighted terms scoring prompt and decode
  /// placements.
  ScorerPipeline pipeline_;
  ScorerPipeline decode_pipeline_;
  bool role_aware_ = false;
  std::size_t rr_cursor_ = 0;
  /// ScoreRoute scratch: the eligible replica indices in index order, and
  /// their scores.
  std::vector<std::size_t> candidates_;
  std::vector<double> scores_;
  /// Determinism audit for both affinity maps: keyed lookup/pin writes on
  /// the routing path; the only iteration is ForgetReplica's erase-only
  /// sweep (suppressed there with a reason — visit order decides nothing).
  std::unordered_map<std::uint64_t, std::size_t> affinity_;
  /// Session → decode replica that last hosted it (RouteDecode locality).
  std::unordered_map<std::uint64_t, std::size_t> decode_affinity_;
};

}  // namespace liquid::cluster
