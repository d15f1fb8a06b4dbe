#include "cluster/router.hpp"

#include <algorithm>

#include "obs/prof/wall_profiler.hpp"

namespace liquid::cluster {
namespace {

// Tier separators for lexicographic-by-weight presets.  A term weighted
// kTierMajor cannot be outbid by a full-strength term at kTierMinor, and so
// on down to kTierSmall and the unit-weight free-KV tiebreak.  kTierPin is
// reserved for terms that are nonzero on AT MOST ONE replica (a session's
// pin): near 1e18 a double's ulp is 128, which would quantize away free-KV
// differences between replicas scoring in the same tier — harmless for a
// unique pin, fatal for a shared term like decode-role preference.  Every
// shared tier therefore stays at or below 1e12, where tier + count sums of
// integers below 2^53 are exact.
constexpr double kTierPin = 1e18;
constexpr double kTierMajor = 1e12;
constexpr double kTierMinor = 1e9;
constexpr double kTierSmall = 1e6;

}  // namespace

const char* ToString(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin: return "round_robin";
    case RoutePolicy::kLeastOutstanding: return "least_outstanding";
    case RoutePolicy::kLeastKvLoad: return "least_kv";
    case RoutePolicy::kSessionAffinity: return "affinity";
    case RoutePolicy::kPrefixAware: return "prefix_aware";
  }
  return "?";
}

std::optional<RoutePolicy> ParseRoutePolicy(const std::string& name) {
  if (name == "round_robin") return RoutePolicy::kRoundRobin;
  if (name == "least_outstanding") return RoutePolicy::kLeastOutstanding;
  if (name == "least_kv") return RoutePolicy::kLeastKvLoad;
  if (name == "affinity") return RoutePolicy::kSessionAffinity;
  if (name == "prefix_aware") return RoutePolicy::kPrefixAware;
  return std::nullopt;
}

std::string RoutePolicyNames() {
  return "round_robin|least_outstanding|least_kv|affinity|prefix_aware";
}

const char* ToString(ScoreTerm term) {
  switch (term) {
    case ScoreTerm::kRotation: return "rotation";
    case ScoreTerm::kLoad: return "load";
    case ScoreTerm::kFreeKv: return "free_kv";
    case ScoreTerm::kAffinity: return "affinity";
    case ScoreTerm::kPrefixOverlap: return "prefix_overlap";
    case ScoreTerm::kRolePreference: return "role_preference";
  }
  return "?";
}

ScorerPipeline PromptPipeline(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin:
      return {{ScoreTerm::kRotation, 1.0}};
    case RoutePolicy::kLeastOutstanding:
      return {{ScoreTerm::kLoad, 1.0}};
    case RoutePolicy::kLeastKvLoad:
      return {{ScoreTerm::kFreeKv, 1.0}};
    case RoutePolicy::kSessionAffinity:
      // An overwhelming pin term reproduces strict stickiness; unpinned
      // sessions fall through to pure load.
      return {{ScoreTerm::kAffinity, kTierPin}, {ScoreTerm::kLoad, 1.0}};
    case RoutePolicy::kPrefixAware:
      // Overlap is normalized to [0, 1], so the weights read in "fully
      // shared prompts": a full overlap is worth a 4-deep queue advantage
      // and 4 sessions' stickiness.  The load counterweight is what keeps
      // packing from minting hotspots — beyond a few queued requests, the
      // wait outgrows the prefill any shared prefix could save.  Free KV
      // only splits exact ties.
      return {{ScoreTerm::kPrefixOverlap, 2.0},
              {ScoreTerm::kAffinity, 0.5},
              {ScoreTerm::kLoad, 0.5},
              {ScoreTerm::kFreeKv, 1e-6}};
  }
  return {{ScoreTerm::kLoad, 1.0}};
}

ScorerPipeline DecodePipeline(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kPrefixAware:
      // Decode-role preference stays absolute, but the target holding the
      // migrating KV's shared blocks outranks session stickiness — real
      // resident prefixes beat the memory of where a session used to live.
      // Role preference is a SHARED term (every decode replica scores it),
      // so it sits at kTierMajor, not kTierPin: the whole sum stays exact
      // and the free-KV tiebreak survives.
      return {{ScoreTerm::kRolePreference, kTierMajor},
              {ScoreTerm::kPrefixOverlap, kTierMinor},
              {ScoreTerm::kAffinity, kTierSmall},
              {ScoreTerm::kFreeKv, 1.0}};
    default:
      // Legacy decode placement: sticky decode home first (with KV
      // headroom), then decode replicas over unified, then most free KV.
      return {{ScoreTerm::kAffinity, kTierPin},
              {ScoreTerm::kRolePreference, kTierMajor},
              {ScoreTerm::kFreeKv, 1.0}};
  }
}

const char* ToString(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kUnified: return "unified";
    case ReplicaRole::kPrefill: return "prefill";
    case ReplicaRole::kDecode: return "decode";
  }
  return "?";
}

unsigned Router::PromptRoles(const std::vector<ReplicaView>& replicas,
                             std::size_t dead) const {
  constexpr unsigned kAll = RoleBit(ReplicaRole::kUnified) |
                            RoleBit(ReplicaRole::kPrefill) |
                            RoleBit(ReplicaRole::kDecode);
  if (!role_aware_) return kAll;
  bool any_prefill = false, any_unified = false;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaView& v = replicas[i];
    if (!v.alive || i == dead) continue;
    any_prefill |= v.role == ReplicaRole::kPrefill;
    any_unified |= v.role == ReplicaRole::kUnified;
  }
  // A live prefill pool owns every fresh prompt.
  if (any_prefill) return RoleBit(ReplicaRole::kPrefill);
  // Prefill pool empty: unified replicas take over; decode replicas still
  // never see a prompt while a unified one lives.
  if (any_unified) return kAll & ~RoleBit(ReplicaRole::kDecode);
  // Only decode replicas left: last resort, they serve prompts unified.
  return kAll;
}

double Router::TermValue(ScoreTerm term, const ScoreInput& input,
                         const std::vector<ReplicaView>& replicas,
                         std::size_t i, std::size_t cursor) const {
  const ReplicaView& v = replicas[i];
  switch (term) {
    case ScoreTerm::kRotation:
      // Distance past the cursor: the first alive replica at or after it
      // scores highest, reproducing the classic rotation scan.
      return -static_cast<double>((i + replicas.size() - cursor) %
                                  replicas.size());
    case ScoreTerm::kLoad:
      return -static_cast<double>(v.outstanding);
    case ScoreTerm::kFreeKv:
      return static_cast<double>(v.free_kv_blocks);
    case ScoreTerm::kAffinity:
      if (i != input.pinned) return 0;
      // A decode pin only counts while its replica has KV headroom for the
      // incoming continuation.
      if (input.decode_mode && v.free_kv_blocks < input.min_free_blocks) {
        return 0;
      }
      return 1;
    case ScoreTerm::kPrefixOverlap: {
      if (input.prefix == nullptr || input.prefix->empty() ||
          v.prefix_index == nullptr) {
        return 0;
      }
      // Normalized by the whole prompt, not by the hashed blocks: a
      // signature leaves out the unique tail, which could never match.
      const std::size_t shared =
          v.prefix_index->SharedPrefixBlocks(input.prefix->hashes);
      return static_cast<double>(shared) /
             static_cast<double>(input.prefix->blocks());
    }
    case ScoreTerm::kRolePreference:
      return v.role == ReplicaRole::kDecode ? 1 : 0;
  }
  return 0;
}

std::optional<std::size_t> Router::ScoreRoute(
    ScoreInput input, const std::vector<ReplicaView>& replicas,
    const ScorerPipeline& pipeline, RouteExplain* explain) {
  LIQUID_PROF_SCOPE("router/score");
  if (replicas.empty()) return std::nullopt;
  bool rotates = false, pins = false, reads_pin = false;
  for (const ScorerSpec& spec : pipeline) {
    rotates |= spec.term == ScoreTerm::kRotation && spec.weight > 0;
    pins |= spec.term == ScoreTerm::kAffinity && spec.weight > 0;
    reads_pin |= spec.term == ScoreTerm::kAffinity;
  }
  // The cursor can be stale relative to this call's view vector (replicas
  // removed since the last decision); re-anchor it before scoring.
  if (rotates) rr_cursor_ %= replicas.size();
  const std::size_t cursor = rr_cursor_;
  auto& pin_map = input.decode_mode ? decode_affinity_ : affinity_;
  if (reads_pin) {
    const auto pin = pin_map.find(input.session);
    if (pin != pin_map.end()) input.pinned = pin->second;
  }

  candidates_.clear();
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaView& v = replicas[i];
    if (v.alive && (input.roles & RoleBit(v.role)) != 0) {
      candidates_.push_back(i);
    }
  }
  if (candidates_.empty()) return std::nullopt;
  // Term-major: each term adds weight * value into every candidate's score
  // in pipeline order, so each score is the same sum a replica-major loop
  // would form.
  scores_.assign(candidates_.size(), 0.0);
  for (const ScorerSpec& spec : pipeline) {
    // Per-term wall cost: ToString returns static literals, which is what
    // the profiler's name-pointer tree requires.
    LIQUID_PROF_SCOPE(ToString(spec.term));
    for (std::size_t c = 0; c < candidates_.size(); ++c) {
      scores_[c] += spec.weight * TermValue(spec.term, input, replicas,
                                            candidates_[c], cursor);
    }
  }
  // Ties break toward the lowest index: only a strictly higher score wins.
  std::size_t win = 0;
  for (std::size_t c = 1; c < candidates_.size(); ++c) {
    if (scores_[c] > scores_[win]) win = c;
  }
  const std::size_t best = candidates_[win];
  if (explain != nullptr) {
    // Read before the cursor and the pins move below.
    explain->terms.clear();
    const std::size_t nterms = std::min<std::size_t>(pipeline.size(), 16);
    for (std::size_t j = 0; j < nterms; ++j) {
      explain->terms.push_back(
          {pipeline[j].term, pipeline[j].weight,
           TermValue(pipeline[j].term, input, replicas, best, cursor)});
    }
    explain->score = scores_[win];
  }
  // Post-decision updates belong to the terms that participated: rotation
  // advances its cursor, affinity (re)pins the session.
  if (rotates) rr_cursor_ = (best + 1) % replicas.size();
  if (pins) pin_map[input.session] = best;
  return best;
}

std::optional<std::size_t> Router::RouteAmong(
    const serving::TimedRequest& request,
    const std::vector<ReplicaView>& replicas, unsigned roles,
    RouteExplain* explain) {
  ScoreInput input;
  input.session = request.session;
  input.prefix = &request.prefix;
  input.roles = roles;
  // Prompts go to the least-loaded prefill replica regardless of the
  // configured pipeline: prefill work is prompt-length bound and leaves
  // quickly, so queue depth is the right signal there.
  if (roles == RoleBit(ReplicaRole::kPrefill)) {
    static const ScorerPipeline kPrefillPool = {{ScoreTerm::kLoad, 1.0}};
    return ScoreRoute(input, replicas, kPrefillPool, explain);
  }
  return ScoreRoute(input, replicas, pipeline_, explain);
}

RouteDecision Router::Decide(const serving::TimedRequest& request,
                             const std::vector<ReplicaView>& replicas,
                             RouteExplain* explain) {
  LIQUID_PROF_SCOPE("router/decide");
  RouteDecision decision;
  const unsigned roles = PromptRoles(replicas);
  const std::optional<std::size_t> placed =
      RouteAmong(request, replicas, roles, explain);
  if (!placed) return decision;  // kNoReplica
  decision.outcome = RouteOutcome::kRouted;
  decision.replica = placed;
  decision.predicted_ttft = replicas[*placed].est_ttft_seconds;
  if (slo_.ttft_budget <= 0) return decision;

  const double ceiling = slo_.ttft_budget * slo_.reject_above;
  if (decision.predicted_ttft <= ceiling) return decision;

  // The pipeline's pick busts the budget — maybe it optimized for something
  // else (affinity, KV headroom, prefix reuse).  Fall back to the lowest-
  // predicted-TTFT prompt-eligible replica before giving up on the request.
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaView& v = replicas[i];
    if (!v.alive || (roles & RoleBit(v.role)) == 0) continue;
    if (!best || v.est_ttft_seconds < replicas[*best].est_ttft_seconds) {
      best = i;
    }
  }
  if (best && replicas[*best].est_ttft_seconds <= ceiling) {
    decision.replica = best;
    decision.predicted_ttft = replicas[*best].est_ttft_seconds;
    return decision;
  }
  decision.outcome = RouteOutcome::kRejected;
  decision.replica = std::nullopt;
  if (best) decision.predicted_ttft = replicas[*best].est_ttft_seconds;
  return decision;
}

std::optional<std::size_t> Router::RouteDecode(
    std::uint64_t session, const std::vector<ReplicaView>& replicas,
    std::size_t min_free_blocks,
    const serving::PrefixSignature* prefix) {
  ScoreInput input;
  input.session = session;
  input.prefix = prefix;
  input.decode_mode = true;
  input.min_free_blocks = min_free_blocks;
  // Continuations never land on a prefill-specialized replica.
  input.roles =
      RoleBit(ReplicaRole::kUnified) | RoleBit(ReplicaRole::kDecode);
  return ScoreRoute(input, replicas, decode_pipeline_);
}

bool Router::ScaleDownSafe(const std::vector<ReplicaView>& replicas,
                           std::size_t victim) const {
  if (slo_.ttft_budget <= 0) return true;
  const unsigned roles = PromptRoles(replicas, victim);
  const double ceiling = slo_.ttft_budget * slo_.reject_above;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const ReplicaView& v = replicas[i];
    if (v.alive && i != victim && (roles & RoleBit(v.role)) != 0 &&
        v.est_ttft_seconds <= ceiling) {
      return true;
    }
  }
  return false;
}

void Router::ForgetReplica(std::size_t replica) {
  // Erase-only sweeps: visit order decides nothing — the surviving map
  // contents are the same set regardless of iteration order, and nothing is
  // emitted per visit.
  // NOLINT-DETERMINISM(erase-only sweep; surviving content is order-independent)
  for (auto it = affinity_.begin(); it != affinity_.end();) {
    it = it->second == replica ? affinity_.erase(it) : std::next(it);
  }
  // NOLINT-DETERMINISM(erase-only sweep; surviving content is order-independent)
  for (auto it = decode_affinity_.begin(); it != decode_affinity_.end();) {
    it = it->second == replica ? decode_affinity_.erase(it) : std::next(it);
  }
  // Replica indices are stable (dead replicas stay in the view vector,
  // marked !alive), so the round-robin cursor needs no shifting here; the
  // modulo re-anchor in ScoreRoute guards callers that do hand in a shorter
  // view vector later.
}

}  // namespace liquid::cluster
