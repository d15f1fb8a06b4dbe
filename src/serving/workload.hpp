#pragma once
// Workload generation and per-request timing for serving experiments.
//
// The paper evaluates fixed-length workloads (1024/512); production traces
// are bursty.  This module generates Poisson-arrival request traces with
// configurable length distributions, and defines the per-request timing
// behind the metrics operators actually watch: TTFT (time to first token),
// TPOT (time per output token), and end-to-end latency, which
// cluster/fleet_stats.hpp pools into percentiles.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace liquid::serving {

/// Token-block signature of a prompt: the blocks of `block_tokens` simulated
/// tokens that can match another request's, one rolling hash each, chained
/// so hash i commits to every token through block i.  Two prompts share
/// leading hashes exactly as far as their token content agrees — the
/// fleet-wide currency of prefix-cache locality (routing scores shared
/// blocks, schedulers skip their prefill compute).
///
/// Only shared-preamble content can match, so only it is hashed: the blocks
/// wholly inside the preamble, plus a partial last block when the whole
/// prompt is shared.  Unique-tail blocks, and the block straddling the
/// preamble's end, hold per-request tokens and are left out.  An unshared
/// prompt therefore carries no hashes at all.  `blocks()` still counts the
/// whole prompt, the denominator of the router's overlap score.
struct PrefixSignature {
  std::uint32_t block_tokens = 0;     ///< tokens hashed per block (0 = none)
  /// Prompt tokens the signature describes (the final block can be
  /// partial).  Stays fixed when bookkeeping later inflates a request's
  /// prompt (preemption folds generated tokens in); 0 = unknown, treat every
  /// hash as one full block of the prompt.
  std::size_t covered_tokens = 0;
  std::vector<std::uint64_t> hashes;  ///< rolling hash per shareable block

  [[nodiscard]] bool empty() const { return hashes.empty(); }
  /// Blocks of the whole prompt: ceil(covered_tokens / block_tokens), or the
  /// hash count when the prompt length is unknown.
  [[nodiscard]] std::size_t blocks() const {
    return covered_tokens > 0 && block_tokens > 0
               ? (covered_tokens + block_tokens - 1) / block_tokens
               : hashes.size();
  }
};

/// Builds the signature of a prompt of `prompt_tokens` tokens whose first
/// `shared_tokens` come from a shared content stream keyed by `content_key`
/// (a system preamble or few-shot prefix); the rest is unique to the
/// request and never hashed.  Deterministic: the same key and lengths
/// produce the same hashes on every replica, which is what makes the
/// fleet-wide index meaningful.
[[nodiscard]] PrefixSignature MakePrefixSignature(std::uint64_t content_key,
                                                  std::size_t shared_tokens,
                                                  std::size_t prompt_tokens,
                                                  std::size_t block_tokens);

struct TimedRequest {
  std::uint64_t id = 0;
  double arrival_seconds = 0;
  std::size_t prompt_tokens = 0;
  std::size_t max_new_tokens = 0;
  std::uint32_t tenant = 0;    ///< which arrival mix produced this request
  std::uint64_t session = 0;   ///< conversation key for affinity routing
  /// Retry metadata: 0 for the original submission; a request re-submitted
  /// after its replica was killed carries attempt+1 (it restarts from the
  /// original prompt — generated-but-undelivered tokens are wasted work).
  std::uint32_t attempt = 0;
  /// Set on a retry whose earlier attempt landed a KV migration on a live
  /// decode replica (false in a generated trace).  Carried like `attempt`,
  /// so the request counts toward DisaggStats::migrated_tpot wherever its
  /// last attempt completes.
  bool migrated = false;
  /// Block-hash signature of the prompt (prefix-cache-aware placement).
  PrefixSignature prefix = {};
};

struct TraceConfig {
  double arrival_rate_per_s = 4.0;  ///< Poisson rate
  std::size_t count = 64;
  std::size_t prompt_min = 64;
  std::size_t prompt_max = 1024;
  std::size_t output_min = 32;
  std::size_t output_max = 512;
  /// Requests are spread round-robin over this many session keys so
  /// affinity routing has spread to work with (0 = one session per request).
  std::size_t sessions = 16;
  /// Fraction of each prompt covered by a shared prefix (system preamble /
  /// few-shot block).  0 disables sharing: every prompt is unique content
  /// and prefix overlap between distinct requests is exactly zero.
  double shared_prefix_fraction = 0;
  /// Distinct shared preambles in the trace; a request's preamble is keyed
  /// by session % prefix_groups, so sharing crosses session boundaries
  /// (the case pure session stickiness cannot exploit).
  std::size_t prefix_groups = 1;
  /// Tokens per signature block (0 = no signatures).  Keep equal to the
  /// replicas' KV block_tokens so one shared signature block equals one
  /// skippable KV block of prefill.  Only shared-preamble blocks are hashed,
  /// so with shared_prefix_fraction = 0 every signature is empty whatever
  /// this is.
  std::size_t prefix_block_tokens = 16;
};

/// Generates a deterministic Poisson-arrival trace (exponential gaps, log-
/// uniform lengths) from the given seed.
std::vector<TimedRequest> GenerateTrace(const TraceConfig& config,
                                        std::uint64_t seed);

/// One tenant's slice of a multi-tenant arrival mix: its own Poisson rate and
/// length distribution, with requests spread over `sessions` conversation
/// keys (session affinity routes all requests of one session together).
struct TenantConfig {
  std::uint32_t tenant = 0;
  TraceConfig trace;
  std::size_t sessions = 8;
};

/// Superposes the per-tenant Poisson processes into one trace, sorted by
/// arrival, with globally unique ids and deterministic session assignment.
std::vector<TimedRequest> GenerateMultiTenantTrace(
    const std::vector<TenantConfig>& tenants, std::uint64_t seed);

/// One finished request's timing; a fleet adds it to its latency samples
/// at harvest and keeps no copy.
struct RequestTiming {
  std::uint64_t id = 0;
  double arrival = 0;
  double first_token = 0;  ///< completion time of the first generated token
  double finish = 0;
  std::size_t generated = 0;
  /// Some attempt of the request landed a KV migration (Request::migrated).
  bool migrated = false;

  [[nodiscard]] double Ttft() const { return first_token - arrival; }
  [[nodiscard]] double Tpot() const {
    return generated > 1 ? (finish - first_token) /
                               static_cast<double>(generated - 1)
                         : 0.0;
  }
  [[nodiscard]] double EndToEnd() const { return finish - arrival; }
};

}  // namespace liquid::serving
