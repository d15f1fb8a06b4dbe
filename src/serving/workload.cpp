#include "serving/workload.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <unordered_map>

namespace liquid::serving {
namespace {

std::size_t LogUniform(Rng& rng, std::size_t lo, std::size_t hi) {
  if (lo >= hi) return lo;
  const double x = rng.Uniform(std::log(static_cast<double>(lo)),
                               std::log(static_cast<double>(hi)));
  return std::clamp(static_cast<std::size_t>(std::exp(x)), lo, hi);
}

/// SplitMix64 finalizer: the avalanche behind every signature hash.  Pure
/// function of its input — signature derivation must never touch the trace
/// RNG, or adding prefixes would perturb arrival times and lengths.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Simulated token at position `t` of a content stream keyed by `key`.
std::uint64_t ContentWord(std::uint64_t key, std::size_t t) {
  return Mix64(key ^ Mix64(static_cast<std::uint64_t>(t)));
}

/// Preamble content key for a trace request (tenant-scoped prefix group).
std::uint64_t SharedContentKey(std::uint32_t tenant, std::uint64_t group) {
  return Mix64(0x5eedf00dull ^ Mix64(tenant) ^ Mix64(group * 0x10001ull));
}

/// Rolling hash of one shared content stream at every block boundary,
/// extended on demand, so a prefix group's preamble is hashed once however
/// many requests carry it.  The chain commits to tokens [0, end): two
/// prompts agree on a hash iff they agree on every token before it —
/// divergence anywhere poisons all later hashes, exactly the semantics a
/// contiguous-prefix cache needs.
class ContentChain {
 public:
  ContentChain(std::uint64_t key, std::size_t block_tokens)
      : key_(key), block_tokens_(block_tokens) {}

  /// Signature of a prompt whose first `shared_tokens` tokens are this
  /// stream's: its wholly shared blocks, plus the partial last block when
  /// the whole prompt is shared.  Any other block holds unique tokens and
  /// can never match another request, so it is not hashed.
  PrefixSignature Sign(std::size_t shared_tokens, std::size_t prompt_tokens) {
    PrefixSignature sig;
    if (block_tokens_ == 0 || prompt_tokens == 0) return sig;
    sig.block_tokens = static_cast<std::uint32_t>(block_tokens_);
    sig.covered_tokens = prompt_tokens;
    shared_tokens = std::min(shared_tokens, prompt_tokens);
    const std::size_t full = shared_tokens / block_tokens_;
    const bool partial =
        shared_tokens == prompt_tokens && prompt_tokens % block_tokens_ != 0;
    for (std::size_t b = boundaries_.size(); b < full; ++b) {
      const std::size_t begin = b * block_tokens_;
      boundaries_.push_back(Roll(After(b), begin, begin + block_tokens_));
    }
    sig.hashes.reserve(full + (partial ? 1 : 0));
    sig.hashes.assign(boundaries_.begin(),
                      boundaries_.begin() + static_cast<std::ptrdiff_t>(full));
    if (partial) {
      sig.hashes.push_back(
          Roll(After(full), full * block_tokens_, prompt_tokens));
    }
    return sig;
  }

 private:
  /// Chain value after the first `blocks` blocks (all grown already).
  std::uint64_t After(std::size_t blocks) const {
    return blocks == 0 ? 0x9e3779b97f4a7c15ull : boundaries_[blocks - 1];
  }
  /// Folds tokens [begin, end) into the chain value `h`.
  std::uint64_t Roll(std::uint64_t h, std::size_t begin,
                     std::size_t end) const {
    for (std::size_t t = begin; t < end; ++t) {
      h = Mix64(h ^ ContentWord(key_, t));
    }
    return h;
  }

  std::uint64_t key_;
  std::size_t block_tokens_;
  std::vector<std::uint64_t> boundaries_;  ///< chain value after block i
};

/// Signs every request of a trace from the sharing knobs of the config that
/// generated it, hashing each prefix group's preamble once.
void SignTrace(std::span<TimedRequest> trace, const TraceConfig& config) {
  const double fraction =
      std::clamp(config.shared_prefix_fraction, 0.0, 1.0);
  const std::size_t groups = std::max<std::size_t>(1, config.prefix_groups);
  std::unordered_map<std::uint64_t, ContentChain> chains;
  for (TimedRequest& r : trace) {
    const std::size_t shared = static_cast<std::size_t>(
        fraction * static_cast<double>(r.prompt_tokens));
    const std::uint64_t key = SharedContentKey(r.tenant, r.session % groups);
    r.prefix = chains.try_emplace(key, key, config.prefix_block_tokens)
                   .first->second.Sign(shared, r.prompt_tokens);
  }
}

/// The trace's arrivals, lengths and sessions, without signatures.
std::vector<TimedRequest> GenerateUnsigned(const TraceConfig& config,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TimedRequest> trace;
  trace.reserve(config.count);
  double clock = 0;
  for (std::size_t i = 0; i < config.count; ++i) {
    // Exponential inter-arrival gap.
    double u = 0;
    while (u == 0) u = rng.NextDouble();
    clock += -std::log(u) / config.arrival_rate_per_s;
    TimedRequest r;
    r.id = i;
    r.arrival_seconds = clock;
    r.prompt_tokens = LogUniform(rng, config.prompt_min, config.prompt_max);
    r.max_new_tokens = LogUniform(rng, config.output_min, config.output_max);
    r.session = config.sessions > 0 ? i % config.sessions : i;
    trace.push_back(r);
  }
  return trace;
}

}  // namespace

PrefixSignature MakePrefixSignature(std::uint64_t content_key,
                                    std::size_t shared_tokens,
                                    std::size_t prompt_tokens,
                                    std::size_t block_tokens) {
  return ContentChain(content_key, block_tokens)
      .Sign(shared_tokens, prompt_tokens);
}

std::vector<TimedRequest> GenerateTrace(const TraceConfig& config,
                                        std::uint64_t seed) {
  std::vector<TimedRequest> trace = GenerateUnsigned(config, seed);
  SignTrace(trace, config);
  return trace;
}

std::vector<TimedRequest> GenerateMultiTenantTrace(
    const std::vector<TenantConfig>& tenants, std::uint64_t seed) {
  std::vector<TimedRequest> merged;
  std::uint64_t next_id = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantConfig& tenant = tenants[t];
    std::vector<TimedRequest> trace = GenerateUnsigned(
        tenant.trace, seed + 0x9e3779b97f4a7c15ull * (t + 1));
    Rng session_rng(seed ^ (0xc2b2ae3d27d4eb4full * (t + 1)));
    const std::size_t sessions = std::max<std::size_t>(1, tenant.sessions);
    for (TimedRequest& r : trace) {
      r.id = next_id++;
      r.tenant = tenant.tenant;
      // Stable session key unique across tenants.
      r.session = (static_cast<std::uint64_t>(tenant.tenant) << 32) |
                  static_cast<std::uint64_t>(
                      session_rng.Int(0, static_cast<std::int64_t>(sessions) - 1));
    }
    // Sign after the remap: preamble sharing is tenant-scoped (one tenant's
    // few-shot block never matches another's) and keyed by the new session.
    SignTrace(trace, tenant.trace);
    merged.insert(merged.end(), std::make_move_iterator(trace.begin()),
                  std::make_move_iterator(trace.end()));
  }
  std::sort(merged.begin(), merged.end(),
            [](const TimedRequest& a, const TimedRequest& b) {
              return a.arrival_seconds != b.arrival_seconds
                         ? a.arrival_seconds < b.arrival_seconds
                         : a.id < b.id;
            });
  return merged;
}

}  // namespace liquid::serving
