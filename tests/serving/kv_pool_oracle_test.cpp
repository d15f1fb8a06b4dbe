// Oracle test for KvBlockManager's bookkeeping: a seeded random mix of every
// mutating operation drives the real manager and a reference copy of the
// straightforward per-block design (a node map of sequences, one allocator
// call per block).  After every operation both must agree on every block
// table, every counter and the prefix index, so the bulk block moves and the
// flat sequence table change no block id a caller can see; and the real
// manager must keep one owner per block.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serving/kv_cache.hpp"
#include "util/rng.hpp"

namespace liquid::serving {
namespace {

/// The per-block reference: every block is allocated and released on its own.
class ReferenceKvBlockManager {
 public:
  ReferenceKvBlockManager(std::size_t total_blocks, std::size_t block_tokens)
      : block_tokens_(block_tokens) {
    for (std::size_t b = total_blocks; b-- > 0;) free_list_.push_back(b);
  }

  bool AddSequence(SeqId id, std::size_t prompt_tokens) {
    if (sequences_.contains(id)) return false;
    const std::size_t need = BlocksNeeded(prompt_tokens);
    if (free_list_.size() < need) return false;
    Sequence seq;
    seq.tokens = prompt_tokens;
    for (std::size_t i = 0; i < need; ++i) seq.blocks.push_back(*AllocBlock());
    sequences_.emplace(id, std::move(seq));
    return true;
  }

  bool AppendToken(SeqId id) {
    const auto it = sequences_.find(id);
    if (it == sequences_.end()) return false;
    Sequence& seq = it->second;
    if (seq.tokens % block_tokens_ == 0 || seq.blocks.empty()) {
      const auto block = AllocBlock();
      if (!block) return false;
      seq.blocks.push_back(*block);
    }
    ++seq.tokens;
    return true;
  }

  void Free(SeqId id) {
    const auto it = sequences_.find(id);
    if (it == sequences_.end()) return;
    Unregister(it->second);
    Erase(it);
  }

  KvExport Export(SeqId id) {
    KvExport out;
    out.id = id;
    const auto it = sequences_.find(id);
    if (it == sequences_.end()) return out;
    out.tokens = it->second.tokens;
    out.blocks = it->second.blocks.size();
    out.prefix_hashes = it->second.prefix_hashes;
    Unregister(it->second);
    Erase(it);
    return out;
  }

  bool Import(const KvExport& exported) {
    if (!AddSequence(exported.id, exported.tokens)) return false;
    RegisterPrefix(exported.id, exported.prefix_hashes);
    return true;
  }

  void RegisterPrefix(SeqId id, std::span<const std::uint64_t> hashes) {
    const auto it = sequences_.find(id);
    if (it == sequences_.end()) return;
    Unregister(it->second);
    it->second.prefix_hashes.assign(hashes.begin(), hashes.end());
    for (const std::uint64_t h : hashes) prefix_index_.Add(h);
  }

  [[nodiscard]] std::span<const std::uint64_t> RegisteredPrefix(
      SeqId id) const {
    const auto it = sequences_.find(id);
    if (it == sequences_.end()) return {};
    return it->second.prefix_hashes;
  }
  [[nodiscard]] const PrefixIndex& prefix_index() const {
    return prefix_index_;
  }
  [[nodiscard]] std::size_t free_blocks() const { return free_list_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& free_list() const {
    return free_list_;
  }
  [[nodiscard]] bool HasSequence(SeqId id) const {
    return sequences_.contains(id);
  }
  [[nodiscard]] std::size_t SequenceTokens(SeqId id) const {
    const auto it = sequences_.find(id);
    return it == sequences_.end() ? 0 : it->second.tokens;
  }
  [[nodiscard]] std::vector<std::size_t> BlockTable(SeqId id) const {
    const auto it = sequences_.find(id);
    return it == sequences_.end() ? std::vector<std::size_t>{}
                                  : it->second.blocks;
  }

 private:
  struct Sequence {
    std::vector<std::size_t> blocks;
    std::size_t tokens = 0;
    std::vector<std::uint64_t> prefix_hashes;
  };
  using SequenceMap = std::unordered_map<SeqId, Sequence>;

  [[nodiscard]] std::size_t BlocksNeeded(std::size_t tokens) const {
    return (tokens + block_tokens_ - 1) / block_tokens_;
  }
  std::optional<std::size_t> AllocBlock() {
    if (free_list_.empty()) return std::nullopt;
    const std::size_t block = free_list_.back();
    free_list_.pop_back();
    return block;
  }
  void Unregister(const Sequence& seq) {
    for (const std::uint64_t h : seq.prefix_hashes) prefix_index_.Remove(h);
  }
  void Erase(SequenceMap::iterator it) {
    for (const std::size_t block : it->second.blocks) {
      free_list_.push_back(block);
    }
    sequences_.erase(it);
  }

  std::size_t block_tokens_;
  std::vector<std::size_t> free_list_;
  SequenceMap sequences_;
  PrefixIndex prefix_index_;
};

constexpr std::size_t kPoolBlocks = 48;
constexpr std::size_t kBlockTokens = 4;
constexpr SeqId kIds = 24;            // ids 0..23: live, dead and unknown
constexpr std::uint64_t kHashes = 12;  // small alphabet: hashes overlap

/// Two pools that sequences migrate between, each as the real manager and
/// its reference twin.
struct Pools {
  KvBlockManager real[2] = {{kPoolBlocks, kBlockTokens},
                            {kPoolBlocks, kBlockTokens}};
  ReferenceKvBlockManager ref[2] = {{kPoolBlocks, kBlockTokens},
                                    {kPoolBlocks, kBlockTokens}};
};

std::vector<std::uint64_t> RandomHashes(Rng& rng) {
  std::vector<std::uint64_t> hashes(rng.Below(6));
  for (std::uint64_t& h : hashes) h = 1000 + rng.Below(kHashes);
  return hashes;
}

void ExpectSame(const KvBlockManager& real, const ReferenceKvBlockManager& ref,
                const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(real.free_blocks(), ref.free_blocks());
  ASSERT_TRUE(std::ranges::equal(real.free_list(), ref.free_list()))
      << "free lists differ";
  std::unordered_set<std::size_t> held;  // every block some sequence holds
  std::size_t held_count = 0;
  for (SeqId id = 0; id < kIds; ++id) {
    ASSERT_EQ(real.HasSequence(id), ref.HasSequence(id)) << "id " << id;
    ASSERT_EQ(real.SequenceTokens(id), ref.SequenceTokens(id)) << "id " << id;
    ASSERT_EQ(real.BlockTable(id), ref.BlockTable(id)) << "id " << id;
    const auto a = real.RegisteredPrefix(id);
    const auto b = ref.RegisteredPrefix(id);
    ASSERT_EQ(std::vector<std::uint64_t>(a.begin(), a.end()),
              std::vector<std::uint64_t>(b.begin(), b.end()))
        << "id " << id;
    held.insert(real.BlockTable(id).begin(), real.BlockTable(id).end());
    held_count += real.BlockTable(id).size();
  }
  // One owner per block: no id in two tables (or twice in one), every used
  // block in some table, and every block either used or free.
  ASSERT_EQ(held.size(), held_count) << "a block has two owners";
  ASSERT_EQ(held.size(), real.used_blocks());
  ASSERT_EQ(real.used_blocks() + real.free_blocks(), real.total_blocks());
  const PrefixIndex& x = real.prefix_index();
  const PrefixIndex& y = ref.prefix_index();
  ASSERT_EQ(x.size(), y.size());
  ASSERT_EQ(x.epoch(), y.epoch());
  // Every leading run a signature over the alphabet can have.
  std::vector<std::uint64_t> signature;
  for (std::uint64_t h = 0; h < kHashes; ++h) {
    signature.push_back(1000 + h);
    ASSERT_EQ(x.Contains(1000 + h), y.Contains(1000 + h)) << "hash " << h;
    ASSERT_EQ(x.SharedPrefixBlocks(signature), y.SharedPrefixBlocks(signature));
    const std::uint64_t one[] = {1000 + h};
    ASSERT_EQ(x.SharedPrefixBlocks(one), y.SharedPrefixBlocks(one));
  }
}

/// How often the reference took each path the mix is meant to reach.
struct Coverage {
  std::size_t adds = 0, appends = 0, append_ooms = 0, frees = 0,
              migrations = 0, registrations = 0, second_holders = 0;
};

/// Runs `ops` random operations on seed `seed`, comparing the two managers
/// after each, and returns the paths taken.
Coverage RunMix(std::uint64_t seed, std::size_t ops) {
  Rng rng(seed);
  Pools pools;
  Coverage seen;
  for (std::size_t step = 0; step < ops; ++step) {
    const std::size_t p = rng.Below(2);
    KvBlockManager& real = pools.real[p];
    ReferenceKvBlockManager& ref = pools.ref[p];
    const SeqId id = rng.Below(kIds);
    const std::uint64_t kind = rng.Below(100);
    std::string what;
    if (kind < 22) {
      const std::size_t tokens = rng.Below(40);
      what = "AddSequence(" + std::to_string(id) + ", " +
             std::to_string(tokens) + ")";
      const bool ok = ref.AddSequence(id, tokens);
      EXPECT_EQ(real.AddSequence(id, tokens), ok) << what;
      seen.adds += ok;
    } else if (kind < 60) {
      what = "AppendToken(" + std::to_string(id) + ")";
      const bool ok = ref.AppendToken(id);
      EXPECT_EQ(real.AppendToken(id), ok) << what;
      seen.appends += ok;
      seen.append_ooms += !ok && ref.HasSequence(id);
    } else if (kind < 74) {
      what = "Free(" + std::to_string(id) + ")";
      seen.frees += ref.HasSequence(id);
      ref.Free(id);
      real.Free(id);
    } else if (kind < 88) {
      // Migrate to the other pool, sometimes under a new id.
      what = "Export(" + std::to_string(id) + ") to pool " +
             std::to_string(1 - p);
      KvExport a = real.Export(id);
      KvExport b = ref.Export(id);
      EXPECT_EQ(a.id, b.id) << what;
      EXPECT_EQ(a.tokens, b.tokens) << what;
      EXPECT_EQ(a.blocks, b.blocks) << what;
      EXPECT_EQ(a.prefix_hashes, b.prefix_hashes) << what;
      if (rng.Below(4) == 0) a.id = b.id = rng.Below(kIds);
      const bool ok = pools.ref[1 - p].Import(b);
      EXPECT_EQ(pools.real[1 - p].Import(a), ok) << what;
      seen.migrations += ok;
      ExpectSame(pools.real[1 - p], pools.ref[1 - p], what);
    } else {
      const std::vector<std::uint64_t> hashes = RandomHashes(rng);
      what = "RegisterPrefix(" + std::to_string(id) + ")";
      if (ref.HasSequence(id)) {
        ++seen.registrations;
        // A hash the index holds for another sequence makes this one a
        // second holder: the index must keep the hash until both drop it.
        const auto own = ref.RegisteredPrefix(id);
        seen.second_holders += std::ranges::any_of(hashes, [&](auto h) {
          return ref.prefix_index().Contains(h) &&
                 std::ranges::find(own, h) == own.end();
        });
      }
      ref.RegisterPrefix(id, hashes);
      real.RegisterPrefix(id, hashes);
    }
    ExpectSame(real, ref, "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + ": " + what);
    if (::testing::Test::HasFailure()) break;
  }
  return seen;
}

TEST(KvPoolOracleTest, RandomMixKeepsEveryBlockTableIdentical) {
  Coverage total;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Coverage c = RunMix(seed, 4000);
    if (HasFailure()) return;
    total.adds += c.adds;
    total.appends += c.appends;
    total.append_ooms += c.append_ooms;
    total.frees += c.frees;
    total.migrations += c.migrations;
    total.registrations += c.registrations;
    total.second_holders += c.second_holders;
  }
  // The mix reached every path the oracle is there to check.
  EXPECT_GT(total.adds, 100u);
  EXPECT_GT(total.appends, 1000u);
  EXPECT_GT(total.append_ooms, 100u);
  EXPECT_GT(total.frees, 100u);
  EXPECT_GT(total.migrations, 100u);
  EXPECT_GT(total.registrations, 100u);
  EXPECT_GT(total.second_holders, 100u);
}

TEST(KvPoolOracleTest, AppendTokensIsRoundsOfAppendToken) {
  // A batch of live sequences in random order gains k tokens each: the real
  // manager in one AppendTokens call, the reference in k rounds of one
  // AppendToken per sequence.  When a round would run dry the bulk call must
  // refuse and change nothing, and CoveredRounds must name the last round
  // the free list covers.
  std::size_t bulk = 0, refused = 0, partial = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    KvBlockManager real(kPoolBlocks, kBlockTokens);
    ReferenceKvBlockManager ref(kPoolBlocks, kBlockTokens);
    for (std::size_t step = 0; step < 3000; ++step) {
      const SeqId id = rng.Below(kIds);
      const std::uint64_t kind = rng.Below(100);
      std::string what;
      if (kind < 30) {
        const std::size_t tokens = rng.Below(40);
        what = "AddSequence(" + std::to_string(id) + ")";
        EXPECT_EQ(real.AddSequence(id, tokens), ref.AddSequence(id, tokens));
      } else if (kind < 45) {
        what = "Free(" + std::to_string(id) + ")";
        real.Free(id);
        ref.Free(id);
      } else {
        std::vector<SeqId> batch;
        for (SeqId s = 0; s < kIds; ++s) {
          if (ref.HasSequence(s) && rng.Below(2) == 0) batch.push_back(s);
        }
        for (std::size_t i = batch.size(); i > 1; --i) {
          std::swap(batch[i - 1], batch[rng.Below(i)]);
        }
        const std::size_t k = 1 + rng.Below(3 * kBlockTokens);
        what = "AppendTokens(" + std::to_string(batch.size()) + " seqs, " +
               std::to_string(k) + ")";
        std::vector<std::uint32_t> slots;
        for (const SeqId s : batch) slots.push_back(real.Slot(s));
        ReferenceKvBlockManager trial = ref;
        std::size_t covered = 0;
        for (; covered < k; ++covered) {
          bool round_ok = true;
          for (const SeqId s : batch) round_ok = round_ok && trial.AppendToken(s);
          if (!round_ok) break;
        }
        EXPECT_EQ(real.CoveredRounds(slots, k), covered) << what;
        const bool ok = covered == k;
        EXPECT_EQ(real.AppendTokens(slots, k), ok) << what;
        if (ok) ref = trial;
        bulk += ok && !batch.empty();
        refused += !ok;
        partial += !ok && covered > 0;
      }
      ExpectSame(real, ref, "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) + ": " + what);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(bulk, 1000u);
  EXPECT_GT(refused, 100u);
  EXPECT_GT(partial, 100u);
}

}  // namespace
}  // namespace liquid::serving
