// PrefixIndex's flat open-addressing table against a std::map oracle, and
// the index lifecycle through KvBlockManager.  The table's probe runs, wrap
// past the last slot, backward-shift deletion and growth are invisible to
// callers, so every check here is on the public multiset semantics: a hash is
// present exactly while its reference count is above zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "serving/kv_cache.hpp"
#include "serving/workload.hpp"

namespace liquid::serving {
namespace {

using Oracle = std::map<std::uint64_t, std::uint32_t>;

std::size_t OracleRun(const Oracle& oracle,
                      std::span<const std::uint64_t> hashes) {
  std::size_t run = 0;
  while (run < hashes.size() && oracle.contains(hashes[run])) ++run;
  return run;
}

// Keys whose home slot is one of the last three slots of every table up to
// 2^12 slots: their probe runs wrap past the end of the table, and deleting
// one shifts entries back across the wrap.
std::vector<std::uint64_t> WrappingKeys(std::size_t count,
                                        std::mt19937_64& rng) {
  constexpr std::size_t kSlots = std::size_t{1} << 12;
  std::vector<std::uint64_t> keys;
  while (keys.size() < count) {
    const std::uint64_t k = rng();
    if (PrefixIndex::HomeSlot(k, kSlots) >= kSlots - 3) keys.push_back(k);
  }
  return keys;
}

void ExpectMatches(const PrefixIndex& index, const Oracle& oracle,
                   const std::vector<std::uint64_t>& pool,
                   const std::vector<std::uint64_t>& absent) {
  ASSERT_EQ(index.size(), oracle.size());
  ASSERT_EQ(index.empty(), oracle.empty());
  for (const std::uint64_t k : pool) {
    ASSERT_EQ(index.Contains(k), oracle.contains(k)) << "key " << k;
  }
  for (const std::uint64_t k : absent) ASSERT_FALSE(index.Contains(k));
  ASSERT_EQ(index.SharedPrefixBlocks(pool), OracleRun(oracle, pool));
  // A query ordered by the oracle's resident keys: a full run, then the
  // first absent pool key stops it.
  std::vector<std::uint64_t> resident_first;
  for (const auto& [k, count] : oracle) resident_first.push_back(k);
  const std::size_t resident = resident_first.size();
  resident_first.insert(resident_first.end(), pool.begin(), pool.end());
  ASSERT_EQ(index.SharedPrefixBlocks(resident_first),
            OracleRun(oracle, resident_first));
  ASSERT_GE(index.SharedPrefixBlocks(resident_first), resident);
}

TEST(PrefixIndexTest, RandomAddRemoveMatchesMapOracle) {
  std::mt19937_64 rng(20240514);
  std::vector<std::uint64_t> pool = WrappingKeys(48, rng);
  for (std::uint64_t k = 0; k < 24; ++k) pool.push_back(k);  // tiny keys
  while (pool.size() < 240) pool.push_back(rng());
  std::shuffle(pool.begin(), pool.end(), rng);
  const std::vector<std::uint64_t> absent = WrappingKeys(8, rng);

  PrefixIndex index;
  Oracle oracle;
  std::size_t growths = 0;  // capacity changes after the first allocation
  std::size_t last_slots = 0;
  bool wrapped = false;
  constexpr int kOps = 120000;
  for (int op = 0; op < kOps; ++op) {
    // Alternate filling and draining phases so the table grows, then keys'
    // counts climb above 1 and fall back to 0 again.
    const bool filling = (op / 6000) % 2 == 0;
    const bool add = std::bernoulli_distribution(filling ? 0.7 : 0.3)(rng);
    const std::uint64_t k = pool[rng() % pool.size()];
    if (add) {
      index.Add(k);
      ++oracle[k];
    } else {
      index.Remove(k);
      const auto it = oracle.find(k);
      if (it != oracle.end() && --it->second == 0) oracle.erase(it);
    }
    const std::size_t slots = index.capacity();
    if (slots != last_slots) {
      if (last_slots != 0) ++growths;
      last_slots = slots;
    }
    // More residents homed in the last three slots than those slots hold:
    // the run spills past the end of the table into slot 0 onward.
    if (slots > 0 &&
        std::count_if(oracle.begin(), oracle.end(), [&](const auto& e) {
          return PrefixIndex::HomeSlot(e.first, slots) >= slots - 3;
        }) > 3) {
      wrapped = true;
    }
    ExpectMatches(index, oracle, pool, absent);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged at op " << op;
    }
  }
  EXPECT_GE(growths, 3u);
  EXPECT_TRUE(wrapped) << "no probe run wrapped past the last slot";
}

TEST(PrefixIndexTest, CollidingKeysSurviveWrapAroundDeletion) {
  // Every key homes to the table's last slot, so the probe run starts there
  // and wraps to slot 0 onward.  Deleting from the middle of the run must
  // shift later entries back across the wrap without losing any.
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> keys;
  while (keys.size() < 10) {
    const std::uint64_t k = rng();
    if (PrefixIndex::HomeSlot(k, 16) == 15) keys.push_back(k);
  }
  PrefixIndex index;
  for (const std::uint64_t k : keys) index.Add(k);
  ASSERT_EQ(index.capacity(), 16u);
  ASSERT_EQ(index.size(), keys.size());
  for (std::size_t victim = 0; victim < keys.size(); victim += 2) {
    index.Remove(keys[victim]);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(index.Contains(keys[i]), i > victim || i % 2 == 1)
          << "after removing " << victim << ", key " << i;
    }
  }
  EXPECT_EQ(index.size(), keys.size() / 2);
  for (std::size_t i = 1; i < keys.size(); i += 2) index.Remove(keys[i]);
  EXPECT_TRUE(index.empty());
  for (const std::uint64_t k : keys) EXPECT_FALSE(index.Contains(k));
}

TEST(PrefixIndexTest, RemoveOfAbsentHashChangesNothing) {
  PrefixIndex never_grown;
  never_grown.Remove(42);
  EXPECT_TRUE(never_grown.empty());
  EXPECT_EQ(never_grown.size(), 0u);
  EXPECT_EQ(never_grown.capacity(), 0u);  // nothing allocated
  EXPECT_FALSE(never_grown.Contains(42));

  PrefixIndex index;
  index.Add(1);
  index.Add(2);
  index.Add(2);
  const std::size_t slots = index.capacity();
  index.Remove(3);
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.capacity(), slots);
  index.Remove(2);  // count 2 -> 1: still resident
  EXPECT_TRUE(index.Contains(2));
  index.Remove(2);
  index.Remove(2);  // already gone: a no-op, not an underflow
  EXPECT_FALSE(index.Contains(2));
  EXPECT_TRUE(index.Contains(1));
  EXPECT_EQ(index.size(), 1u);
  index.Add(2);  // a fresh count starts at one again
  index.Remove(2);
  EXPECT_FALSE(index.Contains(2));
}

TEST(PrefixIndexTest, KvLifecycleDrainsBothIndexesToZero) {
  // A seeded mix of admissions, (re-)registrations, forks, migrations from
  // `src` into `dst`, and frees over real signatures with shared preambles.
  // While sequences live, each index holds exactly the union of their
  // registered hashes; once all are freed, both are empty.
  constexpr std::size_t kBlockTokens = 16;
  KvBlockManager src(4096, kBlockTokens);
  KvBlockManager dst(4096, kBlockTokens);
  std::mt19937_64 rng(99);
  std::set<std::uint64_t> every_hash;
  std::vector<SeqId> live_src;
  std::vector<SeqId> live_dst;
  SeqId next_id = 1;
  std::size_t imports = 0;

  const auto signature = [&] {
    const std::uint64_t preamble = rng() % 4;  // 4 shared preambles
    const std::size_t shared = 64 * (1 + rng() % 4);
    const std::size_t prompt = shared + 16 * (rng() % 8) + rng() % 16;
    PrefixSignature sig =
        MakePrefixSignature(preamble, shared, prompt, kBlockTokens);
    every_hash.insert(sig.hashes.begin(), sig.hashes.end());
    return std::pair{prompt, sig};
  };
  const auto pick = [&](std::vector<SeqId>& live) {
    const std::size_t i = rng() % live.size();
    const SeqId id = live[i];
    live[i] = live.back();
    live.pop_back();
    return id;
  };
  const auto check = [&](const KvBlockManager& pool,
                         const std::vector<SeqId>& live) {
    std::set<std::uint64_t> registered;
    for (const SeqId id : live) {
      const auto hashes = pool.RegisteredPrefix(id);
      registered.insert(hashes.begin(), hashes.end());
    }
    ASSERT_EQ(pool.prefix_index().size(), registered.size());
    for (const std::uint64_t h : registered) {
      ASSERT_TRUE(pool.prefix_index().Contains(h));
    }
  };

  for (int op = 0; op < 2000; ++op) {
    const int kind = static_cast<int>(rng() % 8);
    if (kind <= 1 || live_src.empty()) {  // admit + register
      const SeqId id = next_id++;
      const auto [prompt, sig] = signature();
      if (!src.AddSequence(id, prompt)) continue;
      src.RegisterPrefix(id, sig.hashes);
      live_src.push_back(id);
    } else if (kind == 2) {  // re-register with a different signature
      const SeqId id = live_src[rng() % live_src.size()];
      src.RegisterPrefix(id, signature().second.hashes);
    } else if (kind == 3) {  // a second holder of a live signature
      const SeqId twin = live_src[rng() % live_src.size()];
      const auto held = src.RegisteredPrefix(twin);
      // Copied first: AddSequence may move the twin and its hashes.
      const std::vector<std::uint64_t> hashes(held.begin(), held.end());
      const SeqId id = next_id++;
      if (!src.AddSequence(id, src.SequenceTokens(twin))) continue;
      src.RegisterPrefix(id, hashes);
      live_src.push_back(id);
    } else if (kind == 4) {  // migrate src -> dst
      const SeqId id = pick(live_src);
      const std::vector<std::uint64_t> before(src.RegisteredPrefix(id).begin(),
                                              src.RegisteredPrefix(id).end());
      const KvExport kv = src.Export(id);
      ASSERT_EQ(kv.prefix_hashes, before);  // exported hashes are unchanged
      ASSERT_FALSE(src.HasSequence(id));
      if (dst.Import(kv)) {
        live_dst.push_back(id);
        ++imports;
      }
    } else {  // free on either side
      if (!live_dst.empty() && rng() % 2 == 0) {
        dst.Free(pick(live_dst));
      } else {
        src.Free(pick(live_src));
      }
    }
    check(src, live_src);
    check(dst, live_dst);
    if (::testing::Test::HasFatalFailure()) FAIL() << "diverged at op " << op;
  }
  EXPECT_GT(imports, 0u);
  while (!live_src.empty()) src.Free(pick(live_src));
  while (!live_dst.empty()) dst.Free(pick(live_dst));
  EXPECT_EQ(src.prefix_index().size(), 0u);
  EXPECT_EQ(dst.prefix_index().size(), 0u);
  EXPECT_TRUE(src.prefix_index().empty());
  EXPECT_TRUE(dst.prefix_index().empty());
  for (const std::uint64_t h : every_hash) {
    EXPECT_FALSE(src.prefix_index().Contains(h));
    EXPECT_FALSE(dst.prefix_index().Contains(h));
  }
  EXPECT_EQ(src.free_blocks(), src.total_blocks());
  EXPECT_EQ(dst.free_blocks(), dst.total_blocks());
}

}  // namespace
}  // namespace liquid::serving
