// Tests of the PagedAttention-style block manager: allocation, growth, the
// LIFO order blocks come back in, OOM behaviour, accounting invariants, and
// the edge cases of its flat sequence table and slot reuse.

#include "serving/kv_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace liquid::serving {
namespace {

TEST(KvCacheTest, AllocatesCeilOfPromptBlocks) {
  KvBlockManager m(100, 16);
  EXPECT_TRUE(m.AddSequence(1, 33));  // 3 blocks
  EXPECT_EQ(m.used_blocks(), 3u);
  EXPECT_EQ(m.BlockTable(1).size(), 3u);
  EXPECT_EQ(m.SequenceTokens(1), 33u);
}

TEST(KvCacheTest, AppendAllocatesOnBoundary) {
  KvBlockManager m(100, 4);
  ASSERT_TRUE(m.AddSequence(1, 4));  // exactly 1 full block
  EXPECT_EQ(m.used_blocks(), 1u);
  EXPECT_TRUE(m.AppendToken(1));  // token 5 -> new block
  EXPECT_EQ(m.used_blocks(), 2u);
  EXPECT_TRUE(m.AppendToken(1));  // token 6 -> same block
  EXPECT_EQ(m.used_blocks(), 2u);
}

TEST(KvCacheTest, RejectsWhenPoolExhausted) {
  KvBlockManager m(2, 16);
  EXPECT_FALSE(m.AddSequence(1, 48));  // needs 3 > 2
  EXPECT_EQ(m.used_blocks(), 0u);      // nothing leaked
  EXPECT_TRUE(m.AddSequence(1, 32));
  EXPECT_FALSE(m.AddSequence(2, 1));
}

TEST(KvCacheTest, AppendOomLeavesStateUnchanged) {
  KvBlockManager m(1, 2);
  ASSERT_TRUE(m.AddSequence(1, 2));
  EXPECT_FALSE(m.AppendToken(1));  // would need block 2
  EXPECT_EQ(m.SequenceTokens(1), 2u);
}

TEST(KvCacheTest, FreeReturnsBlocks) {
  KvBlockManager m(10, 16);
  ASSERT_TRUE(m.AddSequence(1, 160));
  EXPECT_EQ(m.free_blocks(), 0u);
  m.Free(1);
  EXPECT_EQ(m.free_blocks(), 10u);
  EXPECT_FALSE(m.HasSequence(1));
}

TEST(KvCacheTest, FreedTableComesBackLifoInTableOrder) {
  KvBlockManager m(10, 4);
  ASSERT_TRUE(m.AddSequence(1, 12));  // the top three free blocks
  ASSERT_TRUE(m.AddSequence(2, 4));
  const std::vector<std::size_t> freed = m.BlockTable(1);
  ASSERT_EQ(freed, (std::vector<std::size_t>{0, 1, 2}));
  m.Free(1);
  // Freed blocks are pushed in table order, so the next sequence pops them
  // last block first, before any block that was never used.
  ASSERT_TRUE(m.AddSequence(3, 16));
  EXPECT_EQ(m.BlockTable(3), (std::vector<std::size_t>{2, 1, 0, 4}));
}

TEST(KvCacheTest, AppendOnBoundaryTakesTheTopFreeBlock) {
  KvBlockManager m(10, 4);
  ASSERT_TRUE(m.AddSequence(1, 8));  // blocks 0, 1
  ASSERT_TRUE(m.AddSequence(2, 4));  // block 2, full
  m.Free(1);
  ASSERT_TRUE(m.AppendToken(2));
  EXPECT_EQ(m.BlockTable(2), (std::vector<std::size_t>{2, 1}));
}

TEST(KvCacheTest, AppendInsidePartlyFilledTailNeedsNoFreeBlock) {
  KvBlockManager m(2, 4);
  ASSERT_TRUE(m.AddSequence(1, 5));  // both blocks, tail 1/4 full
  ASSERT_EQ(m.free_blocks(), 0u);
  const std::vector<std::size_t> table = m.BlockTable(1);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(m.AppendToken(1)) << i;
  EXPECT_EQ(m.SequenceTokens(1), 8u);
  EXPECT_EQ(m.BlockTable(1), table);
  EXPECT_FALSE(m.AppendToken(1));  // the tail is full now
  EXPECT_EQ(m.SequenceTokens(1), 8u);
}

TEST(KvCacheTest, EmptySequenceHoldsNoBlockUntilItsFirstAppend) {
  KvBlockManager m(1, 4);
  ASSERT_TRUE(m.AddSequence(1, 0));
  EXPECT_EQ(m.used_blocks(), 0u);
  ASSERT_TRUE(m.AddSequence(2, 3));  // takes the only block
  EXPECT_FALSE(m.AppendToken(1));    // the first token needs a block
  EXPECT_EQ(m.SequenceTokens(1), 0u);
  EXPECT_TRUE(m.BlockTable(1).empty());
  m.Free(2);
  ASSERT_TRUE(m.AppendToken(1));
  EXPECT_EQ(m.BlockTable(1), (std::vector<std::size_t>{0}));
}

TEST(KvCacheTest, DuplicateIdsRejected) {
  KvBlockManager m(10, 16);
  ASSERT_TRUE(m.AddSequence(1, 16));
  EXPECT_FALSE(m.AddSequence(1, 16));
  EXPECT_FALSE(
      m.Import({.id = 1, .tokens = 32, .blocks = 2, .prefix_hashes = {}}));
  // Neither rejected call touched the live sequence or the pool.
  EXPECT_EQ(m.SequenceTokens(1), 16u);
  EXPECT_EQ(m.used_blocks(), 1u);
}

TEST(KvCacheTest, ExactFillThenDrainCycle) {
  // Property: repeated add/free cycles neither leak nor double-free.
  KvBlockManager m(64, 8);
  for (int round = 0; round < 50; ++round) {
    for (SeqId s = 0; s < 8; ++s) {
      ASSERT_TRUE(m.AddSequence(s, 64));  // 8 blocks each = full pool
    }
    EXPECT_EQ(m.free_blocks(), 0u);
    EXPECT_FALSE(m.AddSequence(100, 1));
    for (SeqId s = 0; s < 8; ++s) m.Free(s);
    EXPECT_EQ(m.free_blocks(), 64u);
  }
}

TEST(KvCacheTest, BlocksNeededHelper) {
  KvBlockManager m(1, 16);
  EXPECT_EQ(m.BlocksNeeded(0), 0u);
  EXPECT_EQ(m.BlocksNeeded(1), 1u);
  EXPECT_EQ(m.BlocksNeeded(16), 1u);
  EXPECT_EQ(m.BlocksNeeded(17), 2u);
}

// Ids sharing one home slot in every sequence table up to 2^10 slots (the
// home slot at 2^10 slots fixes it at each smaller power of two), and that
// slot is the last one: their probe run wraps past the end of the table.
std::vector<SeqId> CollidingIds(std::size_t count) {
  constexpr std::size_t kSlots = std::size_t{1} << 10;
  std::vector<SeqId> ids;
  for (SeqId id = 0; ids.size() < count; ++id) {
    if (FlatKeyTable::HomeSlot(id, kSlots) == kSlots - 1) ids.push_back(id);
  }
  return ids;
}

TEST(KvCacheTest, ReleaseInTheMiddleOfAProbeRunKeepsEveryOtherIdFindable) {
  const std::vector<SeqId> ids = CollidingIds(6);
  for (std::size_t victim = 0; victim < ids.size(); ++victim) {
    SCOPED_TRACE(victim);
    KvBlockManager m(64, 4);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      ASSERT_TRUE(m.AddSequence(ids[k], 4 * (k + 1)));  // k + 1 blocks
    }
    // Free and Export both erase from the table.
    if (victim % 2 == 0) {
      m.Free(ids[victim]);
    } else {
      EXPECT_EQ(m.Export(ids[victim]).blocks, victim + 1);
    }
    EXPECT_FALSE(m.HasSequence(ids[victim]));
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (k == victim) continue;
      EXPECT_TRUE(m.HasSequence(ids[k])) << k;
      EXPECT_EQ(m.SequenceTokens(ids[k]), 4 * (k + 1)) << k;
      EXPECT_EQ(m.BlockTable(ids[k]).size(), k + 1) << k;
      EXPECT_TRUE(m.AppendToken(ids[k])) << k;
    }
    EXPECT_EQ(m.free_blocks(), 64u - (21u - (victim + 1)) - 5u);
  }
}

TEST(KvCacheTest, TableGrowthWithLiveSequencesLosesNothing) {
  constexpr std::size_t kPool = 4096;
  KvBlockManager m(kPool, 16);
  std::vector<SeqId> live;
  const auto expect_all = [&] {
    std::size_t held = 0;
    for (const SeqId id : live) {
      ASSERT_TRUE(m.HasSequence(id)) << id;
      ASSERT_EQ(m.SequenceTokens(id), id % 37 + 1) << id;
      ASSERT_EQ(m.BlockTable(id).size(), m.BlocksNeeded(id % 37 + 1)) << id;
      ASSERT_EQ(m.RegisteredPrefix(id).size(), 1u) << id;
      ASSERT_EQ(m.RegisteredPrefix(id)[0], id) << id;
      held += m.BlockTable(id).size();
    }
    ASSERT_EQ(held + m.free_blocks(), kPool);
  };
  for (SeqId id = 0; id < 300; ++id) {
    ASSERT_TRUE(m.AddSequence(id, id % 37 + 1));
    const std::uint64_t hash[] = {id};
    m.RegisterPrefix(id, hash);
    live.push_back(id);
  }
  expect_all();
  // Free every third, then grow again past the first peak.
  std::erase_if(live, [&](SeqId id) {
    if (id % 3 != 0) return false;
    m.Free(id);
    return true;
  });
  for (SeqId id = 1000; id < 1300; ++id) {
    ASSERT_TRUE(m.AddSequence(id, id % 37 + 1));
    const std::uint64_t hash[] = {id};
    m.RegisterPrefix(id, hash);
    live.push_back(id);
  }
  expect_all();
  EXPECT_EQ(m.prefix_index().size(), live.size());
}

TEST(KvCacheTest, ReusedSlotStartsEmpty) {
  KvBlockManager m(16, 4);
  const std::vector<std::uint64_t> hashes = {7, 8, 9};
  ASSERT_TRUE(m.AddSequence(1, 10));  // 3 blocks
  m.RegisterPrefix(1, hashes);
  ASSERT_TRUE(m.AppendToken(1));
  m.Free(1);
  // The next id takes the freed slot: no tokens, blocks or hashes carry.
  ASSERT_TRUE(m.AddSequence(2, 0));
  EXPECT_EQ(m.SequenceTokens(2), 0u);
  EXPECT_TRUE(m.BlockTable(2).empty());
  EXPECT_TRUE(m.RegisteredPrefix(2).empty());
  EXPECT_TRUE(m.prefix_index().empty());
  ASSERT_TRUE(m.AppendToken(2));
  EXPECT_EQ(m.BlockTable(2).size(), 1u);
  // Export hands the hashes away and frees the slot for the next id.
  m.RegisterPrefix(2, hashes);
  EXPECT_EQ(m.Export(2).prefix_hashes, hashes);
  ASSERT_TRUE(m.AddSequence(3, 5));
  EXPECT_EQ(m.SequenceTokens(3), 5u);
  EXPECT_EQ(m.BlockTable(3).size(), 2u);
  EXPECT_TRUE(m.RegisteredPrefix(3).empty());
  // Two holders of the same hashes leave slots that, once freed, start
  // empty too, for AddSequence and Import alike.
  m.RegisterPrefix(3, hashes);
  ASSERT_TRUE(m.AddSequence(4, 4));
  m.RegisterPrefix(4, hashes);
  m.Free(3);
  m.Free(4);
  EXPECT_EQ(m.free_blocks(), 16u);
  ASSERT_TRUE(m.AddSequence(5, 0));
  ASSERT_TRUE(
      m.Import({.id = 6, .tokens = 0, .blocks = 0, .prefix_hashes = {}}));
  for (const SeqId id : {SeqId{5}, SeqId{6}}) {
    EXPECT_EQ(m.SequenceTokens(id), 0u);
    EXPECT_TRUE(m.BlockTable(id).empty());
    EXPECT_TRUE(m.RegisteredPrefix(id).empty());
  }
  EXPECT_TRUE(m.prefix_index().empty());
}

TEST(KvCacheTest, UnknownIdsAreNoOps) {
  KvBlockManager m(8, 4);
  ASSERT_TRUE(m.AddSequence(1, 6));  // 2 blocks
  const std::uint64_t hash[] = {3};
  m.RegisterPrefix(1, hash);
  const auto expect_unknown = [&](SeqId id) {
    m.Free(id);
    const KvExport e = m.Export(id);
    EXPECT_EQ(e.id, id);
    EXPECT_EQ(e.tokens, 0u);
    EXPECT_EQ(e.blocks, 0u);
    EXPECT_TRUE(e.prefix_hashes.empty());
    EXPECT_FALSE(m.AppendToken(id));
    EXPECT_FALSE(m.HasSequence(id));
    EXPECT_EQ(m.SequenceTokens(id), 0u);
    EXPECT_TRUE(m.BlockTable(id).empty());
    EXPECT_TRUE(m.RegisteredPrefix(id).empty());
  };
  for (const SeqId id : {SeqId{0}, SeqId{2}, ~SeqId{0}}) expect_unknown(id);
  // The live sequence is untouched.
  EXPECT_EQ(m.free_blocks(), 6u);
  EXPECT_EQ(m.SequenceTokens(1), 6u);
  EXPECT_TRUE(m.prefix_index().Contains(3));
  // A freed id is unknown again, and freeing it twice changes nothing.
  m.Free(1);
  expect_unknown(1);
  EXPECT_EQ(m.free_blocks(), 8u);
  EXPECT_TRUE(m.prefix_index().empty());
  // 0 and ~0 are ordinary ids.
  ASSERT_TRUE(m.AddSequence(0, 4));
  ASSERT_TRUE(m.AddSequence(~SeqId{0}, 8));
  EXPECT_EQ(m.BlockTable(0).size(), 1u);
  EXPECT_EQ(m.BlockTable(~SeqId{0}).size(), 2u);
}

}  // namespace
}  // namespace liquid::serving
