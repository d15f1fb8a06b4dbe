// KV export/import round-trips (the block-manager half of simulated KV
// migration): exporting must free exactly the blocks the sequence owned,
// and importing must rebuild the sequence with identical token count and
// block count on another manager, leaving both pools' accounting exact.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "serving/kv_cache.hpp"

namespace liquid::serving {
namespace {

TEST(KvExportImportTest, RoundTripPreservesTokensAndBlocks) {
  KvBlockManager src(32, 16);
  ASSERT_TRUE(src.AddSequence(7, 40));  // 3 blocks
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(src.AppendToken(7));
  ASSERT_EQ(src.SequenceTokens(7), 49u);
  ASSERT_EQ(src.used_blocks(), 4u);  // ceil(49/16)

  const KvExport moved = src.Export(7);
  EXPECT_EQ(moved.id, 7u);
  EXPECT_EQ(moved.tokens, 49u);
  EXPECT_EQ(moved.blocks, 4u);
  EXPECT_EQ(src.used_blocks(), 0u);  // everything freed at the source
  EXPECT_FALSE(src.HasSequence(7));

  KvBlockManager dst(32, 16);
  ASSERT_TRUE(dst.Import(moved));
  EXPECT_EQ(dst.SequenceTokens(7), 49u);
  EXPECT_EQ(dst.used_blocks(), 4u);
  // The imported sequence behaves like any other: appends keep working.
  EXPECT_TRUE(dst.AppendToken(7));
  EXPECT_EQ(dst.SequenceTokens(7), 50u);
}

TEST(KvExportImportTest, ExportReturnsExactlyBlocksNeeded) {
  // Token counts on, just past and just short of a block boundary, grown
  // by appends so the tail is not where AddSequence left it.
  for (const std::size_t prompt : {std::size_t{0}, std::size_t{1},
                                   std::size_t{15}, std::size_t{16},
                                   std::size_t{17}, std::size_t{40}}) {
    for (std::size_t appends = 0; appends < 18; appends += 5) {
      SCOPED_TRACE(testing::Message() << prompt << " + " << appends);
      KvBlockManager pool(16, 16);
      ASSERT_TRUE(pool.AddSequence(1, 20));  // a neighbour that stays
      ASSERT_TRUE(pool.AddSequence(2, prompt));
      for (std::size_t i = 0; i < appends; ++i) {
        ASSERT_TRUE(pool.AppendToken(2));
      }
      const std::size_t free_before = pool.free_blocks();
      const KvExport moved = pool.Export(2);
      EXPECT_EQ(moved.tokens, prompt + appends);
      EXPECT_EQ(moved.blocks, pool.BlocksNeeded(moved.tokens));
      EXPECT_EQ(pool.free_blocks() - free_before, moved.blocks);
      EXPECT_EQ(pool.used_blocks(), 2u);  // the neighbour's
    }
  }
}

TEST(KvExportImportTest, ReimportIntoTheSamePoolReusesItsBlocksLifo) {
  KvBlockManager pool(16, 16);
  ASSERT_TRUE(pool.AddSequence(1, 20));  // blocks 0, 1
  ASSERT_TRUE(pool.AddSequence(2, 40));  // blocks 2, 3, 4
  const std::vector<std::size_t> neighbour = pool.BlockTable(1);
  const KvExport moved = pool.Export(2);
  ASSERT_TRUE(pool.Import(moved));
  // The exported table was pushed in order, so the import pops it reversed;
  // the other sequence keeps its blocks.
  EXPECT_EQ(pool.BlockTable(2), (std::vector<std::size_t>{4, 3, 2}));
  EXPECT_EQ(pool.SequenceTokens(2), 40u);
  EXPECT_EQ(pool.BlockTable(1), neighbour);
  EXPECT_EQ(pool.used_blocks(), 5u);
}

TEST(KvExportImportTest, ImportFailsCleanlyOnOomAndDuplicate) {
  KvBlockManager src(8, 16);
  ASSERT_TRUE(src.AddSequence(3, 100));  // 7 blocks
  const KvExport moved = src.Export(3);

  KvBlockManager tiny(4, 16);
  EXPECT_FALSE(tiny.Import(moved));  // 7 > 4 blocks
  EXPECT_EQ(tiny.used_blocks(), 0u);

  KvBlockManager dst(16, 16);
  ASSERT_TRUE(dst.Import(moved));
  EXPECT_FALSE(dst.Import(moved));  // id already present
  EXPECT_EQ(dst.used_blocks(), 7u);
}

TEST(KvExportImportTest, ExportOfUnknownSequenceIsEmpty) {
  KvBlockManager pool(4, 16);
  const KvExport none = pool.Export(99);
  EXPECT_EQ(none.id, 99u);
  EXPECT_EQ(none.tokens, 0u);
  EXPECT_EQ(none.blocks, 0u);
  EXPECT_EQ(pool.used_blocks(), 0u);
}

}  // namespace
}  // namespace liquid::serving
