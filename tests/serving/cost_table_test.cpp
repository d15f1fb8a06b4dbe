// CostTable memo contract: each key below kCapacity is priced once and then
// served from its page; a cost of 0 is a priced value, not the "empty"
// sentinel; keys at or past kCapacity bypass the memo; and pages, including
// their boundary slots, never alias one another.

#include "serving/cost_table.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace liquid::serving {
namespace {

/// A pure cost f(m) = 0.5 * m + 1 that counts how often it is invoked.
struct CountingCost {
  std::size_t* calls;
  double operator()(std::size_t m) const {
    ++*calls;
    return 0.5 * static_cast<double>(m) + 1.0;
  }
};

TEST(CostTableTest, PricesEachKeyOnce) {
  CostTable table;
  std::size_t calls = 0;
  const CountingCost cost{&calls};
  for (int round = 0; round < 3; ++round) {
    for (std::size_t m = 0; m < 40; ++m) {
      EXPECT_EQ(table.Get(m, cost), 0.5 * static_cast<double>(m) + 1.0) << m;
    }
  }
  EXPECT_EQ(calls, 40u);
}

TEST(CostTableTest, ZeroCostIsStoredNotRepriced) {
  // -1 marks an unpriced slot; a genuine 0 (an empty step) must stick.
  CostTable table;
  std::size_t calls = 0;
  const auto zero = [&calls](std::size_t) {
    ++calls;
    return 0.0;
  };
  EXPECT_EQ(table.Get(7, zero), 0.0);
  EXPECT_EQ(table.Get(7, zero), 0.0);
  EXPECT_EQ(calls, 1u);
}

TEST(CostTableTest, KeysAtOrPastCapacityAreComputedEveryTime) {
  CostTable table;
  std::size_t calls = 0;
  const CountingCost cost{&calls};
  const std::size_t keys[] = {CostTable::kCapacity, CostTable::kCapacity + 1,
                              CostTable::kCapacity * 4};
  for (const std::size_t m : keys) {
    EXPECT_EQ(table.Get(m, cost), 0.5 * static_cast<double>(m) + 1.0);
    EXPECT_EQ(table.Get(m, cost), 0.5 * static_cast<double>(m) + 1.0);
  }
  EXPECT_EQ(calls, 6u);
  // The last cacheable key is still memoised.
  const std::size_t last = CostTable::kCapacity - 1;
  table.Get(last, cost);
  table.Get(last, cost);
  EXPECT_EQ(calls, 7u);
}

TEST(CostTableTest, PageBoundarySlotsHoldTheirOwnValues) {
  // Keys on both sides of each page edge land in different pages (or the
  // first/last slot of one); every one must read back its own price.
  constexpr std::size_t kSlots = CostTable::kPageSlots;
  const std::vector<std::size_t> keys = {0,
                                         kSlots - 1,
                                         kSlots,
                                         kSlots + 1,
                                         2 * kSlots - 1,
                                         2 * kSlots,
                                         CostTable::kCapacity - kSlots,
                                         CostTable::kCapacity - 1};
  CostTable table;
  std::size_t calls = 0;
  const auto own = [&calls](std::size_t m) {
    ++calls;
    return static_cast<double>(m) * 3.0 + 0.25;
  };
  for (const std::size_t m : keys) table.Get(m, own);
  ASSERT_EQ(calls, keys.size());
  // A cost that would disagree proves the reads come from the memo.
  const auto wrong = [](std::size_t) { return -5.0; };
  for (const std::size_t m : keys) {
    EXPECT_EQ(table.Get(m, wrong), static_cast<double>(m) * 3.0 + 0.25) << m;
  }
}

TEST(CostTableTest, UnpricedNeighbourInAnAllocatedPageIsPricedOnDemand) {
  // Allocating a page for one key must not pre-fill its neighbours.
  CostTable table;
  const auto first = [](std::size_t) { return 2.0; };
  EXPECT_EQ(table.Get(100, first), 2.0);
  std::size_t calls = 0;
  const CountingCost cost{&calls};
  EXPECT_EQ(table.Get(101, cost), 0.5 * 101 + 1.0);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(table.Get(100, cost), 2.0);
  EXPECT_EQ(calls, 1u);
}

TEST(CostTableTest, SeparateTablesDoNotShareSlots) {
  CostTable a;
  CostTable b;
  EXPECT_EQ(a.Get(3, [](std::size_t) { return 1.5; }), 1.5);
  EXPECT_EQ(b.Get(3, [](std::size_t) { return 4.5; }), 4.5);
  EXPECT_EQ(a.Get(3, [](std::size_t) { return 9.0; }), 1.5);
  EXPECT_EQ(b.Get(3, [](std::size_t) { return 9.0; }), 4.5);
}

}  // namespace
}  // namespace liquid::serving
