// ServingEngine caches the simgpu GEMM walk in per-token-count tables.  A
// cached cost must be the exact double a cold engine computes, whatever order
// the table was filled in and however many threads filled it at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <random>
#include <thread>
#include <vector>

#include "serving/engine.hpp"

namespace liquid::serving {
namespace {

ServingEngine MakeEngine(std::size_t chunk = 0) {
  EngineOptions options;
  options.prefill_chunk_tokens = chunk;
  return ServingEngine(simgpu::HardwareSpec::H800(),
                       SystemPreset::LiquidServe(), LlmConfig::Llama2_7B(),
                       options);
}

/// One cost query against an engine.
using Query = std::function<double(const ServingEngine&)>;

std::vector<Query> Grid() {
  const std::size_t sizes[] = {1, 2, 3, 7, 16, 64, 255, 256, 257, 1000};
  std::vector<Query> grid;
  for (const std::size_t a : sizes) {
    for (const std::size_t b : sizes) {
      grid.push_back([a, b](const ServingEngine& e) {
        return e.DecodeStepSeconds(a, b);
      });
      grid.push_back([a, b](const ServingEngine& e) {
        return e.PrefillChunkSeconds(a, b);
      });
    }
    grid.push_back([a](const ServingEngine& e) {
      return e.PrefillSeconds(1, a);
    });
    grid.push_back([a](const ServingEngine& e) {
      return e.PrefillSeconds(4, a);
    });
  }
  return grid;
}

void ExpectWarmEqualsCold(std::size_t chunk) {
  std::vector<Query> grid = Grid();
  std::shuffle(grid.begin(), grid.end(), std::mt19937(7));
  const ServingEngine warm = MakeEngine(chunk);
  // Two passes: the first fills the tables in shuffled order, the second
  // reads them back.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const ServingEngine cold = MakeEngine(chunk);
      EXPECT_EQ(grid[i](warm), grid[i](cold)) << "query " << i;
    }
  }
}

TEST(EngineCostTableTest, WarmEngineMatchesFreshEngine) {
  ExpectWarmEqualsCold(0);
}

TEST(EngineCostTableTest, WarmChunkedEngineMatchesFreshEngine) {
  ExpectWarmEqualsCold(256);
}

TEST(EngineCostTableTest, ChunkedPrefillIsTheSumOfItsChunks) {
  const ServingEngine engine = MakeEngine(256);
  double sum = 0.0;
  for (std::size_t prior = 0; prior < 1000; prior += 256) {
    sum += engine.PrefillChunkSeconds(std::min<std::size_t>(256, 1000 - prior),
                                      prior);
  }
  EXPECT_EQ(engine.PrefillSeconds(1, 1000), sum);
  EXPECT_EQ(MakeEngine(256).PrefillSeconds(1, 1000), sum);
}

TEST(EngineCostTableTest, ConcurrentQueriesMatchSerialFreshEngines) {
  std::vector<Query> grid = Grid();
  // Past the page directory: priced directly on every call.
  constexpr std::size_t kBeyond = CostTable::kCapacity + 3;
  grid.push_back([](const ServingEngine& e) {
    return e.DecodeStepSeconds(kBeyond, 16);
  });
  grid.push_back([](const ServingEngine& e) {
    return e.PrefillSeconds(1, kBeyond);
  });
  std::vector<double> expected(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    expected[i] = grid[i](MakeEngine());
  }

  constexpr std::size_t kThreads = 4;
  const ServingEngine shared = MakeEngine();
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(grid.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&grid, &shared, &got, t] {
      std::vector<std::size_t> order(grid.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(),
                   std::mt19937(static_cast<unsigned>(t + 1)));
      // Two passes: the first races the other threads to fill the tables,
      // the second reads them back.
      for (int pass = 0; pass < 2; ++pass) {
        for (const std::size_t i : order) got[t][i] = grid[i](shared);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      EXPECT_EQ(got[t][i], expected[i]) << "thread " << t << " query " << i;
    }
  }
}

}  // namespace
}  // namespace liquid::serving
