// ServingEngine caches the simgpu GEMM walk in tables keyed by row class.  A
// cached cost must be the exact double a cold engine computes, and the exact
// double a direct, uncached walk gives for that very count, whatever order
// the table was filled in.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <random>
#include <vector>

#include "serving/attention_model.hpp"
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
  // Past the page directory: priced directly on every call.
  constexpr std::size_t kBeyond = CostTable::kCapacity + 3;
  grid.push_back([](const ServingEngine& e) {
    return e.DecodeStepSeconds(kBeyond, 16);
  });
  grid.push_back([](const ServingEngine& e) {
    return e.PrefillSeconds(1, kBeyond);
  });
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

/// The engine's cost formulas with every GEMM term walked directly, no
/// table in between: what a cached cost must equal for its own count.
class UncachedCosts {
 public:
  UncachedCosts(SystemPreset preset, LlmConfig model)
      : probe_(simgpu::HardwareSpec::H800(), preset, model),
        kernel_(simgpu::KernelConfig::For(preset.kernel)),
        layers_(static_cast<double>(model.num_layers)) {
    attn_.kv_bits = preset.kv_bits;
    attn_.efficiency = preset.attention_efficiency;
    attn_.fp8_math = preset.fp8_attention;
  }

  double DecodeStepSeconds(std::size_t batch, std::size_t kv_len) const {
    LayerBreakdown layer = probe_.DecodeLayerBreakdown(batch, kv_len);
    layer.gemm = Layer(batch);
    const simgpu::GemmCall lm_head{
        GemmShape{batch, static_cast<std::size_t>(model().vocab),
                  static_cast<std::size_t>(model().hidden)},
        1};
    return layer.total() * model().num_layers +
           simgpu::SimulateGemmSequence(probe_.hw(), kernel_, {lm_head});
  }

  double PrefillSeconds(std::size_t input_len) const {
    return Layer(input_len) * model().num_layers +
           PrefillAttentionSeconds(probe_.hw(), model(), attn_, 1,
                                   input_len) +
           Others(input_len) * layers_;
  }

  double PrefillChunkSeconds(std::size_t chunk, std::size_t prior) const {
    double total = Layer(chunk) * model().num_layers;
    total += PrefillAttentionSeconds(probe_.hw(), model(), attn_, 1, chunk);
    if (prior > 0) {
      total += CrossAttentionSeconds(probe_.hw(), model(), attn_, 1, chunk,
                                     prior);
    }
    total += Others(chunk) * layers_;
    return total;
  }

 private:
  const LlmConfig& model() const { return probe_.model(); }
  double Layer(std::size_t m) const {
    return simgpu::SimulateGemmSequence(probe_.hw(), kernel_,
                                        model().LayerGemms(m));
  }
  /// Per-layer "others" term (no GEMM walk feeds it).
  double Others(std::size_t m) const {
    return probe_.DecodeLayerBreakdown(m, 1).others;
  }

  ServingEngine probe_;  ///< source of the non-GEMM terms only
  simgpu::KernelConfig kernel_;
  AttentionCostConfig attn_;
  double layers_;
};

/// Every count up to 600 (so every class boundary of both tile sizes and the
/// GEMV bound is crossed, and an MoE layer's expert rows change class inside
/// one dense class), then powers of two and their neighbours.
std::vector<std::size_t> RowCounts() {
  std::vector<std::size_t> counts;
  for (std::size_t m = 1; m <= 600; ++m) counts.push_back(m);
  for (const std::size_t m : {1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096,
                              4097, 8191}) {
    counts.push_back(m);
  }
  return counts;
}

void ExpectTablesMatchUncachedWalk(const SystemPreset& preset,
                                   const LlmConfig& model) {
  const ServingEngine engine(simgpu::HardwareSpec::H800(), preset, model);
  const UncachedCosts direct(preset, model);
  for (const std::size_t m : RowCounts()) {
    EXPECT_EQ(engine.DecodeStepSeconds(m, 512),
              direct.DecodeStepSeconds(m, 512))
        << preset.name << " " << model.name << " decode batch " << m;
    EXPECT_EQ(engine.PrefillSeconds(1, m), direct.PrefillSeconds(m))
        << preset.name << " " << model.name << " prefill " << m;
    EXPECT_EQ(engine.PrefillChunkSeconds(m, 300),
              direct.PrefillChunkSeconds(m, 300))
        << preset.name << " " << model.name << " chunk " << m;
  }
}

TEST(EngineCostTableTest, LiquidServeTablesMatchUncachedWalk) {
  ExpectTablesMatchUncachedWalk(SystemPreset::LiquidServe(),
                                LlmConfig::Llama2_7B());
}

TEST(EngineCostTableTest, GemvPathTablesMatchUncachedWalk) {
  ExpectTablesMatchUncachedWalk(SystemPreset::TrtW8A8(),
                                LlmConfig::Llama2_7B());
}

TEST(EngineCostTableTest, MoeTablesMatchUncachedWalk) {
  ExpectTablesMatchUncachedWalk(SystemPreset::LiquidServe(),
                                LlmConfig::Mixtral_8x7B());
}

}  // namespace
}  // namespace liquid::serving
