#pragma once
// System presets for the seven serving stacks of Table 1.
//
// A preset bundles: which GEMM kernel serves the QKV/O/FFN projections, the
// KV-cache precision, the attention-kernel efficiency, the non-GEMM per-layer
// overhead ("Others" in Figures 4/10: activation quantization, layer norms,
// RoPE, routing), model-support limits (e.g. TRT-W8A8 lacks Mixtral support),
// and the framework's base memory overhead.
//
// Efficiency/overhead constants are substitutions for the real software
// stacks (documented in DESIGN.md §1): they are set from the paper's own
// measurements — e.g. QServe's attention and runtime overheads are sized so
// that LiquidServe/wo (same kernel, our stack) vs QServe (their stack)
// reproduces the Table 1 relationship.

#include <optional>
#include <string>
#include <vector>

#include "serving/attention_model.hpp"
#include "serving/model_config.hpp"
#include "simgpu/kernel_config.hpp"

namespace liquid::serving {

struct SystemPreset {
  std::string name;
  simgpu::KernelKind kernel = simgpu::KernelKind::kLiquidW4A8;
  double kv_bits = 8;
  double attention_efficiency = 0.80;
  /// FP8 attention math (see AttentionCostConfig::fp8_math).
  bool fp8_attention = false;
  /// Multiplier on the baseline non-GEMM per-layer cost (act quant, norms,
  /// RoPE, MoE routing, scheduler).
  double other_overhead = 1.0;
  /// Non-layer framework memory (weights workspace, CUDA graphs, etc.).
  double base_memory_bytes = 1.5e9;
  bool supports_moe = true;

  bool operator==(const SystemPreset&) const = default;

  /// Weight-only / weight-activation storage bits for GEMM weights.
  [[nodiscard]] double WeightBits() const;
  /// Quantization-parameter overhead per weight element, in bits (group
  /// scales/zeros for 4-bit schemes).
  [[nodiscard]] double QuantParamBits() const;

  [[nodiscard]] bool Supports(const LlmConfig& model) const {
    return model.experts <= 1 || supports_moe;
  }

  static SystemPreset TrtFp16();
  static SystemPreset TrtW4A16();
  static SystemPreset TrtW8A8();
  static SystemPreset TrtFp8();
  static SystemPreset QServe();
  static SystemPreset LiquidServe();
  /// LiquidServe stack with QServe's W4A8 kernel (Table 1's ablation row).
  static SystemPreset LiquidServeWo();

  /// Table 1 row order.
  static std::vector<SystemPreset> PaperSystems();
};

}  // namespace liquid::serving
