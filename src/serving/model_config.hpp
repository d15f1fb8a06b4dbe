#pragma once
// LLM architecture descriptions for every model the paper evaluates
// (Table 1): LLaMA1-30B, LLaMA2-7/13/70B, LLaMA3-8B, Mistral-7B, Yi-34B and
// Mixtral-8x7B.  Provides the per-layer GEMM shapes (fused QKV, output
// projection, gate+up and down FFN projections — Figure 9), MoE expert
// grouping, parameter counts, and KV-cache geometry.

#include <cstddef>
#include <string>
#include <vector>

#include "simgpu/gemm_sim.hpp"

namespace liquid::serving {

struct LlmConfig {
  std::string name;
  int num_layers = 0;
  int hidden = 0;
  int heads = 0;
  int kv_heads = 0;       ///< < heads for GQA models
  int head_dim = 0;
  int ffn_intermediate = 0;
  int vocab = 0;
  int experts = 1;            ///< 1 for dense models
  int experts_per_token = 1;  ///< top-k routing (2 for Mixtral)

  bool operator==(const LlmConfig&) const = default;

  /// GEMM calls for one decoder layer at `batch` tokens in flight (decode
  /// step).  MoE FFNs are emitted as grouped GEMMs: `experts` GEMMs of
  /// batch * experts_per_token / experts tokens each (balanced routing).
  [[nodiscard]] std::vector<simgpu::GemmCall> LayerGemms(std::size_t batch) const;

  /// Total GEMM weight elements per layer (QKV + O + FFN across experts).
  [[nodiscard]] double GemmWeightsPerLayer() const;
  /// Total GEMM weight elements in the model (all layers).
  [[nodiscard]] double TotalGemmWeights() const {
    return GemmWeightsPerLayer() * num_layers;
  }
  /// Embedding + LM-head elements (kept FP16 by every system under study).
  [[nodiscard]] double EmbeddingWeights() const {
    return 2.0 * static_cast<double>(vocab) * hidden;
  }
  /// KV-cache bytes per token per layer at `kv_bits` precision.
  [[nodiscard]] double KvBytesPerTokenPerLayer(double kv_bits) const {
    return 2.0 * kv_heads * head_dim * kv_bits / 8.0;  // K and V
  }
  [[nodiscard]] double KvBytesPerToken(double kv_bits) const {
    return KvBytesPerTokenPerLayer(kv_bits) * num_layers;
  }

  static LlmConfig Llama1_30B();
  static LlmConfig Llama2_7B();
  static LlmConfig Llama2_13B();
  static LlmConfig Llama2_70B();
  static LlmConfig Llama3_8B();
  static LlmConfig Mistral_7B();
  static LlmConfig Yi_34B();
  static LlmConfig Mixtral_8x7B();

  /// The Table 1 model list, in paper column order.
  static std::vector<LlmConfig> PaperModels();
};

}  // namespace liquid::serving
