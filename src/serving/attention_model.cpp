#include "serving/attention_model.hpp"

#include <algorithm>

namespace liquid::serving {

double DecodeAttentionSeconds(const simgpu::HardwareSpec& hw,
                              const LlmConfig& model,
                              const AttentionCostConfig& cfg,
                              std::size_t batch, std::size_t kv_len) {
  return DecodeAttentionTerms(hw, model, cfg).Seconds(batch, kv_len);
}

double PrefillAttentionSeconds(const simgpu::HardwareSpec& hw,
                               const LlmConfig& model,
                               const AttentionCostConfig& cfg,
                               std::size_t batch, std::size_t prompt_len) {
  const double l = static_cast<double>(prompt_len);
  // Causal attention: QK^T and PV each cost heads*head_dim*L^2/2 MACs per
  // sequence per layer; 2 ops per MAC.
  const double ops_per_layer = 2.0 * 2.0 *
                               static_cast<double>(model.heads) *
                               static_cast<double>(model.head_dim) * l * l /
                               2.0 * static_cast<double>(batch);
  const double ops = ops_per_layer * model.num_layers;
  const double rate = cfg.fp8_math && hw.tc_fp8_ops > 0 ? hw.tc_fp8_ops
                                                        : hw.tc_fp16_ops;
  return ops / (rate * cfg.efficiency) * cfg.softmax_overhead;
}

double CrossAttentionSeconds(const simgpu::HardwareSpec& hw,
                             const LlmConfig& model,
                             const AttentionCostConfig& cfg, std::size_t batch,
                             std::size_t q_tokens, std::size_t kv_len) {
  // QK^T and PV over the q_tokens x kv_len rectangle: 2 passes x 2 ops/MAC.
  const double ops = 2.0 * 2.0 * static_cast<double>(model.heads) *
                     static_cast<double>(model.head_dim) *
                     static_cast<double>(q_tokens) *
                     static_cast<double>(kv_len) *
                     static_cast<double>(batch) * model.num_layers;
  const double rate = cfg.fp8_math && hw.tc_fp8_ops > 0 ? hw.tc_fp8_ops
                                                        : hw.tc_fp16_ops;
  const double t_compute = ops / (rate * cfg.efficiency);
  // Bandwidth floor: the cached K and V bytes are streamed once per chunk.
  const double kv_bytes = static_cast<double>(batch) *
                          static_cast<double>(kv_len) *
                          model.KvBytesPerToken(cfg.kv_bits);
  const double t_mem = kv_bytes / (hw.mem_bw_bytes * cfg.efficiency);
  return std::max(t_compute, t_mem) * cfg.softmax_overhead;
}

}  // namespace liquid::serving
