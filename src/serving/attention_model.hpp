#pragma once
// Attention cost model (paper Section 6: FlashAttention-2 for runtime
// attention, PagedAttention layout, quantized KV cache).
//
// Decode attention is memory-bound: each step streams every cached K/V byte
// of every sequence once (FlashAttention-2 tiling achieves this bound), so
//   t = batch * kv_len * kv_heads * head_dim * 2 * kv_bytes / (BW * eff).
// Prefill attention is compute-bound on FP16 tensor cores with causal
// masking: 2 * 2 * heads * head_dim * L^2 / 2 MAC-ops per sequence per layer.
// `efficiency` folds in how well a given system's attention kernels approach
// those bounds (e.g. TRT-FP8's Hopper FP8 attention vs QServe's kernels).

#include <cstddef>

#include "serving/model_config.hpp"
#include "simgpu/hardware.hpp"

namespace liquid::serving {

struct AttentionCostConfig {
  double kv_bits = 8;
  double efficiency = 0.8;   ///< fraction of the bandwidth/compute bound
  double softmax_overhead = 1.15;  ///< non-GEMM work in the kernel
  /// FP8 attention math (FlashAttention-3 class): prefill QK^T/PV run on the
  /// FP8 tensor-core rate instead of FP16 — TRT-FP8's Hopper advantage.
  bool fp8_math = false;
};

/// Decode attention with everything but the batch and KV length priced
/// once: the bytes one cached token holds over all layers, and the
/// bandwidth the stream achieves.
struct DecodeAttentionTerms {
  DecodeAttentionTerms() = default;
  DecodeAttentionTerms(const simgpu::HardwareSpec& hw, const LlmConfig& model,
                       const AttentionCostConfig& cfg)
      : kv_bytes_per_token(model.KvBytesPerToken(cfg.kv_bits)),
        stream_bytes_per_s(hw.mem_bw_bytes * cfg.efficiency),
        softmax_overhead(cfg.softmax_overhead) {}

  /// Seconds for one decode step over all layers.
  [[nodiscard]] double Seconds(std::size_t batch, std::size_t kv_len) const {
    const double kv_bytes = static_cast<double>(batch) *
                            static_cast<double>(kv_len) * kv_bytes_per_token;
    // The QK^T and PV inner products: 2 GEMV-like passes over the same
    // bytes; on-chip FLOPs are hidden behind the stream, softmax etc. is the
    // overhead factor.
    return kv_bytes / stream_bytes_per_s * softmax_overhead;
  }

  double kv_bytes_per_token = 0;
  double stream_bytes_per_s = 0;
  double softmax_overhead = 0;
};

/// Seconds for one decode step over all layers.
double DecodeAttentionSeconds(const simgpu::HardwareSpec& hw,
                              const LlmConfig& model,
                              const AttentionCostConfig& cfg,
                              std::size_t batch, std::size_t kv_len);

/// Seconds to run prefill attention for `batch` sequences of `prompt_len`
/// tokens over all layers.
double PrefillAttentionSeconds(const simgpu::HardwareSpec& hw,
                               const LlmConfig& model,
                               const AttentionCostConfig& cfg,
                               std::size_t batch, std::size_t prompt_len);

/// Cross-attention rectangle (chunked prefill): `q_tokens` fresh tokens per
/// sequence attend to `kv_len` cached tokens.  Compute-bound on tensor cores
/// like prefill, but floored by the bandwidth of re-reading the cached KV.
double CrossAttentionSeconds(const simgpu::HardwareSpec& hw,
                             const LlmConfig& model,
                             const AttentionCostConfig& cfg, std::size_t batch,
                             std::size_t q_tokens, std::size_t kv_len);

}  // namespace liquid::serving
