#pragma once
// End-to-end LLM serving simulator (paper Sections 6 and 7.2).
//
// Reproduces the Table 1 / Figure 4 / Figure 10 / Figure 11 methodology:
// fixed input/output lengths, batch sweep under an 80 GB memory ceiling,
// peak-throughput selection, and per-layer GEMM/Attention/Others breakdowns.
//
// One decode step = per-layer GEMM chain (simgpu) + decode attention
// (attention_model) + non-GEMM overhead.  Prefill = GEMM chain at
// batch*prompt tokens + quadratic prefill attention.  Memory = quantized
// weights + FP16 embeddings + paged KV cache + framework overhead; the KV
// pool is validated against a real KvBlockManager allocation.

#include <optional>
#include <string>

#include "serving/attention_model.hpp"
#include "serving/cost_table.hpp"
#include "serving/kv_cache.hpp"
#include "serving/model_config.hpp"
#include "serving/system_preset.hpp"
#include "simgpu/gemm_sim.hpp"
#include "simgpu/hardware.hpp"

namespace liquid::serving {

struct ServingWorkload {
  std::size_t input_len = 1024;
  std::size_t output_len = 512;
  std::size_t batch = 1;
};

struct LayerBreakdown {
  double gemm = 0;
  double attention = 0;
  double others = 0;
  [[nodiscard]] double total() const { return gemm + attention + others; }
};

struct ServingResult {
  bool oom = false;
  bool supported = true;
  double tokens_per_second = 0;     ///< generated tokens / total time
  double prefill_seconds = 0;
  double decode_step_seconds = 0;   ///< at mid-generation KV length
  double total_seconds = 0;
  double memory_bytes = 0;
  LayerBreakdown decode_layer;      ///< one layer, one decode step
};

struct EngineOptions {
  /// Chunked prefill: process prompts in chunks of at most this many tokens
  /// per engine iteration (0 = unchunked).  Chunking bounds the GEMM batch a
  /// prefill can monopolize, at the cost of re-reading prior KV for the
  /// attention of each later chunk.
  std::size_t prefill_chunk_tokens = 0;

  bool operator==(const EngineOptions&) const = default;
};

class ServingEngine {
 public:
  ServingEngine(simgpu::HardwareSpec hw, SystemPreset preset, LlmConfig model,
                EngineOptions options = {});

  /// Full run at a fixed batch size.
  [[nodiscard]] ServingResult Run(const ServingWorkload& workload) const;

  /// Memory footprint at a batch size (bytes), including the paged-KV pool
  /// actually needed for batch sequences of (input+output) tokens.
  [[nodiscard]] double MemoryBytes(const ServingWorkload& workload) const;

  /// Weight memory alone (quantized GEMM weights + params + FP16 embeddings).
  [[nodiscard]] double WeightMemoryBytes() const;

  /// Largest batch that fits the memory budget (0 if even batch 1 OOMs).
  [[nodiscard]] std::size_t MaxBatch(std::size_t input_len,
                                     std::size_t output_len,
                                     std::size_t cap = 256) const;

  struct PeakResult {
    double tokens_per_second = 0;
    std::size_t batch = 0;
    bool supported = true;
    bool oom = false;  ///< even batch 1 does not fit
  };
  /// Sweeps batch sizes 1..cap (Table 1 methodology) and returns the peak.
  [[nodiscard]] PeakResult PeakThroughput(std::size_t input_len,
                                          std::size_t output_len,
                                          std::size_t cap = 256) const;

  [[nodiscard]] const simgpu::HardwareSpec& hw() const { return hw_; }
  [[nodiscard]] const SystemPreset& preset() const { return preset_; }
  [[nodiscard]] const LlmConfig& model() const { return model_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// The decode-step cost at one batch size, with every term that does not
  /// read the KV length priced once: the layer GEMM chain, "others", the LM
  /// head and the attention constants.  DecodeStepSeconds and
  /// DecodeLayerBreakdown are this pricer at one KV length, so a caller that
  /// prices many steps of one batch (the scheduler's decode runs) gets the
  /// same doubles without re-deriving the batch terms per step.
  class DecodePricer {
   public:
    DecodePricer() = default;

    /// One layer of one decode step at `kv_len`.
    [[nodiscard]] LayerBreakdown Layer(std::size_t kv_len) const {
      LayerBreakdown out;
      out.gemm = gemm_;
      out.attention = attention_.Seconds(batch_, kv_len) / layers_;
      out.others = others_;
      return out;
    }
    /// Whole-model decode-step latency (all layers + LM head) at `kv_len`.
    [[nodiscard]] double Seconds(std::size_t kv_len) const {
      // The LM head GEMM runs once per step (not per layer).
      return Layer(kv_len).total() * layers_ + lm_head_;
    }

   private:
    friend class ServingEngine;
    std::size_t batch_ = 0;
    double layers_ = 0;
    double gemm_ = 0;     ///< one layer's GEMM chain
    double others_ = 0;   ///< one layer's non-GEMM work
    double lm_head_ = 0;  ///< the LM head, once per step
    DecodeAttentionTerms attention_;
  };
  [[nodiscard]] DecodePricer PriceDecode(std::size_t batch) const;

  /// One decode step's per-layer breakdown at the given batch / KV length.
  [[nodiscard]] LayerBreakdown DecodeLayerBreakdown(std::size_t batch,
                                                    std::size_t kv_len) const {
    return PriceDecode(batch).Layer(kv_len);
  }

  /// Whole-model decode-step latency (all layers + LM head).
  [[nodiscard]] double DecodeStepSeconds(std::size_t batch,
                                         std::size_t kv_len) const {
    return PriceDecode(batch).Seconds(kv_len);
  }
  /// Prefill latency for `batch` sequences of `input_len` tokens.
  [[nodiscard]] double PrefillSeconds(std::size_t batch,
                                      std::size_t input_len) const;

  /// Cost of one prefill chunk of a single sequence: `chunk_tokens` fresh
  /// tokens whose attention also reads the `prior_tokens` already cached by
  /// earlier chunks.  The scheduler uses this to interleave long prefills
  /// with decode steps (Sarathi-style) instead of charging the whole prompt
  /// in one iteration.  Summing chunks reproduces PrefillSeconds(1, len)
  /// under the same chunking.
  [[nodiscard]] double PrefillChunkSeconds(std::size_t chunk_tokens,
                                           std::size_t prior_tokens) const;

 private:
  [[nodiscard]] double OthersPerLayer(std::size_t batch) const;
  /// One layer's GEMM chain at `m` rows, and the LM head at `batch` rows.
  [[nodiscard]] double LayerGemmSeconds(std::size_t m) const;
  [[nodiscard]] double LmHeadSeconds(std::size_t batch) const;
  [[nodiscard]] double ChunkCost(std::size_t batch, std::size_t chunk_tokens,
                                 std::size_t prior_tokens) const;

  simgpu::HardwareSpec hw_;
  SystemPreset preset_;
  LlmConfig model_;
  EngineOptions options_;
  simgpu::KernelConfig kernel_;
  AttentionCostConfig attn_;
  DecodeAttentionTerms decode_attention_;

  /// The simgpu roofline walk is the only expensive term of every cost above
  /// and depends on one integer, the GEMM row count (the batch, for the LM
  /// head), so its results live in two CostTables filled on first use;
  /// building an engine (and a fleet of them) stays cheap.  Attention and
  /// "others" are a few flops and are computed per call.
  ///
  /// Keys: a table slot holds a row CLASS, simgpu::EquivalentRows(kernel_,
  /// m), not the raw count, because the walk prices every count in a class
  /// bitwise identically; a fleet that sees thousands of distinct prompt
  /// lengths then walks a few dozen classes (47 for rows 1..4096 on
  /// LiquidGEMM).  The one exception is an MoE model's layer table: its
  /// expert GEMMs see m * top_k / experts rows, whose class is not a
  /// function of m's class, so it keys by the raw m.
  ///
  /// Memory: each table is an 8 KB page directory plus one 8 KB page per
  /// 1024-key range actually priced, so an engine holds 16 KB of
  /// directories plus 8 KB per touched range: one page per table for decode
  /// batches up to 1023, 72 KB of pages for prompts up to 8k tokens, about
  /// 2 MB for Table 1's 256-batch x 1024-token prefill sweep (its classes
  /// still land in every page), and never more than 8 MB per table.  Keys
  /// past CostTable::kCapacity (~1M rows) are priced directly on every call.
  ///
  /// Determinism audit: a slot only ever holds -1 or the exact double a
  /// direct computation returns for every count its key stands for, and it
  /// is only read by index, so a cached cost never depends on query order.
  mutable CostTable layer_gemm_seconds_;
  mutable CostTable lm_head_seconds_;
};

}  // namespace liquid::serving
