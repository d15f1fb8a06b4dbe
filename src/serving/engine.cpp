#include "serving/engine.hpp"

#include <algorithm>
#include <cmath>

namespace liquid::serving {
namespace {

/// Device memory the fixed-batch Run, MemoryBytes and MaxBatch budget
/// against (H800 80 GB).
constexpr double kMemoryBudgetBytes = 80e9;
/// PagedAttention block size of the fixed-batch Run's KV pool.
constexpr std::size_t kKvBlockTokens = 16;

/// Baseline non-GEMM per-layer cost: layer norms, RoPE, residual adds,
/// activation quantization, KV write, routing.  Mostly bandwidth-bound over
/// activation tensors plus a fixed kernel-launch floor.
double BaseOthersPerLayer(const simgpu::HardwareSpec& hw,
                          const LlmConfig& model, std::size_t batch) {
  const double act_bytes = static_cast<double>(batch) *
                           static_cast<double>(model.hidden) * 2.0 /*fp16*/ *
                           6.0 /*norm in+out, rope, quant, residual*/;
  const double t_mem = act_bytes / hw.mem_bw_bytes;
  const double t_launch = 4.0 * hw.kernel_launch_seconds / 4.0;  // fused ops
  return t_mem + t_launch;
}

AttentionCostConfig AttentionFor(const SystemPreset& preset) {
  AttentionCostConfig attn;
  attn.kv_bits = preset.kv_bits;
  attn.efficiency = preset.attention_efficiency;
  attn.fp8_math = preset.fp8_attention;
  return attn;
}

}  // namespace

ServingEngine::ServingEngine(simgpu::HardwareSpec hw, SystemPreset preset,
                             LlmConfig model, EngineOptions options)
    : hw_(std::move(hw)),
      preset_(std::move(preset)),
      model_(std::move(model)),
      options_(options),
      kernel_(simgpu::KernelConfig::For(preset_.kernel)),
      attn_(AttentionFor(preset_)),
      decode_attention_(hw_, model_, attn_) {}

double ServingEngine::OthersPerLayer(std::size_t batch) const {
  return BaseOthersPerLayer(hw_, model_, batch) * preset_.other_overhead;
}

double ServingEngine::LayerGemmSeconds(std::size_t m) const {
  // An MoE layer's expert GEMMs see m * top_k / experts rows, whose row
  // class is not a function of m's class, so its table keys by m itself.
  const std::size_t key =
      model_.experts <= 1 ? simgpu::EquivalentRows(kernel_, m) : m;
  return layer_gemm_seconds_.Get(key, [this](std::size_t rows) {
    return simgpu::SimulateGemmSequence(hw_, kernel_, model_.LayerGemms(rows));
  });
}

double ServingEngine::LmHeadSeconds(std::size_t batch) const {
  const std::size_t key = simgpu::EquivalentRows(kernel_, batch);
  return lm_head_seconds_.Get(key, [this](std::size_t rows) {
    const simgpu::GemmCall lm_head{
        GemmShape{rows, static_cast<std::size_t>(model_.vocab),
                  static_cast<std::size_t>(model_.hidden)},
        1};
    return simgpu::SimulateGemmSequence(hw_, kernel_, {lm_head});
  });
}

ServingEngine::DecodePricer ServingEngine::PriceDecode(
    std::size_t batch) const {
  DecodePricer p;
  p.batch_ = batch;
  p.layers_ = static_cast<double>(model_.num_layers);
  p.gemm_ = LayerGemmSeconds(batch);
  p.others_ = OthersPerLayer(batch);
  p.lm_head_ = LmHeadSeconds(batch);
  p.attention_ = decode_attention_;
  return p;
}

double ServingEngine::PrefillSeconds(std::size_t batch,
                                     std::size_t input_len) const {
  const std::size_t chunk = options_.prefill_chunk_tokens;
  if (chunk == 0 || input_len <= chunk) {
    const std::size_t tokens = batch * input_len;
    const double gemm = LayerGemmSeconds(tokens) * model_.num_layers;
    const double attention =
        PrefillAttentionSeconds(hw_, model_, attn_, batch, input_len);
    const double others =
        OthersPerLayer(tokens) * static_cast<double>(model_.num_layers);
    return gemm + attention + others;
  }

  // Chunked prefill: GEMM work is unchanged in total, but each chunk's
  // attention must also read the KV of all earlier chunks (cross-chunk
  // decode-style pass) on top of its own causal attention.
  double total = 0.0;
  std::size_t done = 0;
  while (done < input_len) {
    const std::size_t this_chunk = std::min(chunk, input_len - done);
    total += ChunkCost(batch, this_chunk, done);
    done += this_chunk;
  }
  return total;
}

double ServingEngine::ChunkCost(std::size_t batch, std::size_t chunk_tokens,
                                std::size_t prior_tokens) const {
  const std::size_t tokens = batch * chunk_tokens;
  double total = LayerGemmSeconds(tokens) * model_.num_layers;
  total += PrefillAttentionSeconds(hw_, model_, attn_, batch, chunk_tokens);
  if (prior_tokens > 0) {
    // The chunk's tokens attend to all previously cached tokens: a
    // compute-bound rectangle pass with a KV re-read bandwidth floor.
    total += CrossAttentionSeconds(hw_, model_, attn_, batch, chunk_tokens,
                                   prior_tokens);
  }
  total += OthersPerLayer(tokens) * static_cast<double>(model_.num_layers);
  return total;
}

double ServingEngine::PrefillChunkSeconds(std::size_t chunk_tokens,
                                          std::size_t prior_tokens) const {
  return ChunkCost(1, chunk_tokens, prior_tokens);
}

double ServingEngine::WeightMemoryBytes() const {
  const double gemm_bits = preset_.WeightBits() + preset_.QuantParamBits();
  return model_.TotalGemmWeights() * gemm_bits / 8.0 +
         model_.EmbeddingWeights() * 2.0;  // FP16 embeddings + LM head
}

double ServingEngine::MemoryBytes(const ServingWorkload& workload) const {
  const std::size_t tokens_per_seq = workload.input_len + workload.output_len;
  // Size the paged pool with a real allocation: blocks for every sequence at
  // full length (the Table 1 setting pre-allocates for the fixed lengths).
  const std::size_t blocks_per_seq =
      (tokens_per_seq + kKvBlockTokens - 1) / kKvBlockTokens;
  const double kv_bytes = static_cast<double>(blocks_per_seq) *
                          static_cast<double>(workload.batch) *
                          static_cast<double>(kKvBlockTokens) *
                          model_.KvBytesPerToken(preset_.kv_bits);
  const double act_workspace = static_cast<double>(workload.batch) *
                               std::max(workload.input_len, std::size_t{1}) *
                               static_cast<double>(model_.hidden) * 2.0 * 4.0;
  return WeightMemoryBytes() + kv_bytes + act_workspace +
         preset_.base_memory_bytes;
}

ServingResult ServingEngine::Run(const ServingWorkload& workload) const {
  ServingResult out;
  if (!preset_.Supports(model_)) {
    out.supported = false;
    return out;
  }
  out.memory_bytes = MemoryBytes(workload);
  if (out.memory_bytes > kMemoryBudgetBytes) {
    out.oom = true;
    return out;
  }

  // Verify the KV pool really accommodates the batch with a paged allocation.
  const double kv_pool_bytes =
      kMemoryBudgetBytes - WeightMemoryBytes() - preset_.base_memory_bytes;
  const double block_bytes = static_cast<double>(kKvBlockTokens) *
                             model_.KvBytesPerToken(preset_.kv_bits);
  KvBlockManager pool(
      static_cast<std::size_t>(std::max(0.0, kv_pool_bytes / block_bytes)),
      kKvBlockTokens);
  for (std::size_t s = 0; s < workload.batch; ++s) {
    if (!pool.AddSequence(s, workload.input_len + workload.output_len)) {
      out.oom = true;
      return out;
    }
  }

  out.prefill_seconds = PrefillSeconds(workload.batch, workload.input_len);
  // Decode cost grows linearly in KV length; evaluating at the midpoint
  // length integrates the ramp exactly for a linear model.
  const std::size_t mid_kv = workload.input_len + workload.output_len / 2;
  out.decode_step_seconds = DecodeStepSeconds(workload.batch, mid_kv);
  out.decode_layer = DecodeLayerBreakdown(workload.batch, mid_kv);
  out.total_seconds =
      out.prefill_seconds +
      out.decode_step_seconds * static_cast<double>(workload.output_len);
  const double generated =
      static_cast<double>(workload.batch) *
      static_cast<double>(workload.output_len);
  out.tokens_per_second = generated / out.total_seconds;
  return out;
}

std::size_t ServingEngine::MaxBatch(std::size_t input_len,
                                    std::size_t output_len,
                                    std::size_t cap) const {
  std::size_t best = 0;
  std::size_t lo = 1;
  std::size_t hi = cap;
  while (lo <= hi) {
    const std::size_t mid = (lo + hi) / 2;
    ServingWorkload w{input_len, output_len, mid};
    if (MemoryBytes(w) <= kMemoryBudgetBytes) {
      best = mid;
      lo = mid + 1;
    } else {
      if (mid == 0) break;
      hi = mid - 1;
    }
  }
  return best;
}

ServingEngine::PeakResult ServingEngine::PeakThroughput(
    std::size_t input_len, std::size_t output_len, std::size_t cap) const {
  PeakResult peak;
  if (!preset_.Supports(model_)) {
    peak.supported = false;
    return peak;
  }
  const std::size_t max_batch = MaxBatch(input_len, output_len, cap);
  if (max_batch == 0) {
    peak.oom = true;
    return peak;
  }
  for (std::size_t b = 1; b <= max_batch; ++b) {
    ServingWorkload w{input_len, output_len, b};
    const ServingResult r = Run(w);
    if (r.oom) break;
    if (r.tokens_per_second > peak.tokens_per_second) {
      peak.tokens_per_second = r.tokens_per_second;
      peak.batch = b;
    }
  }
  return peak;
}

}  // namespace liquid::serving
