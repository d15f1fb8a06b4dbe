#pragma once
// Paged KV store with real quantized storage (paper Section 6).
//
// Combines the KvBlockManager (block tables, free list) with actual byte
// storage: appended K/V token vectors are quantized to INT8 with per-channel
// static scales (the LiquidServe / TRT-W8A8 configuration) and written into
// their sequence's current block; reads gather a sequence's tokens through
// the block table and dequantize.  This closes the loop on the KV pipeline —
// the serving simulator costs it, this component proves its numerics.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/quant/kv_quant.hpp"
#include "serving/kv_cache.hpp"

namespace liquid::serving {

class PagedKvStore {
 public:
  /// `heads`/`head_dim`: geometry of one layer's K (and V) vectors.
  /// `total_blocks` x `block_tokens` defines pool capacity.
  PagedKvStore(std::size_t total_blocks, std::size_t block_tokens,
               std::size_t heads, std::size_t head_dim,
               KvInt8Params k_params, KvInt8Params v_params);

  /// Starts a sequence; no tokens stored yet.
  bool AddSequence(SeqId id);

  /// Quantizes and appends one token's K and V vectors (heads*head_dim
  /// floats each).  Returns false on pool exhaustion (nothing written).
  bool AppendToken(SeqId id, std::span<const float> k,
                   std::span<const float> v);

  /// Dequantizes the full cached sequence: out_k/out_v get
  /// tokens*heads*head_dim floats in token order.
  void GatherSequence(SeqId id, std::vector<float>& out_k,
                      std::vector<float>& out_v) const;

  /// Dequantizes a single cached token (for incremental attention).
  void ReadToken(SeqId id, std::size_t token_index, std::span<float> out_k,
                 std::span<float> out_v) const;

  void Free(SeqId id);

  [[nodiscard]] std::size_t SequenceTokens(SeqId id) const {
    return manager_.SequenceTokens(id);
  }
  [[nodiscard]] std::size_t used_blocks() const {
    return manager_.used_blocks();
  }
  [[nodiscard]] std::size_t BytesPerToken() const {
    return 2 * channels_;  // K and V, INT8
  }

 private:
  [[nodiscard]] const std::int8_t* TokenSlot(SeqId id, std::size_t token,
                                             bool value_half) const;
  std::int8_t* TokenSlot(SeqId id, std::size_t token, bool value_half);

  KvBlockManager manager_;
  std::size_t block_tokens_;
  std::size_t channels_;  ///< heads * head_dim
  KvInt8Params k_params_;
  KvInt8Params v_params_;
  /// Physical storage: [total_blocks][block_tokens][2 * channels] int8,
  /// K first then V per token slot.
  std::vector<std::int8_t> storage_;
};

}  // namespace liquid::serving
