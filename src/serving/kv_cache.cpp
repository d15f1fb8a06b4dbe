#include "serving/kv_cache.hpp"

#include <cassert>
#include <numeric>
#include <utility>

namespace liquid::serving {

namespace {

/// First capacity (slots) a PrefixIndex allocates: 192 B.
constexpr std::size_t kInitialIndexSlots = 16;

}  // namespace

void PrefixIndex::Add(std::uint64_t hash) {
  if (const std::size_t i = Find(hash); i != kAbsent) {
    ++slots_[i].count;
    return;
  }
  // A new hash: keep the table at most 7/8 full after the insert.
  if (8 * (size_ + 1) > 7 * slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = HomeSlot(hash, slots_.size());
  while (slots_[i].count != 0) i = (i + 1) & mask;
  slots_[i] = {hash, 1};
  ++size_;
  ++epoch_;
}

void PrefixIndex::Remove(std::uint64_t hash) {
  std::size_t hole = Find(hash);
  if (hole == kAbsent || --slots_[hole].count > 0) return;
  // Backward-shift deletion: walk the probe run after the hole and pull back
  // every entry whose probe path from its home crosses the hole (its home is
  // not cyclically in (hole, j]), so every remaining entry stays reachable
  // from its home without tombstones.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j].count != 0;
       j = (j + 1) & mask) {
    const std::size_t home = HomeSlot(slots_[j].hash, slots_.size());
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].count = 0;
  --size_;
  ++epoch_;
}

void PrefixIndex::Grow() {
  const std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(slots_.empty() ? kInitialIndexSlots
                                               : 2 * slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.count == 0) continue;
    std::size_t i = HomeSlot(s.hash, slots_.size());
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

KvBlockManager::KvBlockManager(std::size_t total_blocks,
                               std::size_t block_tokens)
    : block_tokens_(block_tokens), ref_counts_(total_blocks, 0) {
  assert(block_tokens > 0);
  free_list_.resize(total_blocks);
  // LIFO free list: allocate low block ids first for determinism.
  std::iota(free_list_.rbegin(), free_list_.rend(), std::size_t{0});
}

std::optional<std::size_t> KvBlockManager::AllocBlock() {
  if (free_list_.empty()) return std::nullopt;
  const std::size_t block = free_list_.back();
  free_list_.pop_back();
  ref_counts_[block] = 1;
  return block;
}

void KvBlockManager::ReleaseBlock(std::size_t block) {
  assert(ref_counts_[block] > 0);
  if (--ref_counts_[block] == 0) free_list_.push_back(block);
}

bool KvBlockManager::AddSequence(SeqId id, std::size_t prompt_tokens) {
  if (sequences_.contains(id)) return false;
  const std::size_t need = BlocksNeeded(prompt_tokens);
  if (!CanAllocate(need)) return false;
  Sequence seq;
  seq.tokens = prompt_tokens;
  seq.blocks.reserve(need);
  for (std::size_t i = 0; i < need; ++i) {
    seq.blocks.push_back(*AllocBlock());  // guaranteed by CanAllocate
  }
  sequences_.emplace(id, std::move(seq));
  return true;
}

bool KvBlockManager::AppendToken(SeqId id) {
  auto it = sequences_.find(id);
  if (it == sequences_.end()) return false;
  Sequence& seq = it->second;

  const bool needs_block = seq.tokens % block_tokens_ == 0 || seq.blocks.empty();
  if (needs_block) {
    const auto block = AllocBlock();
    if (!block) return false;
    seq.blocks.push_back(*block);
  } else {
    // Writing into the tail block: if it is shared (forked), copy-on-write.
    const std::size_t tail = seq.blocks.back();
    if (ref_counts_[tail] > 1) {
      const auto copy = AllocBlock();
      if (!copy) return false;
      ReleaseBlock(tail);
      seq.blocks.back() = *copy;
      ++cow_count_;
    }
  }
  ++seq.tokens;
  return true;
}

bool KvBlockManager::Fork(SeqId parent, SeqId child) {
  auto it = sequences_.find(parent);
  if (it == sequences_.end() || sequences_.contains(child)) return false;
  Sequence copy = it->second;
  for (const std::size_t block : copy.blocks) ++ref_counts_[block];
  // The child holds its own references to the shared prefix blocks, so the
  // index counts them once per holder (the parent freeing alone must not
  // evict the hashes).
  for (const std::uint64_t h : copy.prefix_hashes) prefix_index_.Add(h);
  sequences_.emplace(child, std::move(copy));
  return true;
}

void KvBlockManager::Free(SeqId id) {
  const auto it = sequences_.find(id);
  if (it == sequences_.end()) return;
  UnregisterPrefix(it->second);
  Erase(it);
}

KvExport KvBlockManager::Export(SeqId id) {
  KvExport out;
  out.id = id;
  const auto it = sequences_.find(id);
  if (it == sequences_.end()) return out;
  Sequence& seq = it->second;
  out.tokens = seq.tokens;
  out.blocks = seq.blocks.size();
  // Unpublish, then hand the sequence's own hash vector to the export: the
  // local copy is about to be erased anyway.
  UnregisterPrefix(seq);
  out.prefix_hashes = std::move(seq.prefix_hashes);
  Erase(it);
  return out;
}

void KvBlockManager::Erase(SequenceMap::iterator it) {
  for (const std::size_t block : it->second.blocks) ReleaseBlock(block);
  sequences_.erase(it);
}

bool KvBlockManager::Import(const KvExport& exported) {
  if (sequences_.contains(exported.id)) return false;
  if (!AddSequence(exported.id, exported.tokens)) return false;
  RegisterPrefix(exported.id, exported.prefix_hashes);
  return true;
}

void KvBlockManager::RegisterPrefix(SeqId id,
                                    std::span<const std::uint64_t> hashes) {
  const auto it = sequences_.find(id);
  if (it == sequences_.end()) return;
  UnregisterPrefix(it->second);  // the assign below replaces the hashes
  it->second.prefix_hashes.assign(hashes.begin(), hashes.end());
  for (const std::uint64_t h : it->second.prefix_hashes) prefix_index_.Add(h);
}

std::span<const std::uint64_t> KvBlockManager::RegisteredPrefix(
    SeqId id) const {
  const auto it = sequences_.find(id);
  if (it == sequences_.end()) return {};
  return it->second.prefix_hashes;
}

void KvBlockManager::UnregisterPrefix(const Sequence& seq) {
  for (const std::uint64_t h : seq.prefix_hashes) prefix_index_.Remove(h);
}

std::size_t KvBlockManager::SequenceTokens(SeqId id) const {
  const auto it = sequences_.find(id);
  return it == sequences_.end() ? 0 : it->second.tokens;
}

const std::vector<std::size_t>& KvBlockManager::BlockTable(SeqId id) const {
  static const std::vector<std::size_t> kEmpty;
  const auto it = sequences_.find(id);
  return it == sequences_.end() ? kEmpty : it->second.blocks;
}

}  // namespace liquid::serving
