#include "serving/kv_cache.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>

namespace liquid::serving {

namespace {

/// First capacity (slots) a FlatKeyTable allocates: 192 B.
constexpr std::size_t kInitialTableSlots = 16;

}  // namespace

void FlatKeyTable::Insert(std::uint64_t key, std::uint32_t value) {
  // Keep the table at most 7/8 full after the insert.
  if (8 * (size_ + 1) > 7 * slots_.size()) Grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = HomeSlot(key, slots_.size());
  while (slots_[i].value != 0) i = (i + 1) & mask;
  slots_[i] = {key, value};
  ++size_;
}

void FlatKeyTable::EraseAt(std::size_t hole) {
  // Backward-shift deletion: walk the probe run after the hole and pull back
  // every entry whose probe path from its home crosses the hole (its home is
  // not cyclically in (hole, j]), so every remaining entry stays reachable
  // from its home without tombstones.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j].value != 0;
       j = (j + 1) & mask) {
    const std::size_t home = HomeSlot(slots_[j].key, slots_.size());
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].value = 0;
  --size_;
}

void FlatKeyTable::Grow() {
  const std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(slots_.empty() ? kInitialTableSlots
                                               : 2 * slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.value == 0) continue;
    std::size_t i = HomeSlot(s.key, slots_.size());
    while (slots_[i].value != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void PrefixIndex::Add(std::uint64_t hash) {
  if (const std::size_t i = table_.Find(hash); i != FlatKeyTable::kAbsent) {
    ++table_.value(i);
    return;
  }
  table_.Insert(hash, 1);
  ++epoch_;
}

void PrefixIndex::Remove(std::uint64_t hash) {
  const std::size_t i = table_.Find(hash);
  if (i == FlatKeyTable::kAbsent || --table_.value(i) > 0) return;
  table_.EraseAt(i);
  ++epoch_;
}

KvBlockManager::KvBlockManager(std::size_t total_blocks,
                               std::size_t block_tokens)
    : block_tokens_(block_tokens), total_blocks_(total_blocks) {
  assert(block_tokens > 0);
  free_list_.resize(total_blocks);
  // LIFO free list: allocate low block ids first for determinism.
  std::iota(free_list_.rbegin(), free_list_.rend(), std::size_t{0});
}

const KvBlockManager::Sequence* KvBlockManager::Find(SeqId id) const {
  const std::size_t i = ids_.Find(id);
  return i == FlatKeyTable::kAbsent ? nullptr : &slab_[ids_.value(i) - 1];
}

KvBlockManager::Sequence* KvBlockManager::Find(SeqId id) {
  return const_cast<Sequence*>(std::as_const(*this).Find(id));
}

KvBlockManager::Sequence& KvBlockManager::Insert(SeqId id) {
  std::size_t slot = slab_.size();
  if (free_slots_.empty()) {
    slab_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  ids_.Insert(id, static_cast<std::uint32_t>(slot + 1));
  return slab_[slot];
}

bool KvBlockManager::AddSequence(SeqId id, std::size_t prompt_tokens) {
  const std::size_t need = BlocksNeeded(prompt_tokens);
  if (!CanAllocate(need) || HasSequence(id)) return false;
  Sequence& seq = Insert(id);
  seq.tokens = prompt_tokens;
  // Take the top `need` free blocks, top first: the order `need` single
  // pops would give.
  const auto top = free_list_.end();
  seq.blocks.assign(std::make_reverse_iterator(top),
                    std::make_reverse_iterator(top - need));
  free_list_.erase(top - need, top);
  return true;
}

bool KvBlockManager::AppendToken(SeqId id) {
  Sequence* seq = Find(id);
  if (seq == nullptr) return false;
  if (seq->tokens % block_tokens_ == 0) {  // full tail, or no block yet
    if (free_list_.empty()) return false;
    seq->blocks.push_back(free_list_.back());
    free_list_.pop_back();
  }
  ++seq->tokens;
  return true;
}

std::size_t KvBlockManager::CoveredRounds(std::span<const std::uint32_t> slots,
                                          std::size_t limit) const {
  // A sequence crosses at most ceil(limit / B) block boundaries in `limit`
  // rounds, so a free list that covers that for every sequence covers all.
  const std::size_t most =
      limit <= block_tokens_ ? 1 : (limit + block_tokens_ - 1) / block_tokens_;
  if (free_blocks() >= slots.size() * most) return limit;
  // Otherwise the need grows with the rounds: bisect for the last covered
  // round, keeping need(lo) <= free < need(hi).  A sequence holds
  // BlocksNeeded(tokens) blocks, so k more tokens need the difference at
  // tokens + k.
  const auto need = [&](std::size_t k) {
    std::size_t blocks = 0;
    for (const std::uint32_t slot : slots) {
      const Sequence& seq = slab_[slot];
      blocks += BlocksNeeded(seq.tokens + k) - seq.blocks.size();
    }
    return blocks;
  };
  if (need(limit) <= free_blocks()) return limit;
  std::size_t lo = 0, hi = limit;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (need(mid) <= free_blocks() ? lo : hi) = mid;
  }
  return lo;
}

std::size_t KvBlockManager::TailRoom(
    std::span<const std::uint32_t> slots) const {
  // AppendTokens takes a sequence's first block at round room + 1.
  std::size_t room = std::numeric_limits<std::size_t>::max();
  for (const std::uint32_t slot : slots) {
    const Sequence& seq = slab_[slot];
    room = std::min(room, seq.blocks.size() * block_tokens_ - seq.tokens);
  }
  return room;
}

bool KvBlockManager::AppendTokens(std::span<const std::uint32_t> slots,
                                  std::size_t k) {
  // Round j (1-based) of AppendToken takes a block for a sequence once its
  // tokens fill its blocks: the first time at round room + 1, where room is
  // the free space in its tail block, then every B rounds.
  boundaries_.clear();
  std::size_t need = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Sequence& seq = slab_[slots[i]];
    const std::size_t first = seq.blocks.size() * block_tokens_ - seq.tokens + 1;
    if (first > k) continue;
    boundaries_.emplace_back(first, i);
    need += k - first < block_tokens_ ? 1 : 1 + (k - first) / block_tokens_;
  }
  if (need > free_list_.size()) return false;
  // Popping by (round, batch position) is the order the rounds would pop
  // in.
  if (boundaries_.size() > 1) {
    std::sort(boundaries_.begin(), boundaries_.end());
  }
  for (std::size_t round = 0; need > 0; round += block_tokens_) {
    for (const auto& [first, i] : boundaries_) {
      if (first + round > k) break;
      slab_[slots[i]].blocks.push_back(free_list_.back());
      free_list_.pop_back();
      --need;
    }
  }
  for (const std::uint32_t slot : slots) slab_[slot].tokens += k;
  return true;
}

void KvBlockManager::Free(SeqId id) {
  const std::size_t i = ids_.Find(id);
  if (i == FlatKeyTable::kAbsent) return;
  UnregisterPrefix(At(i));
  Erase(i);
}

KvExport KvBlockManager::Export(SeqId id) {
  KvExport out;
  out.id = id;
  const std::size_t i = ids_.Find(id);
  if (i == FlatKeyTable::kAbsent) return out;
  Sequence& seq = At(i);
  out.tokens = seq.tokens;
  out.blocks = seq.blocks.size();
  // Unpublish, then hand the sequence's own hash vector to the export: the
  // local copy is about to be erased anyway.
  UnregisterPrefix(seq);
  out.prefix_hashes = std::move(seq.prefix_hashes);
  Erase(i);
  return out;
}

void KvBlockManager::Erase(std::size_t i) {
  const std::uint32_t slot = ids_.value(i) - 1;
  Sequence& seq = slab_[slot];
  // Push every block in table order: the order one release per block would
  // push them.
  free_list_.insert(free_list_.end(), seq.blocks.begin(), seq.blocks.end());
  assert(free_list_.size() <= total_blocks());  // no block released twice
  seq.blocks.clear();
  seq.prefix_hashes.clear();
  seq.tokens = 0;
  free_slots_.push_back(slot);
  ids_.EraseAt(i);
}

bool KvBlockManager::Import(const KvExport& exported) {
  if (!AddSequence(exported.id, exported.tokens)) return false;
  RegisterPrefix(exported.id, exported.prefix_hashes);
  return true;
}

void KvBlockManager::RegisterPrefix(SeqId id,
                                    std::span<const std::uint64_t> hashes) {
  Sequence* seq = Find(id);
  if (seq == nullptr) return;
  UnregisterPrefix(*seq);  // the assign below replaces the hashes
  seq->prefix_hashes.assign(hashes.begin(), hashes.end());
  for (const std::uint64_t h : seq->prefix_hashes) prefix_index_.Add(h);
}

std::span<const std::uint64_t> KvBlockManager::RegisteredPrefix(
    SeqId id) const {
  const Sequence* seq = Find(id);
  if (seq == nullptr) return {};
  return seq->prefix_hashes;
}

void KvBlockManager::UnregisterPrefix(const Sequence& seq) {
  for (const std::uint64_t h : seq.prefix_hashes) prefix_index_.Remove(h);
}

std::size_t KvBlockManager::SequenceTokens(SeqId id) const {
  const Sequence* seq = Find(id);
  return seq == nullptr ? 0 : seq->tokens;
}

const std::vector<std::size_t>& KvBlockManager::BlockTable(SeqId id) const {
  static const std::vector<std::size_t> kEmpty;
  const Sequence* seq = Find(id);
  return seq == nullptr ? kEmpty : seq->blocks;
}

}  // namespace liquid::serving
