#pragma once
// PagedAttention-style KV-cache block manager (paper Section 6; Kwon et al.,
// SOSP'23).  A real allocator, not a byte counter: fixed-size token blocks,
// per-sequence block tables with one owner per block, and exact accounting
// the serving engine uses to decide the out-of-memory points of Table 1.
// Prefix reuse is modelled by the PrefixIndex below, not by sharing physical
// blocks.  A sequence operation costs one bulk move of its block ids, not one
// allocator call per block.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace liquid::serving {

using SeqId = std::uint64_t;

/// Flat open-addressing table from 64-bit keys to nonzero 32-bit values —
/// the storage under PrefixIndex (value = reference count) and under
/// KvBlockManager's sequence table (value = slab slot + 1).
///
/// Storage is a power-of-two vector of {key, value} slots where value 0
/// marks an empty slot, linear probing from a multiplicative (Fibonacci)
/// home slot, and backward-shift deletion, so there are no tombstones.  It
/// allocates nothing until the first Insert, doubles when an insert would
/// pass 7/8 full, and never shrinks: once grown to a working set, Insert and
/// EraseAt neither allocate nor free.
class FlatKeyTable {
 public:
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Index of `key`'s slot, or kAbsent.
  [[nodiscard]] std::size_t Find(std::uint64_t key) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = HomeSlot(key, slots_.size());; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.value == 0) return kAbsent;
      if (s.key == key) return i;
    }
  }
  /// Value in slot `i` (an index Find returned).  Writing 0 is not allowed:
  /// empty a slot with EraseAt.
  [[nodiscard]] std::uint32_t& value(std::size_t i) { return slots_[i].value; }
  [[nodiscard]] std::uint32_t value(std::size_t i) const {
    return slots_[i].value;
  }
  /// Inserts a key that is not present, with a nonzero value.  May grow the
  /// table, which invalidates every index Find returned.
  void Insert(std::uint64_t key, std::uint32_t value);
  /// Empties slot `i` (an index Find returned).
  void EraseAt(std::size_t i);

  /// Occupied slots.
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated (0 before the first Insert; a power of two after).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Slot a key probes first in a table of `capacity` slots (a power of
  /// two): the top log2(capacity) bits of key × 2^64/φ.  Public so tests
  /// can build keys that collide.
  [[nodiscard]] static std::size_t HomeSlot(std::uint64_t key,
                                            std::size_t capacity) {
    return static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull) >> (64 - std::countr_zero(capacity)));
  }

 private:
  // Packed to 12 bytes (4-byte aligned): a quarter less memory per slot
  // than the naturally padded 16, for the same one-load key compare on
  // targets with unaligned loads.
#pragma pack(push, 4)
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;  ///< 0 = empty slot
  };
#pragma pack(pop)
  static_assert(sizeof(Slot) == 12);

  void Grow();

  /// Determinism audit: which slot holds a key is a pure function of the
  /// Insert/EraseAt sequence (fixed multiplier, fixed probe order, fixed
  /// growth points), so the layout is reproducible run to run.  Even so,
  /// nothing observable depends on it: Grow is the only walk over the slots,
  /// and it only reinserts them; every query is a keyed lookup.
  std::vector<Slot> slots_;
  std::size_t size_ = 0;  ///< occupied slots
};

/// Multiset of prefix-block hashes resident in one replica's KV pool — the
/// per-replica half of the fleet-wide prefix-cache index.  The router scores
/// placement by the longest leading run of a request's signature found here;
/// the scheduler skips that run's prefill compute.  Counts are references
/// (several sequences can hold the same preamble), so a block's hash leaves
/// the index only when its last holder frees; removing an absent hash is a
/// no-op.  Storage is one FlatKeyTable from hash to count.
class PrefixIndex {
 public:
  void Add(std::uint64_t hash);
  void Remove(std::uint64_t hash);
  [[nodiscard]] bool Contains(std::uint64_t hash) const {
    return table_.Find(hash) != FlatKeyTable::kAbsent;
  }
  /// Longest leading run of `hashes` resident here — the contiguous prefix a
  /// prefill on this replica could reuse.  Stops at the first miss: rolling
  /// hashes are chained, so a later isolated match cannot be the same
  /// content anyway.
  [[nodiscard]] std::size_t SharedPrefixBlocks(
      std::span<const std::uint64_t> hashes) const {
    std::size_t run = 0;
    for (const std::uint64_t h : hashes) {
      if (!Contains(h)) break;
      ++run;
    }
    return run;
  }
  /// Membership version: bumped whenever a hash enters the index (count
  /// 0 -> 1) or leaves it (1 -> 0), and at no other time.  Every query above
  /// reads membership only, so two calls separated by no epoch change return
  /// the same answer; callers memoize index-derived values on it.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Distinct resident hashes.
  [[nodiscard]] std::size_t size() const { return table_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Slots allocated (0 before the first Add; a power of two after).
  [[nodiscard]] std::size_t capacity() const { return table_.capacity(); }

  /// Slot a hash probes first in a table of `capacity` slots.
  [[nodiscard]] static std::size_t HomeSlot(std::uint64_t hash,
                                            std::size_t capacity) {
    return FlatKeyTable::HomeSlot(hash, capacity);
  }

 private:
  FlatKeyTable table_;
  std::uint64_t epoch_ = 0;
};

/// Descriptor of a sequence's KV state detached from any one block manager —
/// the unit of (simulated) KV migration between replicas.  Blocks are the
/// count a fresh Import() allocates.  The prefix hashes survive the wire:
/// migrated KV carries its identity, so the destination's index immediately
/// advertises the moved blocks.
struct KvExport {
  SeqId id = 0;
  std::size_t tokens = 0;
  std::size_t blocks = 0;
  std::vector<std::uint64_t> prefix_hashes;  ///< hashes registered at export
};

class KvBlockManager {
 public:
  /// `total_blocks` physical blocks, each holding `block_tokens` tokens.
  KvBlockManager(std::size_t total_blocks, std::size_t block_tokens);

  /// Registers a new sequence with `prompt_tokens` tokens; allocates
  /// ceil(prompt/block) blocks.  Returns false (and allocates nothing) if the
  /// pool cannot satisfy it.
  bool AddSequence(SeqId id, std::size_t prompt_tokens);

  /// Appends one generated token; allocates a fresh block on a block
  /// boundary and otherwise writes into the sequence's own tail block.
  /// Returns false on OOM (sequence state is unchanged).
  bool AppendToken(SeqId id);

  /// A live sequence's slab slot, the handle AppendTokens takes, or kNoSlot.
  /// The slot stays the sequence's until it is freed or exported.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  [[nodiscard]] std::uint32_t Slot(SeqId id) const {
    const std::size_t i = ids_.Find(id);
    return i == FlatKeyTable::kAbsent ? kNoSlot : ids_.value(i) - 1;
  }

  /// Appends `k` tokens to each sequence in `slots` (live slots, in batch
  /// order): the tokens and blocks k rounds of AppendToken over the batch
  /// would add, with every block id the same, since blocks leave the free
  /// list in the same (round, batch position) order.  Returns false, changing
  /// nothing, when the free list cannot cover every block boundary the k
  /// rounds cross.  No id is probed: the caller keeps the slots.
  bool AppendTokens(std::span<const std::uint32_t> slots, std::size_t k);
  /// The largest k <= `limit` for which AppendTokens(slots, k) would succeed
  /// on the blocks free now.
  [[nodiscard]] std::size_t CoveredRounds(std::span<const std::uint32_t> slots,
                                          std::size_t limit) const;
  /// The largest k for which AppendTokens(slots, k) takes no block: the
  /// least free room in any of the sequences' tail blocks (0 when one is
  /// full).  Those rounds leave the free list, and so free_blocks(), as is.
  [[nodiscard]] std::size_t TailRoom(
      std::span<const std::uint32_t> slots) const;

  /// Releases a sequence; all its blocks return to the free list.
  void Free(SeqId id);

  /// Detaches a sequence for migration: captures its descriptor, then frees
  /// it locally, returning all its blocks.  An unknown id exports as
  /// {id, 0, 0}.
  [[nodiscard]] KvExport Export(SeqId id);

  /// Materializes an exported sequence in this pool, allocating fresh blocks
  /// for every token and re-registering the carried prefix hashes.  Returns
  /// false (allocating nothing) when the id is already present or the pool
  /// cannot satisfy it.
  bool Import(const KvExport& exported);

  /// Publishes a sequence's prefix-block hashes in this pool's index (call
  /// once its KV actually holds them — at prefill completion or import).
  /// Free and Export drop the registration automatically; re-registering an
  /// id replaces its previous registration.  Several sequences may register
  /// the same hashes: the index keeps a hash until its last holder drops it.
  void RegisterPrefix(SeqId id, std::span<const std::uint64_t> hashes);
  /// Hashes currently registered for a sequence (empty if none).  The span
  /// is valid until the next call that adds a sequence.
  [[nodiscard]] std::span<const std::uint64_t> RegisteredPrefix(
      SeqId id) const;
  /// The replica-wide resident-prefix index (routing reads this).
  [[nodiscard]] const PrefixIndex& prefix_index() const {
    return prefix_index_;
  }

  [[nodiscard]] std::size_t total_blocks() const { return total_blocks_; }
  [[nodiscard]] std::size_t free_blocks() const { return free_list_.size(); }
  /// The free block ids; the next allocation takes the back one.
  [[nodiscard]] std::span<const std::size_t> free_list() const {
    return free_list_;
  }
  [[nodiscard]] std::size_t used_blocks() const {
    return total_blocks() - free_blocks();
  }
  [[nodiscard]] std::size_t block_tokens() const { return block_tokens_; }
  [[nodiscard]] bool HasSequence(SeqId id) const {
    return ids_.Find(id) != FlatKeyTable::kAbsent;
  }
  [[nodiscard]] std::size_t SequenceTokens(SeqId id) const;
  /// The sequence's physical block ids in token order (empty if unknown).
  /// The reference is valid until the next call that adds a sequence.
  [[nodiscard]] const std::vector<std::size_t>& BlockTable(SeqId id) const;
  /// Blocks a new sequence of `tokens` tokens would need.
  [[nodiscard]] std::size_t BlocksNeeded(std::size_t tokens) const {
    return (tokens + block_tokens_ - 1) / block_tokens_;
  }
  [[nodiscard]] bool CanAllocate(std::size_t blocks) const {
    return free_blocks() >= blocks;
  }

 private:
  struct Sequence {
    std::vector<std::size_t> blocks;
    std::size_t tokens = 0;
    /// Prefix hashes this sequence has published in the index (subset of the
    /// prompt's signature; empty until RegisterPrefix).
    std::vector<std::uint64_t> prefix_hashes;
  };

  /// The live sequence with `id`, or nullptr.
  [[nodiscard]] const Sequence* Find(SeqId id) const;
  [[nodiscard]] Sequence* Find(SeqId id);
  /// Sequence in `ids_` slot `i` (an index ids_.Find returned).
  [[nodiscard]] Sequence& At(std::size_t i) { return slab_[ids_.value(i) - 1]; }
  /// Registers an absent id on a cleared slab slot and returns it.  May grow
  /// the slab and the table: references and indices taken before it are
  /// invalid after.
  Sequence& Insert(SeqId id);
  /// Drops the sequence's hashes from the index; its own list is untouched.
  void UnregisterPrefix(const Sequence& seq);
  /// Releases the blocks of the sequence in `ids_` slot `i`, clears its slab
  /// slot for reuse and forgets the id (no index update).
  void Erase(std::size_t i);

  std::size_t block_tokens_;
  std::size_t total_blocks_;
  /// LIFO stack of free block ids; the top is back().
  std::vector<std::size_t> free_list_;
  /// Determinism audit: `ids_` maps a live id to its slab slot + 1 and is
  /// used for keyed lookup and erase only — never iterated.  Which slab slot
  /// a sequence gets (the most recently freed one, else a new one) is a pure
  /// function of the call sequence and invisible outside.  Block accounting
  /// reads `free_list_` and the block tables instead.
  FlatKeyTable ids_;
  /// Sequence storage.  A freed slot is cleared but keeps the capacity of
  /// its vectors, so a sequence no longer than the slot's earlier ones
  /// reuses them without allocating.
  std::vector<Sequence> slab_;
  std::vector<std::uint32_t> free_slots_;  ///< cleared slab slots, LIFO
  /// AppendTokens scratch: (first boundary round, batch position) pairs.
  std::vector<std::pair<std::size_t, std::size_t>> boundaries_;
  PrefixIndex prefix_index_;
};

}  // namespace liquid::serving
