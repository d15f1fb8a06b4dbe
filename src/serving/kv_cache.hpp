#pragma once
// PagedAttention-style KV-cache block manager (paper Section 6; Kwon et al.,
// SOSP'23).  A real allocator, not a byte counter: fixed-size token blocks,
// per-sequence block tables, reference-counted sharing (prefix forking) with
// copy-on-write on append, and exact accounting the serving engine uses to
// decide the out-of-memory points of Table 1.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace liquid::serving {

using SeqId = std::uint64_t;

/// Multiset of prefix-block hashes resident in one replica's KV pool — the
/// per-replica half of the fleet-wide prefix-cache index.  The router scores
/// placement by the longest leading run of a request's signature found here;
/// the scheduler skips that run's prefill compute.  Counts are references
/// (several sequences can hold the same preamble), so a block's hash leaves
/// the index only when its last holder frees; removing an absent hash is a
/// no-op.
///
/// Storage is one flat open-addressing table: a power-of-two vector of
/// {hash, count} slots where count 0 marks an empty slot, linear probing
/// from a multiplicative (Fibonacci) home slot, and backward-shift deletion,
/// so there are no tombstones.  It allocates nothing until the first Add,
/// doubles when an insert would pass 7/8 full, and never shrinks: once grown
/// to a replica's working set, Add and Remove neither allocate nor free.
class PrefixIndex {
 public:
  void Add(std::uint64_t hash);
  void Remove(std::uint64_t hash);
  [[nodiscard]] bool Contains(std::uint64_t hash) const {
    return Find(hash) != kAbsent;
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
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots allocated (0 before the first Add; a power of two after).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Slot a hash probes first in a table of `capacity` slots (a power of
  /// two): the top log2(capacity) bits of hash × 2^64/φ.  Public so tests
  /// can build keys that collide.
  [[nodiscard]] static std::size_t HomeSlot(std::uint64_t hash,
                                            std::size_t capacity) {
    return static_cast<std::size_t>(
        (hash * 0x9E3779B97F4A7C15ull) >> (64 - std::countr_zero(capacity)));
  }

 private:
  // Packed to 12 bytes (4-byte aligned): a quarter less memory per slot
  // than the naturally padded 16, for the same one-load hash compare on
  // targets with unaligned loads.
#pragma pack(push, 4)
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t count = 0;  ///< 0 = empty slot
  };
#pragma pack(pop)
  static_assert(sizeof(Slot) == 12);
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  /// Index of `hash`'s slot, or kAbsent.
  [[nodiscard]] std::size_t Find(std::uint64_t hash) const {
    if (slots_.empty()) return kAbsent;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = HomeSlot(hash, slots_.size());;
         i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.count == 0) return kAbsent;
      if (s.hash == hash) return i;
    }
  }
  void Grow();

  /// Determinism audit: which slot holds a hash is a pure function of the
  /// Add/Remove sequence (fixed multiplier, fixed probe order, fixed growth
  /// points), so the layout is reproducible run to run.  Even so, nothing
  /// observable depends on it: Grow is the only walk over the slots, and it
  /// only reinserts them; every query is a keyed lookup.
  std::vector<Slot> slots_;
  std::size_t size_ = 0;  ///< occupied slots
  std::uint64_t epoch_ = 0;
};

/// Descriptor of a sequence's KV state detached from any one block manager —
/// the unit of (simulated) KV migration between replicas.  Blocks are the
/// logical count a fresh Import() allocates; physical sharing (forked
/// prefixes) does not survive the wire, so an imported sequence is dense.
/// The prefix hashes DO survive it: migrated KV carries its identity, so the
/// destination's index immediately advertises the moved blocks.
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
  /// boundary, or copy-on-writes a shared tail block.  Returns false on OOM
  /// (sequence state is unchanged).
  bool AppendToken(SeqId id);

  /// Forks `child` from `parent` (beam search / prefix sharing): the child
  /// shares all parent blocks, bumping reference counts.  O(blocks).
  bool Fork(SeqId parent, SeqId child);

  /// Releases a sequence; blocks with refcount hitting zero return to the
  /// free list.
  void Free(SeqId id);

  /// Detaches a sequence for migration: captures its descriptor, then frees
  /// it locally (refcount-aware — blocks shared with a forked sibling only
  /// drop a reference).  An unknown id exports as {id, 0, 0}.
  [[nodiscard]] KvExport Export(SeqId id);

  /// Materializes an exported sequence in this pool, allocating fresh blocks
  /// for every token and re-registering the carried prefix hashes.  Returns
  /// false (allocating nothing) when the id is already present or the pool
  /// cannot satisfy it.
  bool Import(const KvExport& exported);

  /// Publishes a sequence's prefix-block hashes in this pool's index (call
  /// once its KV actually holds them — at prefill completion or import).
  /// Free/Export/Fork maintain the registration automatically from then on;
  /// re-registering an id replaces its previous registration.
  void RegisterPrefix(SeqId id, std::span<const std::uint64_t> hashes);
  /// Hashes currently registered for a sequence (empty if none).
  [[nodiscard]] std::span<const std::uint64_t> RegisteredPrefix(
      SeqId id) const;
  /// The replica-wide resident-prefix index (routing reads this).
  [[nodiscard]] const PrefixIndex& prefix_index() const {
    return prefix_index_;
  }

  [[nodiscard]] std::size_t total_blocks() const { return ref_counts_.size(); }
  [[nodiscard]] std::size_t free_blocks() const { return free_list_.size(); }
  [[nodiscard]] std::size_t used_blocks() const {
    return total_blocks() - free_blocks();
  }
  [[nodiscard]] std::size_t block_tokens() const { return block_tokens_; }
  [[nodiscard]] bool HasSequence(SeqId id) const {
    return sequences_.contains(id);
  }
  [[nodiscard]] std::size_t SequenceTokens(SeqId id) const;
  [[nodiscard]] const std::vector<std::size_t>& BlockTable(SeqId id) const;
  /// Blocks a new sequence of `tokens` tokens would need.
  [[nodiscard]] std::size_t BlocksNeeded(std::size_t tokens) const {
    return (tokens + block_tokens_ - 1) / block_tokens_;
  }
  [[nodiscard]] bool CanAllocate(std::size_t blocks) const {
    return free_blocks() >= blocks;
  }
  /// Copy-on-write events triggered so far (observability for tests).
  [[nodiscard]] std::size_t cow_count() const { return cow_count_; }

 private:
  struct Sequence {
    std::vector<std::size_t> blocks;
    std::size_t tokens = 0;
    /// Prefix hashes this sequence has published in the index (subset of the
    /// prompt's signature; empty until RegisterPrefix).
    std::vector<std::uint64_t> prefix_hashes;
  };

  using SequenceMap = std::unordered_map<SeqId, Sequence>;

  std::optional<std::size_t> AllocBlock();
  void ReleaseBlock(std::size_t block);
  /// Drops the sequence's hashes from the index; its own list is untouched.
  void UnregisterPrefix(const Sequence& seq);
  /// Releases the sequence's blocks and forgets it (no index update).
  void Erase(SequenceMap::iterator it);

  std::size_t block_tokens_;
  std::vector<std::uint32_t> ref_counts_;
  std::vector<std::size_t> free_list_;
  /// Determinism audit: keyed lookup/erase only — never iterated; block
  /// accounting walks the vectors above instead.
  SequenceMap sequences_;
  std::size_t cow_count_ = 0;
  PrefixIndex prefix_index_;
};

}  // namespace liquid::serving
