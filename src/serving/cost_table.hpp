#pragma once
// Lock-free, append-only memo of a pure cost function of one integer.
//
// ServingEngine prices every step with the simgpu roofline walk, a pure
// function of the GEMM row count.  The engine keys its tables by the count's
// row class (simgpu::EquivalentRows), which the walk prices identically to
// the count, except an MoE layer's table, which keys by the count itself;
// this memo only sees the key.  Engines are shared by identically
// configured fleet replicas, and the parallel cluster runtime steps replicas
// on several threads at once, so the memo in front of that walk must be safe
// to query concurrently without a lock on the hot path.

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>

namespace liquid::serving {

/// Memo of a pure, non-negative function f(m), safe to query from any number
/// of threads at once.
///
/// Layout: a fixed directory of kPages page pointers; a page holds
/// kPageSlots `std::atomic<double>` slots, where -1 means "not priced yet".
/// The first query that lands in a page allocates it and publishes it with a
/// compare-and-swap; the loser of a publish race frees its page and uses the
/// winner's.  Published pages never move and live as long as the table.
/// Slot loads and stores are relaxed: threads that race to fill one slot all
/// store the bits f(m) returns, so whichever store lands, every later read
/// returns exactly what a direct call would.  Counts at or past kCapacity
/// are computed directly, uncached.
class CostTable {
 public:
  static constexpr std::size_t kPageSlots = 1024;  ///< 8 KB per page
  static constexpr std::size_t kPages = 1024;      ///< 8 KB directory
  static constexpr std::size_t kCapacity = kPageSlots * kPages;

  CostTable() = default;
  ~CostTable() {
    for (const std::atomic<Page*>& page : pages_) {
      delete page.load(std::memory_order_relaxed);
    }
  }
  CostTable(const CostTable&) = delete;
  CostTable& operator=(const CostTable&) = delete;

  /// f(m), priced by `cost(m)` on first use.
  template <typename Cost>
  double Get(std::size_t m, const Cost& cost) {
    if (m >= kCapacity) return cost(m);
    Page* page = pages_[m / kPageSlots].load(std::memory_order_acquire);
    if (page == nullptr) page = Publish(m / kPageSlots);
    std::atomic<double>& slot = (*page)[m % kPageSlots];
    double value = slot.load(std::memory_order_relaxed);
    if (value < 0) {
      value = cost(m);
      slot.store(value, std::memory_order_relaxed);
    }
    return value;
  }

 private:
  using Page = std::array<std::atomic<double>, kPageSlots>;
  static_assert(std::atomic<double>::is_always_lock_free);

  /// Installs page `index` unless another thread already has; returns the
  /// published page either way.
  Page* Publish(std::size_t index) {
    auto fresh = std::make_unique<Page>();
    for (std::atomic<double>& slot : *fresh) {
      slot.store(-1.0, std::memory_order_relaxed);
    }
    Page* expected = nullptr;
    if (pages_[index].compare_exchange_strong(expected, fresh.get(),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return fresh.release();
    }
    return expected;
  }

  std::array<std::atomic<Page*>, kPages> pages_{};
};

}  // namespace liquid::serving
