#pragma once
// Append-only memo of a pure cost function of one integer.
//
// ServingEngine prices every step with the simgpu roofline walk, a pure
// function of the GEMM row count.  The engine keys its tables by the count's
// row class (simgpu::EquivalentRows), which the walk prices identically to
// the count, except an MoE layer's table, which keys by the count itself;
// this memo only sees the key.

#include <array>
#include <cstddef>
#include <memory>

namespace liquid::serving {

/// Memo of a pure, non-negative function f(m).
///
/// Layout: a fixed directory of kPages page pointers; a page holds
/// kPageSlots doubles, where -1 means "not priced yet".  The first query
/// that lands in a page allocates it, so memory grows only with the key
/// ranges actually priced.  Counts at or past kCapacity are computed
/// directly, uncached.
class CostTable {
 public:
  static constexpr std::size_t kPageSlots = 1024;  ///< 8 KB per page
  static constexpr std::size_t kPages = 1024;      ///< 8 KB directory
  static constexpr std::size_t kCapacity = kPageSlots * kPages;

  /// f(m), priced by `cost(m)` on first use.
  template <typename Cost>
  double Get(std::size_t m, const Cost& cost) {
    if (m >= kCapacity) return cost(m);
    std::unique_ptr<Page>& page = pages_[m / kPageSlots];
    if (page == nullptr) {
      page = std::make_unique<Page>();
      page->fill(-1.0);
    }
    double& slot = (*page)[m % kPageSlots];
    if (slot < 0) slot = cost(m);
    return slot;
  }

 private:
  using Page = std::array<double, kPageSlots>;

  std::array<std::unique_ptr<Page>, kPages> pages_{};
};

}  // namespace liquid::serving
