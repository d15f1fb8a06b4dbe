// Wall-clock scope profiler for the simulator's own host cost.
//
// The trace recorder observes the *simulated* clock; this observes the
// *wall* clock the simulator burns advancing it.  `LIQUID_PROF_SCOPE("name")`
// drops a RAII timer that accumulates (count, total wall ns) into one
// hierarchical scope tree; exporters fold it into strcmp order and emit a
// deterministic-ordering text/CSV summary, collapsed stacks for
// flamegraph.pl / speedscope "folded" import, and a native speedscope JSON
// profile.
//
// One tree, one cursor: every scope must open and close on the thread that
// drives the simulation.  The profiler takes no lock, so a
// `LIQUID_PROF_SCOPE` inside an OpenMP region (or any other worker thread)
// is a bug — it would race on the cursor and corrupt the tree.
//
// Cost model, so it can live on hot paths:
//   - Build-time: `-DLIQUID_PROFILE=OFF` (CMake option) compiles the macro to
//     nothing — zero tokens in the instrumented TU beyond an empty statement.
//     A TU may also pre-define LIQUID_PROF_ENABLED (0 or 1) before including
//     this header to override the build-wide default (the compile-out test
//     uses this to prove emptiness inside a LIQUID_PROFILE=ON build).
//   - Run-time: scopes are inert until `WallProfiler::Enable()` — the macro's
//     constructor is one load of a plain flag and a branch when disabled, so
//     default runs (and both arms of the telemetry-overhead A/B gate) pay the
//     same negligible cost.
//
// `Enter`/`Leave` are public and flag-independent: exporter golden tests call
// them directly with injected nanosecond values, so schema/ordering goldens
// hold in both build modes.  Times in exports are wall-clock and therefore
// nondeterministic; every exporter takes (or implies) an `include_times`
// switch so tests can pin the deterministic part (tree shape + counts) alone.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/wall_timer.hpp"

#if !defined(LIQUID_PROF_ENABLED)
#if defined(LIQUID_PROFILE) && LIQUID_PROFILE
#define LIQUID_PROF_ENABLED 1
#else
#define LIQUID_PROF_ENABLED 0
#endif
#endif

namespace liquid::obs {

/// One scope in the profiler's tree.  `name` must be a string with static
/// storage duration (the tree stores the pointer, not a copy); child lookup
/// compares pointers first and falls back to strcmp so the same literal
/// spelled in two TUs still merges.
struct ProfNode {
  const char* name = nullptr;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  ProfNode* parent = nullptr;
  std::vector<std::unique_ptr<ProfNode>> children;  // first-entry order
};

class WallProfiler {
 public:
  /// Process-wide singleton (scope macros need a zero-argument path).
  static WallProfiler& Instance();
  WallProfiler() = default;
  // cursor_ points into root_, so a copy or move would dangle.
  WallProfiler(const WallProfiler&) = delete;
  WallProfiler& operator=(const WallProfiler&) = delete;

  /// Runtime master switch for the macros.  Off by default: binaries opt in
  /// (e.g. when `--profile-out` is passed).
  [[nodiscard]] static bool Enabled() { return enabled_; }
  static void Enable() { enabled_ = true; }
  static void Disable() { enabled_ = false; }

  /// Drops the recorded tree.  Only call while no scope is open (a live
  /// scope's node would be dropped under it).
  void Reset();

  /// Manual scope API — what the macro-generated RAII objects call, public
  /// so tests can build trees with injected deterministic durations.
  void Enter(const char* name);
  void Leave(std::uint64_t elapsed_ns);

  /// Human-readable indented tree, children in byte-wise (strcmp) name
  /// order.  `include_times=false` omits every wall-derived column, leaving
  /// byte-deterministic output under a fixed seed.
  [[nodiscard]] std::string TextSummary(bool include_times = true) const;

  /// `path,count[,total_ns,self_ns]` rows, DFS over the strcmp-ordered
  /// tree; `path` is '/'-joined.
  [[nodiscard]] std::string Csv(bool include_times = true) const;

  /// Brendan-Gregg folded stacks: `a;b;c <self_ns>` per node, suitable for
  /// flamegraph.pl and speedscope's folded importer.
  [[nodiscard]] std::string CollapsedStacks() const;

  /// Native speedscope JSON ("sampled" profile, one weighted sample per
  /// scope path, weight = self ns).
  [[nodiscard]] std::string SpeedscopeJson() const;

  /// strcmp-ordered view of the tree; defined in the .cpp and public only
  /// so exporter helpers can name it.
  struct Merged;

 private:
  /// Folds the tree into strcmp order (first-entry order is for Enter's
  /// lookup; exports need a deterministic order).
  [[nodiscard]] Merged Fold() const;

  static bool enabled_;

  ProfNode root_;               ///< synthetic root; its children are scopes
  ProfNode* cursor_ = &root_;   ///< innermost open scope (root_ when none)
};

/// RAII timer the LIQUID_PROF_SCOPE macro expands to.  Checks the runtime
/// flag once in the constructor; a disabled scope does no other work.
class WallProfileScope {
 public:
  explicit WallProfileScope(const char* name) {
    if (!WallProfiler::Enabled()) return;
    active_ = true;
    WallProfiler::Instance().Enter(name);
    start_ns_ = WallTimer::NowNs();
  }
  ~WallProfileScope() {
    if (!active_) return;
    WallProfiler::Instance().Leave(WallTimer::NowNs() - start_ns_);
  }
  WallProfileScope(const WallProfileScope&) = delete;
  WallProfileScope& operator=(const WallProfileScope&) = delete;

 private:
  std::uint64_t start_ns_ = 0;
  bool active_ = false;
};

}  // namespace liquid::obs

#if LIQUID_PROF_ENABLED
#define LIQUID_PROF_CONCAT_INNER(a, b) a##b
#define LIQUID_PROF_CONCAT(a, b) LIQUID_PROF_CONCAT_INNER(a, b)
/// Times the enclosing block under `name` (a static-storage string).
#define LIQUID_PROF_SCOPE(name)                          \
  ::liquid::obs::WallProfileScope LIQUID_PROF_CONCAT(    \
      liquid_prof_scope_, __LINE__)(name)
#else
// Expands to nothing: the trailing ';' at the use site is an empty statement.
#define LIQUID_PROF_SCOPE(name)
#endif
