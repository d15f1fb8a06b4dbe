// Compile-out proof: with profiling disabled, LIQUID_PROF_SCOPE must expand
// to NOTHING — not a disabled object, zero tokens.  This TU force-disables
// the macro via the LIQUID_PROF_ENABLED override (so the proof also runs
// inside a -DLIQUID_PROFILE=ON build) and checks the expansion both ways:
// a preprocessor stringize shows the literal emptiness, and a runtime pass
// shows an enabled profiler still records nothing through the macro.

#define LIQUID_PROF_ENABLED 0
#include "obs/prof/wall_profiler.hpp"

#include <gtest/gtest.h>

namespace liquid::obs {
namespace {

#define LIQ_STR_INNER(x) #x
#define LIQ_STR(x) LIQ_STR_INNER(x)

// Stringizing "(<expansion of the macro>)" must yield exactly "()": the
// macro contributed zero tokens.
static_assert(sizeof(LIQ_STR((LIQUID_PROF_SCOPE("x")))) == sizeof("()"),
              "LIQUID_PROF_SCOPE must expand to nothing when disabled");

TEST(ProfMacrosOffTest, MacroRecordsNothingEvenWhenProfilerEnabled) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  WallProfiler::Enable();
  {
    LIQUID_PROF_SCOPE("compiled/out");
    LIQUID_PROF_SCOPE("also/compiled/out");
  }
  WallProfiler::Disable();
  EXPECT_EQ(prof.TextSummary(/*include_times=*/false),
            "wall-profile\n");
}

}  // namespace
}  // namespace liquid::obs
