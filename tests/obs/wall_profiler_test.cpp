// WallProfiler exporter goldens.  Times are injected through the public
// Enter/Leave API (nanosecond arguments, no real clock), so every golden
// here is byte-deterministic and holds under both LIQUID_PROFILE build
// modes.  The macro-path tests are additionally guarded on
// LIQUID_PROF_ENABLED so the -DLIQUID_PROFILE=OFF CI build still passes.

#include <gtest/gtest.h>

#include <string>

#include "obs/prof/wall_profiler.hpp"
#include "util/json.hpp"

namespace liquid::obs {
namespace {

/// The canonical injected tree:
///   sim/run            1 call, 100us total
///     router/route_one 3 calls, 30us total
///     sim/events       2 calls, 50us total
///       sim/events/tick 2 calls, 20us total
void BuildCanonicalTree(WallProfiler& prof) {
  prof.Enter("sim/run");
  for (int i = 0; i < 3; ++i) {
    prof.Enter("router/route_one");
    prof.Leave(10'000);
  }
  for (int i = 0; i < 2; ++i) {
    prof.Enter("sim/events");
    prof.Enter("sim/events/tick");
    prof.Leave(10'000);
    prof.Leave(25'000);
  }
  prof.Leave(100'000);
}

TEST(WallProfilerTest, TextSummaryCountsGolden) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  BuildCanonicalTree(prof);
  // Children print in byte-wise name order ('r' < 's'), not entry order.
  EXPECT_EQ(prof.TextSummary(/*include_times=*/false),
            "wall-profile\n"
            "  sim/run  count=1\n"
            "    router/route_one  count=3\n"
            "    sim/events  count=2\n"
            "      sim/events/tick  count=2\n");
}

TEST(WallProfilerTest, TextSummaryWithInjectedTimes) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  BuildCanonicalTree(prof);
  // Injected durations make even the timed columns deterministic.
  // self(sim/run) = 100us - 30us - 50us = 20us.
  EXPECT_EQ(prof.TextSummary(),
            "wall-profile total_ms=0.100\n"
            "  sim/run  count=1 total_ms=0.100 self_ms=0.020\n"
            "    router/route_one  count=3 total_ms=0.030 self_ms=0.030\n"
            "    sim/events  count=2 total_ms=0.050 self_ms=0.030\n"
            "      sim/events/tick  count=2 total_ms=0.020 self_ms=0.020\n");
}

TEST(WallProfilerTest, CsvGolden) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  BuildCanonicalTree(prof);
  EXPECT_EQ(prof.Csv(/*include_times=*/false),
            "path,count\n"
            "sim/run,1\n"
            "sim/run/router/route_one,3\n"
            "sim/run/sim/events,2\n"
            "sim/run/sim/events/sim/events/tick,2\n");
  EXPECT_EQ(prof.Csv(),
            "path,count,total_ns,self_ns\n"
            "sim/run,1,100000,20000\n"
            "sim/run/router/route_one,3,30000,30000\n"
            "sim/run/sim/events,2,50000,30000\n"
            "sim/run/sim/events/sim/events/tick,2,20000,20000\n");
}

TEST(WallProfilerTest, CollapsedStacksGolden) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  BuildCanonicalTree(prof);
  EXPECT_EQ(prof.CollapsedStacks(),
            "sim/run 20000\n"
            "sim/run;router/route_one 30000\n"
            "sim/run;sim/events 30000\n"
            "sim/run;sim/events;sim/events/tick 20000\n");
}

TEST(WallProfilerTest, SpeedscopeJsonSchema) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  BuildCanonicalTree(prof);
  const std::string json = prof.SpeedscopeJson();
  ASSERT_TRUE(JsonSyntaxValid(json));
  EXPECT_NE(json.find("\"$schema\":\"https://www.speedscope.app/"
                      "file-format-schema.json\""),
            std::string::npos);
  EXPECT_NE(json.find("\"type\":\"sampled\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"nanoseconds\""), std::string::npos);
  // endValue == sum of self weights == the root's 100us.
  EXPECT_NE(json.find("\"endValue\":100000"), std::string::npos);
  // One frame entry per distinct scope name.
  EXPECT_NE(json.find("{\"name\":\"sim/run\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"sim/events/tick\"}"), std::string::npos);
}

TEST(WallProfilerTest, SelfTimeClampsAtZero) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  // Child reports MORE time than its parent (timer overhead skew): self must
  // clamp at 0, not wrap around as unsigned.
  prof.Enter("outer");
  prof.Enter("inner");
  prof.Leave(5'000);
  prof.Leave(1'000);
  EXPECT_EQ(prof.Csv(),
            "path,count,total_ns,self_ns\n"
            "outer,1,1000,0\n"
            "outer/inner,1,5000,5000\n");
}

TEST(WallProfilerTest, ResetDropsEverything) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  BuildCanonicalTree(prof);
  prof.Reset();
  EXPECT_EQ(prof.TextSummary(/*include_times=*/false),
            "wall-profile\n");
  EXPECT_EQ(prof.Csv(/*include_times=*/false), "path,count\n");
  EXPECT_EQ(prof.CollapsedStacks(), "");
}

TEST(WallProfilerTest, DisabledScopeRecordsNothing) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  WallProfiler::Disable();
  { WallProfileScope scope("never"); }
  EXPECT_EQ(prof.TextSummary(/*include_times=*/false),
            "wall-profile\n");
}

TEST(WallProfilerTest, EnabledScopeRecordsRealTime) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  WallProfiler::Enable();
  {
    WallProfileScope outer("scope/outer");
    WallProfileScope inner("scope/inner");
  }
  WallProfiler::Disable();
  EXPECT_EQ(prof.Csv(/*include_times=*/false),
            "path,count\n"
            "scope/outer,1\n"
            "scope/outer/scope/inner,1\n");
}

#if LIQUID_PROF_ENABLED
TEST(WallProfilerTest, MacroRecordsWhenCompiledInAndEnabled) {
  WallProfiler& prof = WallProfiler::Instance();
  prof.Reset();
  WallProfiler::Enable();
  {
    LIQUID_PROF_SCOPE("macro/outer");
    for (int i = 0; i < 3; ++i) {
      LIQUID_PROF_SCOPE("macro/inner");
    }
  }
  WallProfiler::Disable();
  EXPECT_EQ(prof.Csv(/*include_times=*/false),
            "path,count\n"
            "macro/outer,1\n"
            "macro/outer/macro/inner,3\n");
}
#endif

}  // namespace
}  // namespace liquid::obs
