#include "serving/workload.hpp"

#include <gtest/gtest.h>

#include "serving/scheduler.hpp"

namespace liquid::serving {
namespace {

TEST(WorkloadTest, TraceIsDeterministicAndOrdered) {
  TraceConfig cfg;
  cfg.count = 50;
  const auto a = GenerateTrace(cfg, 7);
  const auto b = GenerateTrace(cfg, 7);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
    if (i > 0) {
      EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
    }
  }
}

TEST(WorkloadTest, LengthsWithinBounds) {
  TraceConfig cfg;
  cfg.count = 200;
  cfg.prompt_min = 64;
  cfg.prompt_max = 512;
  cfg.output_min = 16;
  cfg.output_max = 128;
  for (const auto& r : GenerateTrace(cfg, 11)) {
    EXPECT_GE(r.prompt_tokens, cfg.prompt_min);
    EXPECT_LE(r.prompt_tokens, cfg.prompt_max);
    EXPECT_GE(r.max_new_tokens, cfg.output_min);
    EXPECT_LE(r.max_new_tokens, cfg.output_max);
  }
}

TEST(WorkloadTest, ArrivalRateApproximatelyRespected) {
  TraceConfig cfg;
  cfg.count = 2000;
  cfg.arrival_rate_per_s = 10.0;
  const auto trace = GenerateTrace(cfg, 3);
  const double span = trace.back().arrival_seconds;
  const double rate = static_cast<double>(cfg.count) / span;
  EXPECT_NEAR(rate, 10.0, 1.0);
}

TEST(WorkloadTest, TimingDerivedMetrics) {
  RequestTiming t;
  t.arrival = 1.0;
  t.first_token = 1.5;
  t.finish = 3.5;
  t.generated = 5;
  EXPECT_DOUBLE_EQ(t.Ttft(), 0.5);
  EXPECT_DOUBLE_EQ(t.Tpot(), 0.5);  // 4 further tokens over 2 s
  EXPECT_DOUBLE_EQ(t.EndToEnd(), 2.5);
}

TEST(WorkloadTest, SchedulerHonorsArrivals) {
  const auto hw = simgpu::HardwareSpec::H800();
  const ServingEngine engine(hw, SystemPreset::LiquidServe(),
                             LlmConfig::Llama2_7B());
  ContinuousBatchScheduler sched(engine, 4096, 16);
  // One immediate request and one far in the future.
  sched.Submit(Request::FromTimed({0, 0.0, 32, 4}));
  sched.Submit(Request::FromTimed({1, 100.0, 32, 4}));
  (void)sched.RunToCompletion();
  ASSERT_EQ(sched.completions().size(), 2u);
  const auto& late = sched.completions().back();
  EXPECT_EQ(late.id, 1u);
  // The clock fast-forwarded to its arrival; TTFT stays small.
  EXPECT_GE(late.first_token, 100.0);
  EXPECT_LT(late.Ttft(), 1.0);
}

TEST(WorkloadTest, EndToEndTraceThroughScheduler) {
  const auto hw = simgpu::HardwareSpec::H800();
  const ServingEngine engine(hw, SystemPreset::LiquidServe(),
                             LlmConfig::Llama2_7B());
  ContinuousBatchScheduler sched(engine, 8192, 16, 64);
  TraceConfig cfg;
  cfg.count = 24;
  cfg.arrival_rate_per_s = 50.0;
  cfg.prompt_min = 32;
  cfg.prompt_max = 128;
  cfg.output_min = 8;
  cfg.output_max = 32;
  const std::vector<TimedRequest> trace = GenerateTrace(cfg, 42);
  for (const TimedRequest& r : trace) sched.Submit(Request::FromTimed(r));
  const SchedulerStats stats = sched.RunToCompletion();
  EXPECT_EQ(stats.completed, 24u);
  ASSERT_EQ(sched.completions().size(), 24u);
  double generated = 0;
  for (const RequestTiming& t : sched.completions()) {
    const TimedRequest& r = trace[t.id];
    EXPECT_EQ(t.arrival, r.arrival_seconds);
    EXPECT_GT(t.Ttft(), 0);
    EXPECT_GE(t.finish, t.first_token);
    EXPECT_EQ(t.generated, r.max_new_tokens);
    if (t.generated > 1) {
      EXPECT_GT(t.Tpot(), 0);
    }
    generated += static_cast<double>(t.generated);
  }
  EXPECT_EQ(stats.generated_tokens, generated);
  EXPECT_GT(stats.TokensPerSecond(), 0);
}

}  // namespace
}  // namespace liquid::serving
