// ParseCliFlags: the shared bench/example flag parser.  Both `--flag value`
// and `--flag=value` spellings, defaults when a flag is absent, and the
// fall-through of everything it does not own into `positional`, in order.

#include "util/cli_flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace liquid {
namespace {

/// Builds an argv (program name first) over `args` and parses it.
CliFlags Parse(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return ParseCliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(CliFlagsTest, NoArgumentsGivesDefaults) {
  const CliFlags flags = Parse({});
  EXPECT_FALSE(flags.quick);
  EXPECT_FALSE(flags.seed_set);
  EXPECT_EQ(flags.seed, 0u);
  EXPECT_TRUE(flags.trace_out.empty());
  EXPECT_TRUE(flags.json_out.empty());
  EXPECT_TRUE(flags.profile_out.empty());
  EXPECT_TRUE(flags.positional.empty());
  EXPECT_FALSE(flags.WantsTrace());
  EXPECT_FALSE(flags.WantsMetrics());
}

TEST(CliFlagsTest, SpaceSeparatedValues) {
  const CliFlags flags =
      Parse({"--quick", "--seed", "42", "--trace-out", "t.json",
             "--trace-jsonl", "t.jsonl", "--metrics-out", "m.jsonl",
             "--metrics-csv", "m.csv", "--json-out", "s.json",
             "--profile-out", "prof"});
  EXPECT_TRUE(flags.quick);
  EXPECT_TRUE(flags.seed_set);
  EXPECT_EQ(flags.seed, 42u);
  EXPECT_EQ(flags.trace_out, "t.json");
  EXPECT_EQ(flags.trace_jsonl, "t.jsonl");
  EXPECT_EQ(flags.metrics_out, "m.jsonl");
  EXPECT_EQ(flags.metrics_csv, "m.csv");
  EXPECT_EQ(flags.json_out, "s.json");
  EXPECT_EQ(flags.profile_out, "prof");
  EXPECT_TRUE(flags.positional.empty());
}

TEST(CliFlagsTest, EqualsSeparatedValues) {
  const CliFlags flags =
      Parse({"--seed=18446744073709551615", "--trace-out=a=b.json",
             "--json-out="});
  EXPECT_TRUE(flags.seed_set);
  EXPECT_EQ(flags.seed, 18446744073709551615ull);
  // Only the first '=' separates; the rest belongs to the value.
  EXPECT_EQ(flags.trace_out, "a=b.json");
  EXPECT_TRUE(flags.json_out.empty());
  EXPECT_TRUE(flags.positional.empty());
}

TEST(CliFlagsTest, ExplicitZeroSeedIsStillSet) {
  const CliFlags flags = Parse({"--seed", "0"});
  EXPECT_TRUE(flags.seed_set);
  EXPECT_EQ(flags.seed, 0u);
}

TEST(CliFlagsTest, UnknownArgumentsStayPositionalInOrder) {
  const CliFlags flags =
      Parse({"prefix_aware", "--quick", "8", "--bogus", "--seedling", "3"});
  EXPECT_TRUE(flags.quick);
  // "--seedling" only shares a prefix with --seed: it is not that flag.
  EXPECT_FALSE(flags.seed_set);
  const std::vector<std::string> expected = {"prefix_aware", "8", "--bogus",
                                             "--seedling", "3"};
  EXPECT_EQ(flags.positional, expected);
}

TEST(CliFlagsTest, ValueFlagWithoutValueAtTheEndIsPositional) {
  const CliFlags flags = Parse({"--quick", "--trace-out"});
  EXPECT_TRUE(flags.quick);
  EXPECT_TRUE(flags.trace_out.empty());
  const std::vector<std::string> expected = {"--trace-out"};
  EXPECT_EQ(flags.positional, expected);
}

TEST(CliFlagsTest, SinkPredicatesFollowTheirFlags) {
  EXPECT_TRUE(Parse({"--trace-out", "t.json"}).WantsTrace());
  EXPECT_TRUE(Parse({"--trace-jsonl", "t.jsonl"}).WantsTrace());
  EXPECT_FALSE(Parse({"--trace-jsonl", "t.jsonl"}).WantsMetrics());
  EXPECT_TRUE(Parse({"--metrics-out", "m.jsonl"}).WantsMetrics());
  EXPECT_TRUE(Parse({"--metrics-csv", "m.csv"}).WantsMetrics());
  EXPECT_FALSE(Parse({"--metrics-csv", "m.csv"}).WantsTrace());
  EXPECT_FALSE(Parse({"--json-out", "s.json"}).WantsTrace());
  EXPECT_FALSE(Parse({"--json-out", "s.json"}).WantsMetrics());
}

}  // namespace
}  // namespace liquid
