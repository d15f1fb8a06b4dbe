// util/json: the deterministic number and string formatting every telemetry
// artifact (Chrome trace, JSONL, FleetStats summary) is built from, the
// comma bookkeeping of JsonWriter, and the strict syntax checker the other
// tests rely on to validate those artifacts.

#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace liquid {
namespace {

std::string Number(double value) {
  std::string out;
  AppendJsonNumber(out, value);
  return out;
}

TEST(JsonTest, NumbersFormatDeterministically) {
  EXPECT_EQ(Number(0.0), "0");
  EXPECT_EQ(Number(42.0), "42");
  EXPECT_EQ(Number(-7.0), "-7");
  EXPECT_EQ(Number(0.25), "0.25");
  // Non-integers print round-trip exact.
  EXPECT_EQ(Number(0.1), "0.10000000000000001");
  // Past the double-exact integer range the %.17g form takes over.
  EXPECT_EQ(Number(1e20), "1e+20");
  // Non-finite values stay valid JSON.
  EXPECT_EQ(Number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(Number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonTest, StringsEscapeQuotesBackslashesAndControls) {
  std::string out;
  AppendJsonString(out, std::string("a\"b\\c\nd\te\x01", 10));
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  EXPECT_TRUE(JsonSyntaxValid(out));
}

TEST(JsonTest, WriterPlacesCommasBetweenSiblingsOnly) {
  JsonWriter w;
  w.BeginObject()
      .Key("n")
      .Number(std::uint64_t{3})
      .Key("list")
      .BeginArray()
      .Number(1.5)
      .String("x")
      .Bool(true)
      .Null()
      .BeginObject()
      .EndObject()
      .EndArray()
      .Key("neg")
      .Number(std::int64_t{-2})
      .Key("raw")
      .Raw("{\"k\":[]}")
      .EndObject();
  EXPECT_EQ(w.str(),
            "{\"n\":3,\"list\":[1.5,\"x\",true,null,{}],\"neg\":-2,"
            "\"raw\":{\"k\":[]}}");
  EXPECT_TRUE(JsonSyntaxValid(w.str()));
}

TEST(JsonTest, SyntaxCheckerRejectsMalformedDocuments) {
  EXPECT_TRUE(JsonSyntaxValid("{\"a\":[1,2.5e-3,\"s\",true,false,null]}"));
  EXPECT_TRUE(JsonSyntaxValid("  [ ]  "));
  EXPECT_FALSE(JsonSyntaxValid(""));
  EXPECT_FALSE(JsonSyntaxValid("{\"a\":1,}"));   // trailing comma
  EXPECT_FALSE(JsonSyntaxValid("[1,2]]"));       // trailing garbage
  EXPECT_FALSE(JsonSyntaxValid("{a:1}"));        // unquoted key
  EXPECT_FALSE(JsonSyntaxValid("[1 2]"));        // missing comma
  EXPECT_FALSE(JsonSyntaxValid("{\"a\":nan}"));  // not a JSON literal
  EXPECT_FALSE(JsonSyntaxValid("[\"open]"));     // unterminated string
  EXPECT_FALSE(JsonSyntaxValid("{} {}"));        // two top-level values
}

}  // namespace
}  // namespace liquid
