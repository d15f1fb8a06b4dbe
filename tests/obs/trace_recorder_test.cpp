// TraceRecorder export formats: the Chrome Trace Event envelope Perfetto
// loads (metadata + spans + instants + async journey lanes + flow arrows)
// and the JSONL decision log, both syntax-checked with the same strict
// parser CI's python pass uses, plus byte determinism for a fixed sequence
// and the file writers the binaries' --trace-out / --trace-jsonl flags use.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/trace_recorder.hpp"
#include "util/json.hpp"

namespace liquid::obs {
namespace {

/// A miniature fleet story touching every phase kind once.
TraceRecorder RecordStory() {
  TraceRecorder rec;
  rec.DeclareProcess(kFleetPid, "fleet", 0);
  rec.DeclareThread(kFleetPid, kTidRouter, "router");
  rec.DeclareProcess(ReplicaPid(0), "replica 0", 1);
  rec.DeclareThread(ReplicaPid(0), kTidEngine, "engine");

  rec.Instant(TraceEventType::kArrival, 0.5, kFleetPid, kTidRouter, 7,
              /*prompt=*/512, /*max_new=*/64, /*attempt=*/0);
  const TraceArg terms[] = {{"queue", -0.25}, {"prefix", 0.5}};
  rec.InstantWithArgs(TraceEventType::kRoute, 0.5, kFleetPid, kTidRouter, 7,
                      /*replica=*/0, /*predicted_ttft=*/0.125, /*score=*/0.25,
                      terms);
  rec.AsyncBegin(TraceEventType::kStageQueued, 0.5, 7, 0);
  rec.AsyncEnd(TraceEventType::kStageQueued, 0.625, 7);
  rec.Span(TraceEventType::kPrefill, 0.625, 0.0625, ReplicaPid(0), kTidEngine,
           7, 512, 0);
  rec.Flow(TracePhase::kFlowStart, 0.6875, ReplicaPid(0), kTidEngine, 7);
  rec.Instant(TraceEventType::kComplete, 1.0, ReplicaPid(0), kTidLifecycle, 7,
              64, 0.1875);
  return rec;
}

/// Occurrences of `needle` in `text`.
std::size_t Count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++n;
  }
  return n;
}

/// The whole content of the file at `path`.
std::string ReadFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream buf;
  buf << file.rdbuf();
  return buf.str();
}

TEST(TraceRecorderTest, ChromeTraceIsValidJsonWithEnvelope) {
  const TraceRecorder rec = RecordStory();
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_TRUE(JsonSyntaxValid(json));
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Metadata names the lanes...
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  // ...and every phase kind shows up with its Chrome phase letter.
  for (const char* needle :
       {"\"ph\":\"i\"", "\"ph\":\"X\"", "\"ph\":\"b\"", "\"ph\":\"e\"",
        "\"ph\":\"s\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(TraceRecorderTest, RouteEventCarriesTermBreakdown) {
  const std::string json = RecordStory().ToChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"route\""), std::string::npos);
  EXPECT_NE(json.find("\"queue\":-0.25"), std::string::npos);
  EXPECT_NE(json.find("\"prefix\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"score\":0.25"), std::string::npos);
}

TEST(TraceRecorderTest, TimesExportAsMicroseconds) {
  TraceRecorder rec;
  rec.Span(TraceEventType::kPrefill, 0.5, 0.25, ReplicaPid(2), kTidEngine, 1);
  const std::string json = rec.ToChromeTraceJson();
  EXPECT_NE(json.find("\"ts\":500000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250000"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
}

TEST(TraceRecorderTest, JsonlOneValidObjectPerLine) {
  const TraceRecorder rec = RecordStory();
  const std::string jsonl = rec.ToJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonSyntaxValid(line)) << line;
    EXPECT_EQ(line.front(), '{');
    ++n;
  }
  EXPECT_EQ(n, rec.size());
  // The decision log nests the scorer terms under their own key.
  EXPECT_NE(jsonl.find("\"terms\":{"), std::string::npos);
}

TEST(TraceRecorderTest, FixedSequenceExportsByteIdentical) {
  const std::string a = RecordStory().ToChromeTraceJson();
  const std::string b = RecordStory().ToChromeTraceJson();
  EXPECT_EQ(a, b);
  EXPECT_EQ(RecordStory().ToJsonl(), RecordStory().ToJsonl());
}

TEST(TraceRecorderTest, ClearDropsEverything) {
  TraceRecorder rec = RecordStory();
  ASSERT_FALSE(rec.empty());
  rec.Clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorderTest, OneRecordPerEventPlusLaneMetadata) {
  const TraceRecorder rec = RecordStory();
  const std::string json = rec.ToChromeTraceJson();
  // Each declared process adds a name and a sort-index record, each
  // declared thread a name record: 2 processes + 2 threads = 6.
  EXPECT_EQ(Count(json, "\"ph\":\"M\""), 6u);
  EXPECT_EQ(Count(json, "\"ph\":"), 6u + rec.size());
  EXPECT_NE(json.find("\"name\":\"replica 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"engine\""), std::string::npos);
}

TEST(TraceRecorderTest, WriteChromeTraceWritesTheExportedBytes) {
  const TraceRecorder rec = RecordStory();
  const std::string path = testing::TempDir() + "trace_recorder_test.json";
  ASSERT_TRUE(rec.WriteChromeTrace(path));
  EXPECT_EQ(ReadFile(path), rec.ToChromeTraceJson());
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, WriteJsonlWritesTheExportedBytes) {
  const TraceRecorder rec = RecordStory();
  const std::string path = testing::TempDir() + "trace_recorder_test.jsonl";
  ASSERT_TRUE(rec.WriteJsonl(path));
  EXPECT_EQ(ReadFile(path), rec.ToJsonl());
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, WriteIntoMissingDirectoryReturnsFalse) {
  const TraceRecorder rec = RecordStory();
  const std::string dir = testing::TempDir() + "no-such-dir/";
  EXPECT_FALSE(rec.WriteChromeTrace(dir + "x.json"));
  EXPECT_FALSE(rec.WriteJsonl(dir + "x.jsonl"));
}

}  // namespace
}  // namespace liquid::obs
