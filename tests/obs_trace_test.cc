#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"

namespace fgr {
namespace obs {
namespace {

// Each test owns the process-wide tracer state.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DisableTracing();
    ClearTrace();
  }
  void TearDown() override {
    DisableTracing();
    ClearTrace();
  }
};

TEST_F(TraceTest, DisabledTracerRecordsNothingAndAllocatesNothing) {
  ASSERT_FALSE(TracingEnabled());
  const TraceStats before = GetTraceStats();
  for (int i = 0; i < 1000; ++i) {
    FGR_TRACE_SPAN("test/disabled", i);
    TraceCounter("test/counter", static_cast<double>(i));
  }
  const TraceStats after = GetTraceStats();
  EXPECT_EQ(after.events_recorded, before.events_recorded);
  EXPECT_EQ(after.chunks_allocated, before.chunks_allocated);
  EXPECT_EQ(after.threads_registered, before.threads_registered);
}

TEST_F(TraceTest, ExportIsValidChromeTraceJson) {
  EnableTracing("");  // in-memory
  {
    FGR_TRACE_SPAN("test/outer");
    { FGR_TRACE_SPAN("test/inner", 42); }
    TraceCounter("test/residual", 0.25);
  }
  DisableTracing();

  const Result<Json> parsed = ParseJson(ExportTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type(), Json::Type::kArray);
  ASSERT_EQ(events->items().size(), 3u);
  std::set<std::string> names;
  for (const Json& event : events->items()) {
    names.insert(event.GetString("name", ""));
    // The chrome-trace keys Perfetto requires on every event.
    EXPECT_NE(event.Find("ph"), nullptr);
    EXPECT_NE(event.Find("ts"), nullptr);
    EXPECT_NE(event.Find("pid"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    const std::string ph = event.GetString("ph", "");
    EXPECT_TRUE(ph == "X" || ph == "C") << ph;
    if (ph == "X") {
      EXPECT_NE(event.Find("dur"), nullptr);
    }
  }
  EXPECT_EQ(names, (std::set<std::string>{"test/outer", "test/inner",
                                          "test/residual"}));
}

TEST_F(TraceTest, SpansFromMultipleThreadsKeepTheirThreadIds) {
  EnableTracing("");
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      FGR_TRACE_SPAN("test/worker_outer");
      FGR_TRACE_SPAN("test/worker_inner");
    });
  }
  for (std::thread& thread : threads) thread.join();
  DisableTracing();

  const Result<Json> parsed = ParseJson(ExportTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items().size(),
            static_cast<std::size_t>(2 * kThreads));
  std::set<std::int64_t> tids;
  for (const Json& event : events->items()) {
    tids.insert(event.GetInt("tid", -1));
  }
  // Every thread got its own tid track.
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));

  // Nesting: within each thread the outer span must enclose the inner
  // (the spans are RAII-scoped, so [start, start+dur] nests).
  for (std::int64_t tid : tids) {
    double outer_start = -1, outer_end = -1, inner_start = -1, inner_end = -1;
    for (const Json& event : events->items()) {
      if (event.GetInt("tid", -1) != tid) continue;
      const double ts = event.GetNumber("ts", -1);
      const double dur = event.GetNumber("dur", 0);
      if (event.GetString("name", "") == "test/worker_outer") {
        outer_start = ts;
        outer_end = ts + dur;
      } else {
        inner_start = ts;
        inner_end = ts + dur;
      }
    }
    EXPECT_LE(outer_start, inner_start);
    EXPECT_GE(outer_end, inner_end);
  }
}

TEST_F(TraceTest, StageTotalsAggregateByName) {
  EnableTracing("");
  for (int i = 0; i < 3; ++i) {
    FGR_TRACE_SPAN("test/stage_a");
  }
  { FGR_TRACE_SPAN("test/stage_b"); }
  DisableTracing();

  const std::vector<StageTotal> totals = StageTotals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_STREQ(totals[0].name, "test/stage_a");
  EXPECT_EQ(totals[0].count, 3);
  EXPECT_GE(totals[0].total_ns, 0);
  EXPECT_STREQ(totals[1].name, "test/stage_b");
  EXPECT_EQ(totals[1].count, 1);
}

TEST_F(TraceTest, FlushWritesTheRegisteredPath) {
  const std::string path =
      ::testing::TempDir() + "/obs_trace_flush_test.json";
  EnableTracing(path);
  { FGR_TRACE_SPAN("test/flushed"); }
  ASSERT_TRUE(FlushTrace());
  DisableTracing();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  const Result<Json> parsed = ParseJson(contents);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed.value().Find("traceEvents"), nullptr);
  std::remove(path.c_str());
}

TEST_F(TraceTest, SpanArgumentsSurfaceInArgs) {
  EnableTracing("");
  { FGR_TRACE_SPAN("test/with_arg", 7); }
  DisableTracing();
  const Result<Json> parsed = ParseJson(ExportTraceJson());
  ASSERT_TRUE(parsed.ok());
  const Json& event = parsed.value().Find("traceEvents")->items().at(0);
  const Json* args = event.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->GetInt("arg", -1), 7);
}

}  // namespace
}  // namespace obs
}  // namespace fgr
