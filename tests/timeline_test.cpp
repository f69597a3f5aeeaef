//===- timeline_test.cpp - Unit tests for serve/Timeline -------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "serve/Timeline.h"

#include "support/Json.h"
#include "support/PhaseProfiler.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

using namespace pigeon;
using namespace pigeon::serve;

namespace {

RequestSample sampleWith(uint64_t Rid, double TotalMs) {
  RequestSample S;
  S.Rid = Rid;
  S.IdJson = std::to_string(Rid * 10);
  S.TotalMs = TotalMs;
  // A deterministic decomposition that sums exactly to TotalMs.
  S.StageMs = {TotalMs * 0.10, TotalMs * 0.05, TotalMs * 0.05,
               TotalMs * 0.20, TotalMs * 0.05, TotalMs * 0.40,
               TotalMs * 0.10, TotalMs * 0.05};
  S.BatchSize = 4;
  S.DepthAtAdmit = 2;
  return S;
}

/// One serve.request line as EventLog renders it: the event name, then
/// the fields in order.
std::string eventLine(const RequestSample &S) {
  std::string Line = "{\"event\":\"serve.request\",\"ts\":1.5,\"tid\":2";
  for (const telemetry::EventField &F : eventFields(S))
    Line += ",\"" + F.Key + "\":" + F.Json;
  return Line + "}";
}

} // namespace

//===----------------------------------------------------------------------===//
// The stage list and the batch clock
//===----------------------------------------------------------------------===//

TEST(Timeline, StageListIsPinned) {
  // The names are protocol: `<stage>_ms` in the timing echo, fields of
  // the serve.request record, serve.stage.<stage>.seconds series.
  const std::array<std::string, NumStages> Expected = {
      "queue", "seal", "decode", "parse", "extract", "infer", "topk",
      "render"};
  for (size_t I = 0; I < NumStages; ++I)
    EXPECT_EQ(StageNames[I], Expected[I]) << I;
}

TEST(Timeline, BatchStampsPartitionEachRequestsLatency) {
  using Clock = BatchTimeline::Clock;
  const Clock::time_point Admit = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const Clock::time_point Open = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  RequestSample S;
  {
    BatchTimeline T;
    for (size_t I = 3; I < NumStages; ++I) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      T.enter(StageNames[I]);
    }
    // The profiler frame follows the stage running now.
    std::vector<const char *> Frames = telemetry::profilerCaptureStack();
    ASSERT_FALSE(Frames.empty());
    EXPECT_STREQ(Frames.back(), "render");
    S = T.close(Admit, Open);
  }
  EXPECT_TRUE(telemetry::profilerCaptureStack().empty());

  double Sum = 0;
  for (size_t I = 0; I < NumStages; ++I) {
    EXPECT_GE(S.StageMs[I], 0.0) << StageNames[I];
    Sum += S.StageMs[I];
  }
  EXPECT_NEAR(Sum, S.TotalMs, S.TotalMs * 1e-9);
  EXPECT_GE(S.StageMs[0], 2.0); // queue: Admit → Open.
  EXPECT_GE(S.StageMs[1], 2.0); // seal: Open → the batch clock started.
  for (size_t I = 2; I + 1 < NumStages; ++I)
    EXPECT_GE(S.StageMs[I], 1.0) << StageNames[I];
}

//===----------------------------------------------------------------------===//
// serve.request event records
//===----------------------------------------------------------------------===//

TEST(RequestEvent, RenderParseRoundTrip) {
  RequestSample S = sampleWith(7, 12.5);
  std::string Line = eventLine(S);
  std::string Error;
  std::optional<json::Value> Doc = json::parse(Line, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error << " in: " << Line;
  // Stage fields are in seconds, in StageNames order.
  size_t Last = 0;
  for (size_t I = 0; I < NumStages; ++I) {
    size_t At = Line.find("\"" + std::string(StageNames[I]) + "\":");
    ASSERT_NE(At, std::string::npos) << StageNames[I];
    EXPECT_GT(At, Last) << StageNames[I];
    Last = At;
    EXPECT_DOUBLE_EQ(Doc->find(StageNames[I])->number(),
                     S.StageMs[I] / 1000.0);
  }
  EXPECT_TRUE(Doc->find("code")->isNull());

  std::optional<RequestSample> Back = parseRequestSample(*Doc);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Rid, S.Rid);
  EXPECT_EQ(Back->IdJson, S.IdJson);
  EXPECT_TRUE(Back->Ok);
  EXPECT_DOUBLE_EQ(Back->TotalMs, S.TotalMs);
  for (size_t I = 0; I < NumStages; ++I)
    EXPECT_NEAR(Back->StageMs[I], S.StageMs[I], 1e-9) << StageNames[I];
  EXPECT_EQ(Back->BatchSize, 4u);
  EXPECT_EQ(Back->DepthAtAdmit, 2u);
}

TEST(RequestEvent, ErrorRecordsCarryTheCode) {
  RequestSample S = sampleWith(3, 1.5);
  S.Ok = false;
  S.Code = "parse_failed";
  std::optional<json::Value> Doc = json::parse(eventLine(S));
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(Doc->find("code")->str(), "parse_failed");

  std::optional<RequestSample> Back = parseRequestSample(*Doc);
  ASSERT_TRUE(Back.has_value());
  EXPECT_FALSE(Back->Ok);
  EXPECT_EQ(Back->Code, "parse_failed");
}

TEST(RequestEvent, ParsesServeRequestEventRecords) {
  // The pigeon.events.v1 shape: stage fields in seconds, short batch
  // context names. parseRequestSample must normalize to milliseconds.
  std::optional<json::Value> Doc = json::parse(
      "{\"event\":\"serve.request\",\"ts\":1.5,\"tid\":2,\"rid\":9,"
      "\"id\":\"abc\",\"ok\":true,\"wall\":0.004,\"queue\":0.001,"
      "\"seal\":0.0005,\"decode\":0.0001,\"parse\":0.0009,"
      "\"extract\":0.0005,\"infer\":0.0003,\"topk\":0.0002,"
      "\"render\":0.0005,\"batch\":3,\"depth\":1}");
  ASSERT_TRUE(Doc.has_value());
  std::optional<RequestSample> S = parseRequestSample(*Doc);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Rid, 9u);
  EXPECT_EQ(S->IdJson, "\"abc\"");
  EXPECT_DOUBLE_EQ(S->TotalMs, 4.0);
  EXPECT_DOUBLE_EQ(S->StageMs[0], 1.0);
  EXPECT_DOUBLE_EQ(S->StageMs[1], 0.5);
  EXPECT_DOUBLE_EQ(S->StageMs[6], 0.2);
  EXPECT_EQ(S->BatchSize, 3u);
  EXPECT_EQ(S->DepthAtAdmit, 1u);
}

TEST(RequestEvent, RejectsForeignLines) {
  for (const char *Line :
       {"{\"event\":\"span.begin\",\"ts\":0.1,\"name\":\"parse\"}",
        "{\"event\":\"stream.begin\",\"schema\":\"pigeon.events.v1\"}",
        "{\"schema\":\"pigeon.serve.v1\",\"id\":1,\"ok\":true}",
        "{\"schema\":\"pigeon.slowlog.v1\",\"rid\":1,\"total_ms\":2}",
        "[1,2,3]", "42"}) {
    std::optional<json::Value> Doc = json::parse(Line);
    ASSERT_TRUE(Doc.has_value()) << Line;
    EXPECT_FALSE(parseRequestSample(*Doc).has_value()) << Line;
  }
}

TEST(RequestEvent, TimingEchoListsTheStagesInOrder) {
  RequestSample S = sampleWith(5, 8.0);
  std::string Echo = renderTiming(S);
  std::optional<json::Value> Doc = json::parse(Echo);
  ASSERT_TRUE(Doc.has_value()) << Echo;
  size_t Last = 0;
  for (size_t I = 0; I < NumStages; ++I) {
    std::string Key = std::string(StageNames[I]) + "_ms";
    size_t At = Echo.find("\"" + Key + "\":");
    ASSERT_NE(At, std::string::npos) << Key;
    EXPECT_GE(At, Last) << Key;
    Last = At;
    EXPECT_DOUBLE_EQ(Doc->find(Key)->number(), S.StageMs[I]);
  }
  EXPECT_GT(Echo.find("\"total_ms\":"), Last);
  EXPECT_DOUBLE_EQ(Doc->find("total_ms")->number(), 8.0);
  EXPECT_EQ(Doc->find("batch_size")->number(), 4.0);
  EXPECT_EQ(Doc->find("depth_at_admit")->number(), 2.0);
}

//===----------------------------------------------------------------------===//
// Report folding
//===----------------------------------------------------------------------===//

TEST(FoldSamples, ComputesStageStatsAndTopK) {
  std::vector<RequestSample> Samples;
  for (int I = 1; I <= 10; ++I)
    Samples.push_back(sampleWith(static_cast<uint64_t>(I), I * 1.0));

  LatencyReport R = foldSamples(Samples, /*TopK=*/3);
  EXPECT_EQ(R.Samples, 10u);
  EXPECT_DOUBLE_EQ(R.TotalP50Ms, 5.0);  // Nearest-rank on 1..10.
  EXPECT_DOUBLE_EQ(R.TotalP99Ms, 10.0);

  // Stage "infer" is 40% of every request, so 40% of the grand total.
  const StageStats &Infer = R.Stages[5];
  EXPECT_EQ(Infer.Count, 10u);
  EXPECT_NEAR(Infer.Share, 0.40, 1e-9);
  EXPECT_NEAR(Infer.MeanMs, 0.40 * 5.5, 1e-9);
  EXPECT_NEAR(Infer.MaxMs, 4.0, 1e-9);

  // Shares cover the whole timeline: the eight stages sum to 100%.
  double ShareSum = 0;
  for (const StageStats &St : R.Stages)
    ShareSum += St.Share;
  EXPECT_NEAR(ShareSum, 1.0, 1e-9);

  // Top-3 slowest, slowest first.
  ASSERT_EQ(R.Slowest.size(), 3u);
  EXPECT_EQ(R.Slowest[0].Rid, 10u);
  EXPECT_EQ(R.Slowest[1].Rid, 9u);
  EXPECT_EQ(R.Slowest[2].Rid, 8u);
}

TEST(FoldSamples, EmptyInputYieldsAnEmptyReport) {
  LatencyReport R = foldSamples({}, 5);
  EXPECT_EQ(R.Samples, 0u);
  EXPECT_DOUBLE_EQ(R.TotalP50Ms, 0.0);
  EXPECT_TRUE(R.Slowest.empty());
}

TEST(RenderLatencyReport, PrintsBothTables) {
  std::vector<RequestSample> Samples = {sampleWith(1, 4.0),
                                        sampleWith(2, 8.0)};
  std::ostringstream OS;
  renderLatencyReport(OS, foldSamples(Samples, 5));
  const std::string Text = OS.str();
  EXPECT_NE(Text.find("latency decomposition (2 requests"),
            std::string::npos);
  for (const char *Stage : StageNames)
    EXPECT_NE(Text.find(Stage), std::string::npos) << Stage;
  EXPECT_NE(Text.find("slowest requests"), std::string::npos);
}
