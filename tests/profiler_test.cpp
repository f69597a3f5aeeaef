//===- profiler_test.cpp - Unit tests for support/PhaseProfiler ------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/PhaseProfiler.h"

#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

using namespace pigeon;
using namespace pigeon::telemetry;

namespace {

/// Ticks attributed to \p Phase, alone or as the outermost frame of a
/// deeper folded stack.
uint64_t countFor(const PhaseProfiler::Report &R, const std::string &Phase) {
  uint64_t Total = 0;
  for (const PhaseProfiler::FoldedLine &L : R.Lines)
    if (L.Stack == Phase || L.Stack.rfind(Phase + ";", 0) == 0)
      Total += L.Count;
  return Total;
}

/// Busy-spins until the sampler has attributed \p Target ticks to
/// \p Phase (or a generous deadline passes — the assertion then fails
/// loudly rather than the test hanging). Spinning, not sleeping: the
/// profiler measures wall time spent *in* the phase.
void spinUntilTicks(const std::string &Phase, uint64_t Target) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  volatile uint64_t Sink = 0;
  while (std::chrono::steady_clock::now() < Deadline) {
    for (int I = 0; I < 200000; ++I)
      Sink = Sink + static_cast<uint64_t>(I);
    if (countFor(PhaseProfiler::global().report(), Phase) >= Target)
      return;
  }
}

} // namespace

TEST(Profiler, PushPopCaptureRoundTrip) {
  ASSERT_TRUE(profilerCaptureStack().empty());
  profilerPushFrame("pp.outer");
  profilerPushFrame("pp.inner");
  std::vector<const char *> Stack = profilerCaptureStack();
  ASSERT_EQ(Stack.size(), 2u);
  EXPECT_STREQ(Stack[0], "pp.outer");
  EXPECT_STREQ(Stack[1], "pp.inner");
  // Names are interned: capturing again yields the same pointers.
  std::vector<const char *> Again = profilerCaptureStack();
  EXPECT_EQ(Stack[0], Again[0]);
  EXPECT_EQ(Stack[1], Again[1]);
  profilerPopFrame();
  profilerPopFrame();
  EXPECT_TRUE(profilerCaptureStack().empty());
}

TEST(Profiler, DeepRecursionDegradesGracefully) {
  // Past the fixed depth limit only the depth is tracked; pushes and
  // pops still balance and nothing overflows.
  const int Deep = 60;
  for (int I = 0; I < Deep; ++I)
    profilerPushFrame("pp.deep");
  std::vector<const char *> Stack = profilerCaptureStack();
  EXPECT_LE(Stack.size(), 48u);
  for (const char *F : Stack)
    EXPECT_STREQ(F, "pp.deep");
  for (int I = 0; I < Deep; ++I)
    profilerPopFrame();
  EXPECT_TRUE(profilerCaptureStack().empty());
}

TEST(Profiler, StackGuardInstallsSpawnerStackOnWorker) {
  profilerPushFrame("pp.spawner");
  std::vector<const char *> Spawner = profilerCaptureStack();
  ASSERT_EQ(Spawner.size(), 1u);

  // A worker thread (empty own stack) temporarily adopts the spawner's
  // stack; nested frames fold underneath it; destruction restores the
  // worker to its pre-guard depth.
  std::thread Worker([&Spawner] {
    EXPECT_TRUE(profilerCaptureStack().empty());
    {
      ProfilerStackGuard Guard(Spawner);
      std::vector<const char *> Installed = profilerCaptureStack();
      ASSERT_EQ(Installed.size(), 1u);
      EXPECT_EQ(Installed[0], Spawner[0]); // Same interned pointer.
      profilerPushFrame("pp.worker");
      EXPECT_EQ(profilerCaptureStack().size(), 2u);
      profilerPopFrame();
    }
    EXPECT_TRUE(profilerCaptureStack().empty());
  });
  Worker.join();

  // The caller-executor case: installing a thread's own captured stack
  // over itself is a no-op.
  {
    ProfilerStackGuard Guard(Spawner);
    std::vector<const char *> Same = profilerCaptureStack();
    ASSERT_EQ(Same.size(), 1u);
    EXPECT_EQ(Same[0], Spawner[0]);
  }
  ASSERT_EQ(profilerCaptureStack().size(), 1u);
  profilerPopFrame();
}

TEST(Profiler, StartStopResetLifecycle) {
  PhaseProfiler &P = PhaseProfiler::global();
  EXPECT_FALSE(P.running());
  P.start(50.0);
  EXPECT_TRUE(P.running());
  EXPECT_EQ(P.hz(), 50.0);
  P.start(500.0); // Idempotent while running: first rate wins.
  EXPECT_EQ(P.hz(), 50.0);
  P.stop();
  EXPECT_FALSE(P.running());
  P.stop(); // Idempotent when stopped.
  P.reset();
  PhaseProfiler::Report R = P.report();
  EXPECT_EQ(R.Samples, 0u);
  EXPECT_EQ(R.Attributed, 0u);
  EXPECT_TRUE(R.Lines.empty());
}

// The acceptance-criteria pin: a two-phase workload with a 3:1 duration
// split attributes more ticks to the long phase, and the overwhelming
// majority of busy samples land in *some* named phase.
TEST(Profiler, SamplerAttributesTwoPhaseWorkload) {
  PhaseProfiler &P = PhaseProfiler::global();
  P.start(250.0);
  P.reset();

  {
    TraceScope Alpha("profiler.test.alpha");
    spinUntilTicks("profiler.test.alpha", 60);
  }
  {
    TraceScope Beta("profiler.test.beta");
    spinUntilTicks("profiler.test.beta", 20);
  }

  P.stop();
  PhaseProfiler::Report R = P.report();

  uint64_t AlphaTicks = countFor(R, "profiler.test.alpha");
  uint64_t BetaTicks = countFor(R, "profiler.test.beta");
  ASSERT_GE(AlphaTicks, 60u);
  ASSERT_GE(BetaTicks, 20u);
  EXPECT_GT(AlphaTicks, BetaTicks);

  // This test's only busy thread spends essentially all its wall time
  // inside a TraceScope, so nearly every sample must be attributed (the
  // few stragglers are ticks between the scopes / before stop()).
  ASSERT_GT(R.Samples, 0u);
  double Ratio = static_cast<double>(R.Attributed) /
                 static_cast<double>(R.Samples);
  EXPECT_GE(Ratio, 0.9);

  // Folded rendering: `stack count` lines, flamegraph.pl-compatible.
  std::string Folded = P.folded();
  ASSERT_FALSE(Folded.empty());
  std::istringstream Lines(Folded);
  std::string Line;
  bool SawAlpha = false;
  while (std::getline(Lines, Line)) {
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    ASSERT_GT(Space, 0u) << Line;
    std::string Count = Line.substr(Space + 1);
    ASSERT_FALSE(Count.empty()) << Line;
    EXPECT_EQ(Count.find_first_not_of("0123456789"), std::string::npos)
        << Line;
    if (Line.compare(0, Space, "profiler.test.alpha") == 0)
      SawAlpha = true;
  }
  EXPECT_TRUE(SawAlpha);
}

TEST(Profiler, NestedScopesProduceFoldedStacks) {
  PhaseProfiler &P = PhaseProfiler::global();
  P.start(250.0);
  P.reset();
  {
    TraceScope Outer("pp.nest.outer");
    TraceScope Inner("pp.nest.inner");
    spinUntilTicks("pp.nest.outer", 10);
  }
  P.stop();
  PhaseProfiler::Report R = P.report();
  uint64_t Nested = 0;
  for (const PhaseProfiler::FoldedLine &L : R.Lines)
    if (L.Stack == "pp.nest.outer;pp.nest.inner")
      Nested = L.Count;
  EXPECT_GE(Nested, 10u);
}

TEST(Profiler, WriteFoldedRoundTrips) {
  PhaseProfiler &P = PhaseProfiler::global();
  P.start(250.0);
  P.reset();
  {
    TraceScope Phase("pp.write");
    spinUntilTicks("pp.write", 5);
  }
  P.stop();

  const std::string Path = "profiler_test_folded.tmp";
  ASSERT_TRUE(P.writeFolded(Path));
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In.good());
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), P.folded());
  EXPECT_NE(Buffer.str().find("pp.write"), std::string::npos);
  In.close();
  std::remove(Path.c_str());

  EXPECT_FALSE(P.writeFolded("/nonexistent-dir/folded.txt"));
}
