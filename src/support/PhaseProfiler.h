//===- PhaseProfiler.h - Phase-sampling wall-time profiler -----*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sampling profiler over *phase names*, not stack frames. The trace
/// tree (telemetry::TraceScope) already names every interesting region —
/// parse, extract, train, serve.batch, crf.predict — and the parallel
/// layer propagates the spawning thread's context onto pool workers. So
/// instead of unwinding native frames (fragile, needs frame pointers and
/// symbolization), each thread keeps a tiny lock-free stack of interned
/// phase-name pointers, and a sampler thread walks every live stack at a
/// fixed rate (default ~97 Hz — prime, to avoid lockstep with 10 ms
/// timers) attributing one tick of wall time to the folded phase path
/// ("parse;parallel.chunk" style `a;b` joins). The result renders as
/// flamegraph.pl-compatible folded stacks: `phase;subphase count`.
///
/// Who pushes frames:
///  * TraceScope (Telemetry.cpp) — every phase in the trace tree;
///  * parallel::StageTimer (Parallel.cpp) — corpus and inference stages;
///  * serve::BatchTimeline (serve/Timeline.cpp) — the serve timeline
///    stages under `serve.batch`;
///  * parallel workers — the spawner's captured stack is installed for
///    the duration of each region (ProfilerStackGuard), so worker time
///    lands under the stage that spawned it.
///
/// Thread-safety contract with TraceContext: the per-thread stacks hold
/// pointers to *interned* names that live for the process lifetime, so a
/// sampler racing a push/pop can read a frame from the neighbouring
/// epoch but never a dangling pointer. Depth is published with release
/// ordering after the frame pointer, so a read of depth D implies frames
/// [0, D) are valid. A torn sample (pop+push between the depth read and
/// the frame reads) mis-attributes at most that one tick — noise, not
/// corruption, which is the usual statistical-profiler bargain.
///
/// The per-thread stacks are maintained unconditionally (two relaxed
/// stores per push; interning is a thread-locally cached lookup), so the
/// profiler can be started at any time — including mid-serve via the
/// admin protocol — and immediately sees the live phase of every thread.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SUPPORT_PHASEPROFILER_H
#define PIGEON_SUPPORT_PHASEPROFILER_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {
namespace telemetry {

/// Pushes a frame named \p Name onto the calling thread's phase stack.
/// Must be balanced by profilerPopFrame() on the same thread (RAII
/// callers: TraceScope, StageTimer, serve::BatchTimeline). Beyond the
/// fixed depth limit the stack records depth only, so unbalanced deep
/// recursion degrades gracefully instead of overflowing.
void profilerPushFrame(std::string_view Name);
void profilerPopFrame();

/// The calling thread's current phase stack as interned name pointers
/// (outermost first). The pointers are stable for the process lifetime.
std::vector<const char *> profilerCaptureStack();

/// Replaces the calling thread's phase stack with \p Frames for the
/// guard's lifetime and restores the previous depth on destruction.
/// Safe only when \p Frames is either (a) installed on a thread whose
/// own stack is a prefix of it, or (b) the thread's own captured stack —
/// which is exactly the parallel-region caller/worker split.
class ProfilerStackGuard {
public:
  explicit ProfilerStackGuard(const std::vector<const char *> &Frames);
  ~ProfilerStackGuard();

  ProfilerStackGuard(const ProfilerStackGuard &) = delete;
  ProfilerStackGuard &operator=(const ProfilerStackGuard &) = delete;

private:
  uint32_t SavedDepth;
};

/// The process-wide sampler. start() spawns the sampling thread; stop()
/// joins it. Counts accumulate across start/stop cycles until reset().
class PhaseProfiler {
public:
  static PhaseProfiler &global();

  /// Starts sampling at \p Hz (clamped to [1, 1000]). Idempotent while
  /// running (the first rate wins until stop()).
  void start(double Hz = 97.0);
  void stop();
  bool running() const;
  double hz() const;

  /// Zeroes the accumulated counts (keeps the sampler running).
  void reset();

  struct FoldedLine {
    std::string Stack; ///< "phase;subphase" folded path.
    uint64_t Count;    ///< Sampler ticks attributed to it.
  };
  struct Report {
    uint64_t Samples = 0;    ///< Thread-samples taken (one per live
                             ///< thread per tick).
    uint64_t Attributed = 0; ///< Samples that landed in a named phase;
                             ///< the rest caught threads outside any
                             ///< TraceScope (idle workers, startup).
    double Hz = 0;
    std::vector<FoldedLine> Lines; ///< Sorted by count desc, then name.
  };
  Report report() const;

  /// flamegraph.pl-compatible rendering: one "stack count" line each.
  std::string folded() const;
  /// folded() to \p Path. \returns false if the file cannot be written.
  bool writeFolded(const std::string &Path) const;

private:
  PhaseProfiler() = default;
};

} // namespace telemetry
} // namespace pigeon

#endif // PIGEON_SUPPORT_PHASEPROFILER_H
