//===- Timeline.h - The serve request timeline ------------------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One request's path through `pigeon serve` as eight named stages, in
/// pipeline order:
///
///   queue    admission → popped into a batch (Service::batcherLoop)
///   seal     popped → the batch's straggler window closed
///   decode   JSON decode, validation and the deadline check
///   parse    the frontend parse into a per-request interner overlay
///   extract  path extraction plus CRF graph assembly
///   infer    CrfModel::predictBatch: the MAP labels
///   topk     CrfModel::topK (and explain, when asked) for every unknown
///   render   serialization of this request's response
///
/// StageNames is the only list of these names. Every consumer reads it:
/// the `serve.stage.<name>.seconds` histograms (cumulative and
/// windowed), the `"timing"` echo (`<name>_ms`), the `serve.request`
/// event record (`<name>`, in seconds), the phase-profiler frames under
/// `serve.batch`, the trace_report tables and bench_serve's stage table.
///
/// A batch stamps each shared boundary once (BatchTimeline); a request's
/// own admission and batch-open times start its queue and seal stages,
/// and render ends when its response is complete. Consecutive
/// boundaries give the stage durations, so they sum to the request's
/// total latency by construction.
///
/// The same module reads timelines back: parseRequestSample() takes a
/// `serve.request` record out of a pigeon.events.v1 stream (`--trace`,
/// its rotated segment, or a flight-recorder dump) and
/// foldSamples()/renderLatencyReport() turn a pile of samples into the
/// latency-decomposition report `tools/trace_report` prints.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SERVE_TIMELINE_H
#define PIGEON_SERVE_TIMELINE_H

#include "support/EventLog.h"
#include "support/Json.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {
namespace serve {

/// Number of stages in a request timeline.
inline constexpr size_t NumStages = 8;

/// Stage names in pipeline order (see the file comment).
extern const std::array<const char *, NumStages> StageNames;

/// One request's latency decomposition plus batch context.
struct RequestSample {
  uint64_t Rid = 0;
  std::string IdJson = "null"; ///< Pre-rendered echo of the request id.
  bool Ok = true;
  std::string Code; ///< Error code; empty when Ok.
  double TotalMs = 0;
  std::array<double, NumStages> StageMs{}; ///< Sums to TotalMs.
  uint64_t BatchSize = 0;
  uint64_t DepthAtAdmit = 0;
};

/// Stamps the stage boundaries one batch shares and keeps the calling
/// thread's phase-profiler frame on the stage running now, so sampled
/// time lands under the same name the histograms use.
class BatchTimeline {
public:
  using Clock = std::chrono::steady_clock;

  /// The batch's straggler window closed: `decode` starts now.
  BatchTimeline();
  ~BatchTimeline();

  BatchTimeline(const BatchTimeline &) = delete;
  BatchTimeline &operator=(const BatchTimeline &) = delete;

  /// Ends the running stage and starts \p Stage, the next one in
  /// StageNames (checked in debug builds).
  void enter(std::string_view Stage);

  /// The timeline of a request admitted at \p Admit and popped into this
  /// batch at \p Open, whose response is complete now: fills TotalMs and
  /// StageMs of the returned sample.
  RequestSample close(Clock::time_point Admit, Clock::time_point Open) const;

private:
  /// Bounds[S] is when stage S started; queue, seal and the end of
  /// render are per request and filled in by close().
  std::array<Clock::time_point, NumStages + 1> Bounds;
  size_t Current;
};

/// The fields of \p S's `serve.request` event record: rid, id, ok,
/// code, `wall` and one field per stage in seconds, `batch`, `depth`.
std::vector<telemetry::EventField> eventFields(const RequestSample &S);

/// The `"timing"` echo object of \p S: `<stage>_ms` in stage order, then
/// `total_ms`, `batch_size` and `depth_at_admit`.
std::string renderTiming(const RequestSample &S);

/// Reads a sample back out of a parsed `serve.request` event record.
/// Lines of any other shape (span records, stream framing, foreign
/// documents) return nullopt.
std::optional<RequestSample> parseRequestSample(const json::Value &Doc);

/// Aggregated stats of one stage across a sample set.
struct StageStats {
  uint64_t Count = 0;
  double MeanMs = 0;
  double P50Ms = 0;
  double P99Ms = 0;
  double MaxMs = 0;
  double Share = 0; ///< Fraction of summed total latency spent here.
};

/// What trace_report prints: the per-stage decomposition plus the
/// slowest requests with their full timelines.
struct LatencyReport {
  size_t Samples = 0;
  double TotalP50Ms = 0;
  double TotalP99Ms = 0;
  std::array<StageStats, NumStages> Stages;
  std::vector<RequestSample> Slowest; ///< Top-K by TotalMs, slowest first.
};

/// Folds \p Samples into a LatencyReport keeping the \p TopK slowest.
LatencyReport foldSamples(std::vector<RequestSample> Samples,
                          size_t TopK = 5);

/// Renders \p R as the two aligned tables trace_report prints.
void renderLatencyReport(std::ostream &OS, const LatencyReport &R);

} // namespace serve
} // namespace pigeon

#endif // PIGEON_SERVE_TIMELINE_H
