//===- ServeJs.cpp - serve_js_vars: a resident service under load ----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A serve::Service over an mmap'd v3 bundle for JavaScript variable
/// names. One generator thread (the benchmark's main thread) sends
/// held-out single-function requests through Service::submit in three
/// phases:
///
///   low   open loop at LowRps: batches hold one or two requests, latency
///         is dominated by the FlushMicros straggler wait;
///   high  open loop at HighRps, about half of saturation on the
///         reference host: queueing and batching show;
///   sat   a closed window of workers × MaxBatch outstanding requests:
///         batches are full, capacity is bound by per-request compute.
///
/// Open-loop latency runs from each request's scheduled send time, so a
/// stall is charged to every request it delays.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "core/MappedBundle.h"
#include "datagen/Sketch.h"
#include "serve/Serve.h"
#include "support/Rng.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

using namespace pigeon;
using namespace pigeon::core;

namespace perfbench {

namespace {

constexpr lang::Language Js = lang::Language::JavaScript;
/// Projects the served bundle is trained on; held-out request projects
/// (16 single-function files each) come from another seed.
constexpr int ServeTrainProjects = 48;
constexpr int RequestProjects = 16;
/// Batcher workers of the served Service, whatever the host's core count
/// (the default follows it). Two workers and the generator thread leave a
/// core of a four-vCPU host free; with four workers ten runs' `sat`
/// throughput spread past a quarter of its median.
constexpr size_t ServeWorkers = 2;
/// Offered rates of the open-loop phases, requests per second.
constexpr double LowRps = 500;
constexpr double HighRps = 1400;
/// Latency limit the high rate is chosen to meet (p99, ms).
constexpr double LatencyLimitMs = 50;
/// Candidates per element asked for.
constexpr int RequestK = 3;
/// Share of the run each measured phase gets.
constexpr double LowShare = 0.2, HighShare = 0.2, SatShare = 0.6;
/// Untimed warm-up phase at the saturation window, part of set-up.
constexpr double WarmupSeconds = 0.5;
/// Slice length over which sat throughput is counted.
constexpr double SatSlice = 0.25;
/// Admission-queue bound of the served Service. The default (256) turns a
/// host stall of ~130 ms at the high rate into `overloaded` answers; an
/// open loop measures such a stall as latency, so the queue holds 8 s of
/// the high rate instead.
constexpr size_t QueueCapacity = 16384;
/// Requests whose served top-1 labels are compared with a replay.
constexpr size_t ReplaySample = 48;
/// Passes of the traced layer-by-layer replay over the request pool.
constexpr int ReplayPasses = 3;

/// Trains the served bundle and writes it as v3 to \p Path. \returns the
/// bundle bytes written (0 on failure).
size_t trainBundle(uint64_t Seed, const std::string &Path, Tracer &T) {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Js, Seed);
  Spec.NumProjects = ServeTrainProjects;
  Tracer Off(false);
  TrainedBundle Trained = trainVarsBundle(datagen::generateCorpus(Spec), Js, Off);
  std::string Bytes = saveBundleV3(*Trained.Bundle, T);
  return writeFile(Path, Bytes) ? Bytes.size() : 0;
}

/// One submitted request: its timeline and what its response held. The
/// response itself is checked and dropped in the callback, so the run's
/// memory does not grow with the number of responses kept.
struct Slot {
  Clock::time_point Due, Sent, Done;
  int64_t Id = -1, Rid = -1;
  int BatchSize = 0;
  bool Passed = false;
};

/// Drives one Service and records every request it sends.
class LoadGenerator {
public:
  /// Responses to the first \p Keep requests are kept whole, for the
  /// replay comparison.
  LoadGenerator(serve::Service &S, const std::vector<Request> &Pool, size_t Keep)
      : S(S), Pool(Pool), Kept(Keep) {}

  /// Open loop: sends at \p Rps for \p Seconds on a fixed schedule, then
  /// waits for every response. \returns the request range [First, Last).
  std::pair<size_t, size_t> openLoop(double Rps, double Seconds) {
    size_t First = Next;
    size_t N = static_cast<size_t>(Rps * Seconds);
    auto Start = Clock::now();
    for (size_t I = 0; I < N; ++I) {
      auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(I / Rps));
      std::this_thread::sleep_until(Due); // No-op once behind.
      send(Due);
    }
    waitAll();
    return {First, Next};
  }

  /// A point of the window phase: seconds since its start and process
  /// CPU seconds then.
  struct Mark {
    double At = 0, Cpu = 0;
  };

  /// Closed window: keeps \p Window requests outstanding for \p Seconds.
  /// \p Marks gets a mark at the start and at the first send after each
  /// further \p MarkEvery seconds.
  std::pair<size_t, size_t> window(size_t Window, double Seconds,
                                   Clock::time_point &Start,
                                   double MarkEvery, std::vector<Mark> &Marks) {
    size_t First = Next;
    Start = Clock::now();
    Marks.push_back({0, processCpuSeconds()});
    auto End = Start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(Seconds));
    while (Clock::now() < End) {
      {
        std::unique_lock<std::mutex> L(M);
        CV.wait(L, [&] { return Next - Completed < Window; });
      }
      if (double At = since(Start); At >= MarkEvery * Marks.size())
        Marks.push_back({At, processCpuSeconds()});
      send(Clock::now());
    }
    waitAll();
    return {First, Next};
  }

  /// Valid once every response has arrived (after openLoop/window).
  const Slot &slot(size_t I) const { return Chunks[I / ChunkSize][I % ChunkSize]; }
  const DecodedResponse &kept(size_t I) const { return Kept[I]; }
  size_t sent() const { return Next; }
  /// Reasons of the failed response checks (the first few).
  const std::vector<std::string> &errors() const { return Errors; }

private:
  static constexpr size_t ChunkSize = 4096;

  void send(Clock::time_point Due) {
    size_t I = Next;
    if (I % ChunkSize == 0)
      Chunks.push_back(std::make_unique<Slot[]>(ChunkSize));
    Slot *Sl = &Chunks[I / ChunkSize][I % ChunkSize];
    Sl->Due = Due;
    const Request &Req = Pool[I % Pool.size()];
    std::string Line = requestLine(Req, I);
    {
      std::lock_guard<std::mutex> L(M);
      ++Next;
    }
    Sl->Sent = Clock::now();
    S.submit(std::move(Line), [this, I, Sl, &Req](std::string Response) {
      Sl->Done = Clock::now();
      DecodedResponse D;
      std::string Why =
          decodeResponse(Response, D)
              ? checkResponse({static_cast<int64_t>(I), RequestK, Req.Elements}, D)
              : "request " + std::to_string(I) + ": malformed response";
      Sl->Id = D.Id;
      Sl->Rid = D.Rid;
      Sl->BatchSize = D.BatchSize;
      Sl->Passed = Why.empty();
      if (I < Kept.size())
        Kept[I] = std::move(D);
      {
        std::lock_guard<std::mutex> L(M);
        if (!Why.empty() && Errors.size() < 20)
          Errors.push_back(std::move(Why));
        ++Completed;
      }
      CV.notify_all();
    });
  }

  void waitAll() {
    std::unique_lock<std::mutex> L(M);
    CV.wait(L, [&] { return Completed == Next; });
  }

  serve::Service &S;
  const std::vector<Request> &Pool;
  /// Slots in fixed-size chunks: a chunk never moves once allocated, so a
  /// callback may write its slot while later chunks are being added.
  std::vector<std::unique_ptr<Slot[]>> Chunks;
  std::vector<DecodedResponse> Kept;
  std::mutex M;
  std::condition_variable CV;
  size_t Next = 0;      ///< Requests sent (written under M).
  size_t Completed = 0; ///< Responses received (guarded by M).
  std::vector<std::string> Errors; ///< Guarded by M.
};

/// Latency figures of one phase.
struct PhaseStats {
  std::vector<double> LatencyMs, LateMs, Batch;
};

PhaseStats phaseStats(const LoadGenerator &D, std::pair<size_t, size_t> Range) {
  PhaseStats P;
  for (size_t I = Range.first; I < Range.second; ++I) {
    const Slot &Sl = D.slot(I);
    P.LatencyMs.push_back(between(Sl.Due, Sl.Done) * 1000.0);
    P.LateMs.push_back(between(Sl.Due, Sl.Sent) * 1000.0);
    P.Batch.push_back(Sl.BatchSize);
  }
  return P;
}

} // namespace

Result runServe(const RunOptions &Options) {
  Result R;
  Tracer T(Options.Trace);
  const std::string BundlePath = Options.WorkDir + "/serve_js_vars.pigeon";

  // Warm every core, then set up: requests, bundle training, bundle open
  // and service start. Repeated; the median is setup_s. Then an untimed
  // warm-up phase, left out of setup_s since its length is fixed.
  std::vector<Request> Pool;
  std::unique_ptr<serve::Service> Service;
  std::vector<double> SetupTimes, LoadMs;
  size_t BundleBytes = 0;
  spinAllCores(0.2);
  for (int I = 0; I < SetupRepeats; ++I) {
    Service.reset();
    auto Start = Clock::now();
    Pool = makeJsRequests(Options.Seed ^ 0x5e77e5e77e5e77e5ULL, RequestProjects,
                          RequestK);
    BundleBytes = trainBundle(Options.Seed, BundlePath, T);
    auto L0 = Clock::now();
    LoadDiag Diag;
    std::unique_ptr<ModelBundle> Bundle;
    {
      Tracer::Scope S(T, "core.bundle_load");
      Bundle = loadModelFile(BundlePath, &Diag);
    }
    LoadMs.push_back(since(L0) * 1000.0);
    if (!Bundle) {
      R.fail("served bundle does not open: " + Diag.Error);
      return R;
    }
    serve::ServeConfig Config;
    Config.QueueCapacity = QueueCapacity;
    Config.Workers = std::min<size_t>(ServeWorkers, usableCores());
    Service = std::make_unique<serve::Service>(std::move(Bundle), Config);
    SetupTimes.push_back(since(Start));
  }
  serve::Service &S = *Service;
  const size_t Window = S.workers() * serve::ServeConfig().MaxBatch;
  {
    LoadGenerator Warm(S, Pool, 0);
    Clock::time_point Ignored;
    std::vector<LoadGenerator::Mark> IgnoredMarks;
    Warm.window(Window, WarmupSeconds, Ignored, SatSlice, IgnoredMarks);
  }

  // Measured phases.
  const double LowS = Options.Seconds * LowShare;
  const double HighS = Options.Seconds * HighShare;
  const double SatS = Options.Seconds * SatShare;
  LoadGenerator D(S, Pool, Pool.size());
  StealMeter Steal;
  auto Low = D.openLoop(LowRps, LowS);
  auto High = D.openLoop(HighRps, HighS);
  Clock::time_point SatStart;
  double Cpu0 = processCpuSeconds();
  std::vector<LoadGenerator::Mark> Marks;
  auto Sat = D.window(Window, SatS, SatStart, SatSlice, Marks);
  double SatWall = since(SatStart);
  double SatCpu = processCpuSeconds() - Cpu0;
  const double StealShare = Steal.share();
  const size_t Sent = D.sent();
  R.Attempted = Sent;

  // Checks: every response was checked as it arrived; now the response
  // set, then the replay sample (among the first pass over the pool).
  std::vector<int64_t> Ids, Rids;
  for (size_t I = 0; I < Sent; ++I) {
    Ids.push_back(D.slot(I).Id);
    Rids.push_back(D.slot(I).Rid);
    R.Failed += !D.slot(I).Passed;
  }
  for (const std::string &Why : D.errors())
    R.fail(Why);
  if (std::string Why = checkResponseSet(Ids, Rids, Sent); !Why.empty())
    R.fail(Why);
  Tracer Off(false);
  Rng Pick = Rng::forStream(Options.Seed, "perfbench-serve-sample");
  for (size_t K = 0; K < ReplaySample; ++K) {
    size_t I = Pick.nextBelow(std::min(Sent, Pool.size()));
    Replay Rep = replayRequest(S.bundle(), requestLine(Pool[I], I), RequestK, Off);
    std::string Why = Rep.Ok ? checkTop1(D.kept(I), Rep.Elements, Rep.Predicted)
                             : "replay did not parse";
    if (!Why.empty())
      R.fail("request " + std::to_string(I) + ": " + Why);
  }

  PhaseStats PLow = phaseStats(D, Low);
  PhaseStats PHigh = phaseStats(D, High);
  PhaseStats PSat = phaseStats(D, Sat);
  // Completions and process CPU seconds per slice of the sat phase: the
  // slices run between the generator's marks, about SatSlice apart.
  std::vector<double> SliceRps, SliceCpu;
  std::vector<size_t> SliceCount(Marks.size() > 1 ? Marks.size() - 1 : 0, 0);
  for (size_t I = Sat.first; I < Sat.second; ++I) {
    double At = between(SatStart, D.slot(I).Done);
    auto After = std::upper_bound(
        Marks.begin(), Marks.end(), At,
        [](double A, const LoadGenerator::Mark &M) { return A < M.At; });
    size_t Slice = static_cast<size_t>(After - Marks.begin());
    if (Slice >= 1 && Slice <= SliceCount.size())
      ++SliceCount[Slice - 1];
  }
  for (size_t K = 0; K < SliceCount.size(); ++K) {
    double C = static_cast<double>(SliceCount[K]);
    SliceRps.push_back(C / (Marks[K + 1].At - Marks[K].At));
    SliceCpu.push_back(C / (Marks[K + 1].Cpu - Marks[K].Cpu));
  }
  logSeries("sat_slice_rps", SliceRps);
  logSeries("sat_slice_requests_per_cpu_s", SliceCpu);
  logSeries("setup_s", SetupTimes);
  double PoolBytes = 0;
  for (const Request &Req : Pool)
    PoolBytes += static_cast<double>(Req.SourceBytes);
  const double MeanRequestMb = PoolBytes / static_cast<double>(Pool.size()) / 1e6;
  const double SatRps = median(SliceRps);
  const double SatPerCpuS = median(SliceCpu);
  const double P50Low = median(PLow.LatencyMs);
  const double P50High = median(PHigh.LatencyMs);

  R.Samples["low"] = static_cast<double>(PLow.LatencyMs.size());
  R.Samples["high"] = static_cast<double>(PHigh.LatencyMs.size());
  R.Samples["sat"] = static_cast<double>(PSat.LatencyMs.size());
  R.Samples["sat_slices"] = static_cast<double>(SliceRps.size());
  R.Samples["setups"] = static_cast<double>(SetupTimes.size());
  R.detail("p50_ms.low", P50Low, "ms");
  R.detail("p50_ms.high", P50High, "ms");
  // A p99 only where at least ten samples lie beyond it.
  if (PLow.LatencyMs.size() >= 1000)
    R.detail("p99_ms.low", percentile(PLow.LatencyMs, 0.99), "ms");
  if (PHigh.LatencyMs.size() >= 1000) {
    double P99 = percentile(PHigh.LatencyMs, 0.99);
    R.detail("p99_ms.high", P99, "ms");
    R.detail("limit_met.high", P99 <= LatencyLimitMs ? 1 : 0, "bool");
  }
  R.detail("sat_rps", SatRps, "1/s");
  R.detail("sat_requests_per_cpu_s", SatPerCpuS, "1/cpu-s");
  R.detail("rate.low", LowRps, "1/s");
  R.detail("rate.high", HighRps, "1/s");
  R.detail("window.sat", static_cast<double>(Window), "requests");
  R.detail("serve.generator_late_ms.low", percentile(PLow.LateMs, 0.99), "ms");
  R.detail("serve.generator_late_ms.high", percentile(PHigh.LateMs, 0.99), "ms");
  R.detail("support.cores_busy.sat", SatCpu / SatWall, "cores");
  R.detail("host.steal_share", StealShare, "fraction");

  if (!Options.Trace) {
    R.metric("setup_s", median(SetupTimes), "s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    R.metric("mb_per_cpu_s", SatPerCpuS * MeanRequestMb, "MB/cpu-s");
    return R;
  }

  // Traced: replay the whole pool one layer at a time.
  size_t Contexts = 0;
  for (int Pass = 0; Pass < ReplayPasses; ++Pass)
    for (const Request &Req : Pool) {
      Replay Rep = replayRequest(S.bundle(), requestLine(Req, 0), RequestK, T);
      if (Pass == 0)
        Contexts += Rep.Contexts;
    }
  auto Us = [&T](const char *Name) { return median(T.walls(Name)) * 1e6; };
  const char *Layers[] = {"serve.decode", "lang.parse", "paths.extract",
                          "crf.graph",    "crf.infer",  "crf.topk"};
  const char *LayerMetric[] = {"serve.decode_us", "lang.parse_us",
                               "paths.extract_us", "crf.graph_us",
                               "crf.infer_us",     "crf.topk_us"};
  double WorkUs = 0;
  for (size_t L = 0; L < std::size(Layers); ++L) {
    double V = Us(Layers[L]);
    R.detail(LayerMetric[L], V, "us");
    WorkUs += V;
  }
  R.detail("serve.work_us", WorkUs, "us");
  R.detail("serve.wait_ms.low", P50Low - WorkUs / 1000.0, "ms");
  R.detail("serve.wait_ms.high", P50High - WorkUs / 1000.0, "ms");
  R.detail("serve.batch_size.low", median(PLow.Batch), "requests");
  R.detail("serve.batch_size.high", median(PHigh.Batch), "requests");
  R.detail("serve.batch_size.sat", median(PSat.Batch), "requests");
  R.detail("core.bundle_load_ms", median(LoadMs), "ms");

  const double ReplayMb = PoolBytes * ReplayPasses / 1e6;
  R.metric("lang.parse_mb_per_s", ReplayMb / T.totalWall("lang.parse"), "MB/s");
  R.metric("paths.extract_mb_per_s", ReplayMb / T.totalWall("paths.extract"),
           "MB/s");
  R.metric("paths.contexts_per_kb",
           static_cast<double>(Contexts) / (PoolBytes / 1000.0), "1/KB");
  R.metric("core.save_mb_per_s",
           static_cast<double>(BundleBytes) / 1e6 /
               median(T.walls("core.bundle_save")),
           "MB/s");
  R.metric("support.cores_busy", SatCpu / SatWall, "cores");
  R.metric("traced.mb_per_cpu_s", SatPerCpuS * MeanRequestMb, "MB/cpu-s");
  T.writeJsonl(Options.WorkDir + "/serve_js_vars.spans.jsonl");
  std::fprintf(stderr, "%s", T.selfTimeTable().c_str());
  return R;
}

} // namespace perfbench
