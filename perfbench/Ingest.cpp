//===- Ingest.cpp - ingest_4lang: parse, extract, write contexts artifacts -===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One round parses each language's generated corpus (core::parseCorpus),
/// extracts the vars-task contexts into an artifact
/// (core::buildContextsArtifact) and writes it (core::saveContexts) into
/// an in-memory sink that keeps its size and digest, at IngestThreads
/// workers. Rounds repeat for the run's length; the figures are medians over
/// rounds. The CRF does no work here.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "core/ContextsIO.h"
#include "datagen/Sketch.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

using namespace pigeon;
using namespace pigeon::core;

namespace perfbench {

namespace {

/// Projects per language: 16 single-function files each, ~3.7 KB per
/// project on average over the four languages.
constexpr int IngestProjects = 600;
/// Files per language whose extraction the benchmark re-derives.
constexpr size_t SampledFiles = 24;
/// Workers of every timed parse and extraction, whatever the host's core
/// count: a thread count that follows the host makes runs on different
/// hosts do different work, and threads on every vCPU of a shared host
/// time its other guests (at the default count of four, ten runs spread
/// by a third of their median where at most a quarter was allowed).
constexpr size_t IngestThreads = 2;

struct LangInput {
  lang::Language Lang;
  std::vector<datagen::SourceFile> Sources;
  size_t Bytes = 0;
};

std::vector<LangInput> makeInputs(uint64_t Seed) {
  std::vector<LangInput> Out;
  for (lang::Language L : AllLanguages) {
    datagen::CorpusSpec Spec = datagen::defaultSpec(L, Seed);
    Spec.NumProjects = IngestProjects;
    LangInput In{L, datagen::generateCorpus(Spec), 0};
    In.Bytes = sourceBytes(In.Sources);
    Out.push_back(std::move(In));
  }
  return Out;
}

/// What one language's pass of a round produced.
struct LangPass {
  size_t Files = 0;
  size_t Failures = 0;
  size_t Contexts = 0;
  size_t ArtifactBytes = 0;
  uint64_t Digest = 0;
};

/// parse → artifact → write for one language. Only the three library
/// calls (and freeing what they built) are inside \p Wall and \p Cpu
/// (process CPU seconds).
LangPass ingestOne(const LangInput &In, size_t Threads, Tracer &T,
                   double &Wall, double &Cpu) {
  LangPass Pass;
  DigestBuf Sink;
  const std::string Tag = languageTag(In.Lang);
  const double Cpu0 = processCpuSeconds();
  auto Start = Clock::now();
  {
    Corpus C;
    {
      Tracer::Scope S(T, "lang.parse." + Tag);
      C = parseCorpus(In.Sources, In.Lang, Threads);
    }
    Pass.Files = In.Sources.size();
    Pass.Failures = In.Sources.size() - C.Files.size();
    ContextsArtifact A;
    {
      Tracer::Scope S(T, "core.artifact_build." + Tag);
      A = buildContextsArtifact(C, Task::VariableNames,
                                varsOptions(In.Lang, Threads));
    }
    {
      Tracer::Scope S(T, "core.artifact_save." + Tag);
      std::ostream OS(&Sink);
      saveContexts(OS, A);
      OS.flush();
    }
    for (const FileRecord &R : A.Files)
      Pass.Contexts += R.Contexts.size();
  }
  Wall += since(Start);
  Cpu += processCpuSeconds() - Cpu0;
  Pass.ArtifactBytes = Sink.size();
  Pass.Digest = Sink.digest();
  return Pass;
}

/// Sum of wall and CPU seconds of the direct children of span \p Parent
/// whose name starts with \p Prefix.
void childTotals(const Tracer &T, int Parent, const std::string &Prefix,
                 double &Wall, double &Cpu) {
  Wall = Cpu = 0;
  for (const Span &S : T.spans())
    if (S.Parent == Parent && S.Name.compare(0, Prefix.size(), Prefix) == 0) {
      Wall += S.wall();
      Cpu += S.cpu();
    }
}

} // namespace

Result runIngest(const RunOptions &Options) {
  Result R;
  Tracer T(Options.Trace);
  Tracer Off(false);

  // Warm every core, then set up: generate the four corpora and run one
  // untimed round. Repeated; the median is setup_s.
  const size_t Threads = std::min<size_t>(IngestThreads, usableCores());
  std::vector<LangInput> Inputs;
  std::vector<double> SetupTimes;
  spinAllCores(0.2);
  for (int I = 0; I < SetupRepeats; ++I) {
    auto Start = Clock::now();
    Inputs = makeInputs(Options.Seed);
    double Ignored = 0, IgnoredCpu = 0;
    for (const LangInput &In : Inputs)
      ingestOne(In, Threads, Off, Ignored, IgnoredCpu);
    SetupTimes.push_back(since(Start));
  }
  size_t TotalBytes = 0, FilesPerRound = 0;
  for (const LangInput &In : Inputs) {
    TotalBytes += In.Bytes;
    FilesPerRound += In.Sources.size();
  }
  const double SourceMb = static_cast<double>(TotalBytes) / 1e6;

  // Timed rounds.
  std::vector<double> RoundWalls, RoundCpus;
  std::vector<int> RoundSpans;
  std::vector<LangPass> Last(Inputs.size());
  size_t Contexts = 0, ArtifactBytes = 0;
  StealMeter Steal;
  double Cpu0 = processCpuSeconds();
  auto RunStart = Clock::now();
  while (since(RunStart) < Options.Seconds) {
    int RoundSpan = T.open("ingest.round");
    double Wall = 0, Cpu = 0;
    for (size_t L = 0; L < Inputs.size(); ++L) {
      Last[L] = ingestOne(Inputs[L], Threads, T, Wall, Cpu);
      R.Attempted += Last[L].Files;
      R.Failed += Last[L].Failures;
    }
    T.close(RoundSpan);
    RoundWalls.push_back(Wall);
    RoundCpus.push_back(Cpu);
    RoundSpans.push_back(RoundSpan);
  }
  double RunWall = since(RunStart);
  double RunCpu = processCpuSeconds() - Cpu0;
  const double StealShare = Steal.share();
  for (const LangPass &P : Last) {
    Contexts += P.Contexts;
    ArtifactBytes += P.ArtifactBytes;
  }

  // Checks, on a round made at one thread: every file parses, that
  // round's artifacts are byte-identical to the timed ones, and
  // a seeded sample of files extracts exactly the pairs within limits.
  double SerialParse = 0;
  Rng Pick = Rng::forStream(Options.Seed, "perfbench-ingest-sample");
  for (size_t L = 0; L < Inputs.size(); ++L) {
    const LangInput &In = Inputs[L];
    const std::string Tag = languageTag(In.Lang);
    if (Last[L].Failures)
      R.fail(Tag + ": " + std::to_string(Last[L].Failures) +
             " generated files failed to parse");
    auto P0 = Clock::now();
    Corpus C = parseCorpus(In.Sources, In.Lang, 1);
    SerialParse += since(P0);
    CrfExperimentOptions Opts = varsOptions(In.Lang, 1);
    ContextsArtifact A = buildContextsArtifact(C, Task::VariableNames, Opts);
    DigestBuf Sink;
    std::ostream OS(&Sink);
    saveContexts(OS, A);
    OS.flush();
    if (Sink.size() != Last[L].ArtifactBytes ||
        Sink.digest() != Last[L].Digest)
      R.fail(Tag + ": artifact at 1 thread (" + std::to_string(Sink.size()) +
             " bytes) differs from the one at " + std::to_string(Threads) +
             " threads (" +
             std::to_string(Last[L].ArtifactBytes) + " bytes)");
    if (C.Files.size() != A.Files.size()) {
      R.fail(Tag + ": artifact has " + std::to_string(A.Files.size()) +
             " files for " + std::to_string(C.Files.size()) + " parsed");
      continue;
    }
    for (size_t K = 0; K < SampledFiles && !C.Files.empty(); ++K) {
      size_t F = Pick.nextBelow(C.Files.size());
      paths::PathTable Scratch;
      auto Got = paths::extractPathContexts(C.Files[F].Tree, Opts.Extraction,
                                            Scratch);
      std::string Why = checkExtraction(C.Files[F].Tree, Opts.Extraction, Got,
                                        A.Files[F].Contexts.size());
      if (!Why.empty())
        R.fail(Tag + " " + C.Files[F].FileName + ": " + Why);
    }
  }

  logSeries("round_s", RoundWalls);
  logSeries("round_cpu_s", RoundCpus);
  logSeries("setup_s", SetupTimes);
  double RoundMedian = median(RoundWalls);
  std::vector<double> PerCpu;
  for (double Cpu : RoundCpus)
    PerCpu.push_back(SourceMb / Cpu);
  const double MbPerCpuS = median(PerCpu);
  R.Samples["rounds"] = static_cast<double>(RoundWalls.size());
  R.Samples["setups"] = static_cast<double>(SetupTimes.size());
  R.detail("ingest_mb_per_s", SourceMb / RoundMedian, "MB/s");
  R.detail("source_mb", SourceMb, "MB");
  R.detail("files_per_round", static_cast<double>(FilesPerRound), "count");
  R.detail("support.cores_busy.run", RunCpu / RunWall, "cores");
  R.detail("host.steal_share", StealShare, "fraction");
  R.detail("paths.contexts", static_cast<double>(Contexts), "count");
  R.detail("core.artifact_mb", static_cast<double>(ArtifactBytes) / 1e6, "MB");

  if (!Options.Trace) {
    R.metric("setup_s", median(SetupTimes), "s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    R.metric("mb_per_cpu_s", MbPerCpuS, "MB/cpu-s");
    return R;
  }

  // Per-layer figures from the spans: medians over rounds.
  std::vector<double> Parse, Build, Save, ParseCpu, BuildCpu, SaveCpu;
  std::map<std::string, std::vector<double>> ParseByLang;
  for (int Round : RoundSpans) {
    double W, C;
    childTotals(T, Round, "lang.parse.", W, C);
    Parse.push_back(W);
    ParseCpu.push_back(C / W);
    childTotals(T, Round, "core.artifact_build.", W, C);
    Build.push_back(W);
    BuildCpu.push_back(C / W);
    childTotals(T, Round, "core.artifact_save.", W, C);
    Save.push_back(W);
    SaveCpu.push_back(C / W);
    for (const LangInput &In : Inputs) {
      std::string Name = std::string("lang.parse.") + languageTag(In.Lang);
      childTotals(T, Round, Name, W, C);
      ParseByLang[languageTag(In.Lang)].push_back(
          static_cast<double>(In.Bytes) / 1e6 / W);
    }
  }
  for (const auto &[Tag, Rates] : ParseByLang)
    R.detail("lang.parse_mb_per_s." + Tag, median(Rates), "MB/s");
  R.detail("core.artifact_build_s", median(Build), "s");
  R.detail("core.artifact_save_s", median(Save), "s");
  R.detail("support.cores_busy.parse", median(ParseCpu), "cores");
  R.detail("support.cores_busy.artifact_build", median(BuildCpu), "cores");
  R.detail("support.cores_busy.artifact_save", median(SaveCpu), "cores");
  R.detail("support.parse_speedup", SerialParse / median(Parse), "x");

  R.metric("lang.parse_mb_per_s", SourceMb / median(Parse), "MB/s");
  R.metric("paths.extract_mb_per_s", SourceMb / median(Build), "MB/s");
  R.metric("paths.contexts_per_kb",
           static_cast<double>(Contexts) / (SourceMb * 1000.0), "1/KB");
  R.metric("core.save_mb_per_s",
           static_cast<double>(ArtifactBytes) / 1e6 / median(Save), "MB/s");
  R.metric("support.cores_busy", RunCpu / RunWall, "cores");
  R.metric("traced.mb_per_cpu_s", MbPerCpuS, "MB/cpu-s");
  T.writeJsonl(Options.WorkDir + "/ingest_4lang.spans.jsonl");
  std::fprintf(stderr, "%s", T.selfTimeTable().c_str());
  return R;
}

} // namespace perfbench
