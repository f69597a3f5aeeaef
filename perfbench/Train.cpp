//===- Train.cpp - train_java_vars: the offline training path --------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One repetition takes Java sources in memory to saved v3 bundle bytes:
/// core::parseCorpus → core::buildContextsArtifact → graph assembly →
/// crf::CrfModel::train → core::saveModelV3. Repetitions run for the
/// run's length; train time is their median. The last bundle is written
/// to disk, reopened with core::loadModelFile and evaluated on held-out
/// projects.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "core/ContextsIO.h"
#include "core/MappedBundle.h"
#include "datagen/Sketch.h"

#include <cstdio>
#include <sstream>

using namespace pigeon;
using namespace pigeon::core;

namespace perfbench {

namespace {

constexpr lang::Language Java = lang::Language::Java;
/// Projects trained on, and held out for evaluation (16 files each).
constexpr int TrainProjects = 60;
constexpr int HeldOutProjects = 20;

struct Inputs {
  std::vector<datagen::SourceFile> Train, HeldOut;
};

Inputs makeInputs(uint64_t Seed) {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Java, Seed);
  Spec.NumProjects = TrainProjects + HeldOutProjects;
  std::vector<datagen::SourceFile> All = datagen::generateCorpus(Spec);
  // A project split: the first TrainProjects projects train.
  Inputs In;
  std::vector<std::string> Seen;
  for (datagen::SourceFile &F : All) {
    if (Seen.empty() || Seen.back() != F.Project)
      Seen.push_back(F.Project);
    (Seen.size() <= TrainProjects ? In.Train : In.HeldOut)
        .push_back(std::move(F));
  }
  return In;
}

/// One training repetition's products.
struct Trained {
  TrainedBundle Model;
  std::string Bytes;
};

/// Sources in memory → saved v3 bundle bytes.
Trained trainOnce(const std::vector<datagen::SourceFile> &Sources, Tracer &T) {
  Trained Out;
  Out.Model = trainVarsBundle(Sources, Java, T);
  Out.Bytes = saveBundleV3(*Out.Model.Bundle, T);
  return Out;
}

} // namespace

Result runTrain(const RunOptions &Options) {
  Result R;
  Tracer T(Options.Trace);
  Tracer Off(false);

  // Warm every core, then set up: generate the corpora and run one untimed
  // training. Repeated; the median is setup_s.
  Inputs In;
  std::vector<double> SetupTimes;
  spinAllCores(0.2);
  for (int I = 0; I < SetupRepeats; ++I) {
    auto Start = Clock::now();
    In = makeInputs(Options.Seed);
    trainOnce(In.Train, Off);
    SetupTimes.push_back(since(Start));
  }
  const double TrainMb = static_cast<double>(sourceBytes(In.Train)) / 1e6;

  // Timed repetitions.
  std::vector<double> Walls;
  std::vector<double> Cpus;
  std::string FirstBytes;
  bool SameBytes = true;
  Trained Last;
  StealMeter Steal;
  double Cpu0 = processCpuSeconds();
  auto RunStart = Clock::now();
  while (since(RunStart) < Options.Seconds) {
    const double RepCpu0 = processCpuSeconds();
    auto Start = Clock::now();
    Trained Rep = trainOnce(In.Train, T);
    Walls.push_back(since(Start));
    Cpus.push_back(processCpuSeconds() - RepCpu0);
    R.Attempted += In.Train.size();
    R.Failed += Rep.Model.Failures;
    if (Walls.size() == 1)
      FirstBytes = Rep.Bytes;
    SameBytes = SameBytes && Rep.Bytes == FirstBytes;
    Last = std::move(Rep);
  }
  double RunWall = since(RunStart);
  double RunCpu = processCpuSeconds() - Cpu0;
  const double StealShare = Steal.share();

  // Checks.
  if (Last.Model.Failures)
    R.fail(std::to_string(Last.Model.Failures) +
           " training files failed to parse");
  if (!SameBytes)
    R.fail("training repetitions saved different bundle bytes");
  const std::string BundlePath = Options.WorkDir + "/train_java_vars.pigeon";
  if (!writeFile(BundlePath, Last.Bytes))
    R.fail("cannot write " + BundlePath);

  std::string HeldBytes;
  size_t HeldFiles = 0;
  {
    Corpus C = parseCorpus(In.HeldOut, Java);
    R.Failed += In.HeldOut.size() - C.Files.size();
    if (C.Files.size() != In.HeldOut.size())
      R.fail("held-out files failed to parse");
    HeldFiles = C.Files.size();
    ContextsArtifact A =
        buildContextsArtifact(C, Task::VariableNames, varsOptions(Java));
    std::ostringstream OS;
    saveContexts(OS, A);
    HeldBytes = std::move(OS).str();
  }
  auto HeldArtifact = [&HeldBytes] {
    std::istringstream IS(HeldBytes);
    return loadContexts(IS);
  };

  // The in-memory model, before saving.
  std::vector<crf::CrfGraph> Graphs;
  std::vector<FileLabels> Before;
  {
    auto A = HeldArtifact();
    if (!A || !rebaseArtifact(*A, *Last.Model.Bundle->Interner, Last.Model.Bundle->Table))
      R.fail("held-out artifact does not rebase onto the trained model");
    else
      Before = predictLabels(*Last.Model.Bundle, *A, Graphs);
  }

  // The saved bundle, reopened with checksum verification.
  LoadDiag Diag;
  std::unique_ptr<ModelBundle> Reopened =
      loadModelFile(BundlePath, &Diag, /*VerifyChecksum=*/true);
  std::vector<FileLabels> After;
  Tally Own;
  double Accuracy = 0, Baseline = 0;
  if (!Reopened) {
    R.fail("saved bundle does not reopen: " + Diag.Error);
  } else {
    auto A = HeldArtifact();
    if (!A || !rebaseArtifact(*A, *Reopened->Interner, Reopened->Table)) {
      R.fail("held-out artifact does not rebase onto the reopened bundle");
    } else {
      After = predictLabels(*Reopened, *A, Graphs);
      EvalStats Stats = evalArtifact(*Reopened, *A);
      Own = tallyAccuracy(After);
      if (std::string Why = checkTally(Own, Stats.Total, Stats.Correct);
          !Why.empty())
        R.fail(Why);
      std::map<std::string, std::set<std::string>> NamesByFile;
      for (const datagen::SourceFile &F : In.HeldOut)
        for (const datagen::IdiomInstance &Fn : F.Sketch.Functions)
          NamesByFile[F.FileName].merge(javaDeclaredNames(Fn));
      std::vector<std::set<std::string>> Names;
      for (const FileRecord &Rec : A->Files)
        Names.push_back(NamesByFile[Rec.FileName]);
      if (std::string Why = checkGoldFromSource(After, Names); !Why.empty())
        R.fail(Why);
    }
    if (std::string Why = checkSamePredictions(Before, After); !Why.empty())
      R.fail(Why);
  }
  R.Attempted += Own.Total;
  if (Own.Total) {
    Accuracy = static_cast<double>(Own.Correct) / static_cast<double>(Own.Total);
    // The most-frequent-name baseline, from a fresh training artifact.
    Corpus C = parseCorpus(In.Train, Java);
    ContextsArtifact A =
        buildContextsArtifact(C, Task::VariableNames, varsOptions(Java));
    std::vector<std::string> TrainGold;
    for (const crf::CrfGraph &G : assembleGraphs(A))
      for (uint32_t N : G.Unknowns)
        TrainGold.emplace_back(A.Interner->str(G.Nodes[N].Gold));
    Baseline = mostFrequentNameBaseline(TrainGold, After);
    if (!(Accuracy > Baseline))
      R.fail("held-out accuracy " + std::to_string(Accuracy) +
             " does not beat the most-frequent-name baseline " +
             std::to_string(Baseline));
  }

  logSeries("train_s", Walls);
  logSeries("train_cpu_s", Cpus);
  logSeries("setup_s", SetupTimes);
  const double TrainS = median(Walls);
  const double TrainCpuS = median(Cpus);
  const double BundleMb = static_cast<double>(Last.Bytes.size()) / 1e6;
  R.Samples["repetitions"] = static_cast<double>(Walls.size());
  R.Samples["setups"] = static_cast<double>(SetupTimes.size());
  R.Samples["held_out_predictions"] = static_cast<double>(Own.Total);
  R.detail("train_s", TrainS, "s");
  R.detail("train_cpu_s", TrainCpuS, "cpu-s");
  R.detail("accuracy", Accuracy, "fraction");
  R.detail("baseline_accuracy", Baseline, "fraction");
  R.detail("bundle_mb", BundleMb, "MB");
  R.detail("source_mb", TrainMb, "MB");
  R.detail("train_files", static_cast<double>(In.Train.size()), "count");
  R.detail("held_out_files", static_cast<double>(HeldFiles), "count");
  R.detail("support.cores_busy.run", RunCpu / RunWall, "cores");
  R.detail("host.steal_share", StealShare, "fraction");

  if (!Options.Trace) {
    R.metric("setup_s", median(SetupTimes), "s");
    R.metric("peak_rss_mb", peakRssMb(), "MB");
    R.metric("mb_per_cpu_s", TrainMb / TrainCpuS, "MB/cpu-s");
    return R;
  }

  // Layer figures that need their own timing: bundle open (as serve
  // does it, no checksum pass) and single-thread inference.
  std::vector<double> LoadMs, NodesPerS;
  for (int I = 0; I < 5; ++I) {
    Tracer::Scope S(T, "core.bundle_load");
    auto Start = Clock::now();
    auto B = loadModelFile(BundlePath);
    LoadMs.push_back(since(Start) * 1000.0);
  }
  if (Reopened) {
    size_t Nodes = 0;
    for (const crf::CrfGraph &G : Graphs)
      Nodes += G.Unknowns.size();
    for (int I = 0; I < 3; ++I) {
      Tracer::Scope S(T, "crf.predict");
      auto Start = Clock::now();
      auto P = Reopened->Model.predictBatch(Graphs, 1);
      NodesPerS.push_back(static_cast<double>(Nodes) / since(Start));
    }
  }
  R.detail("lang.parse_s", median(T.walls("lang.parse")), "s");
  R.detail("core.artifact_build_s", median(T.walls("core.artifact_build")), "s");
  R.detail("crf.assemble_s", median(T.walls("crf.assemble")), "s");
  R.detail("crf.train_s", median(T.walls("crf.train")), "s");
  R.detail("crf.features",
           static_cast<double>(Last.Model.Bundle->Model.numFeatures()), "count");
  R.detail("core.bundle_save_s", median(T.walls("core.bundle_save")), "s");
  R.detail("core.bundle_load_ms", median(LoadMs), "ms");
  R.detail("crf.predict_nodes_per_s", median(NodesPerS), "1/s");

  R.metric("lang.parse_mb_per_s", TrainMb / median(T.walls("lang.parse")),
           "MB/s");
  R.metric("paths.extract_mb_per_s",
           TrainMb / median(T.walls("core.artifact_build")), "MB/s");
  R.metric("paths.contexts_per_kb",
           static_cast<double>(Last.Model.Contexts) / (TrainMb * 1000.0), "1/KB");
  R.metric("core.save_mb_per_s", BundleMb / median(T.walls("core.bundle_save")),
           "MB/s");
  R.metric("support.cores_busy", RunCpu / RunWall, "cores");
  R.metric("traced.mb_per_cpu_s", TrainMb / TrainCpuS, "MB/cpu-s");
  T.writeJsonl(Options.WorkDir + "/train_java_vars.spans.jsonl");
  std::fprintf(stderr, "%s", T.selfTimeTable().c_str());
  return R;
}

} // namespace perfbench
