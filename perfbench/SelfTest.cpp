//===- SelfTest.cpp - Every correctness check must refuse a wrong output ---===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs each correctness check of the workloads twice on small inputs:
/// once on the program's genuine output, which it must accept, and once
/// on a deliberately corrupted copy, which it must refuse. A check that
/// accepts everything cannot pass this.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/MappedBundle.h"
#include "core/Pipeline.h"
#include "datagen/Sketch.h"
#include "serve/Serve.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace pigeon;
using namespace pigeon::core;

namespace perfbench {

namespace {

/// Tallies and prints one check's two verdicts.
class Verdicts {
public:
  /// \p Genuine and \p Corrupt are the check's answers (empty = pass).
  void expect(const std::string &Check, const std::string &Genuine,
              const std::string &Corrupt) {
    bool Ok = Genuine.empty() && !Corrupt.empty();
    std::printf("%-44s %s\n", Check.c_str(), Ok ? "ok" : "BROKEN");
    if (!Genuine.empty())
      std::printf("  refused the genuine output: %s\n", Genuine.c_str());
    else if (Corrupt.empty())
      std::printf("  accepted the corrupted output\n");
    else
      std::printf("  corrupted output refused: %s\n", Corrupt.c_str());
    Failures += !Ok;
  }
  int failures() const { return Failures; }

private:
  int Failures = 0;
};

std::vector<datagen::SourceFile> corpus(lang::Language Lang, uint64_t Seed,
                                        int Projects) {
  datagen::CorpusSpec Spec = datagen::defaultSpec(Lang, Seed);
  Spec.NumProjects = Projects;
  return datagen::generateCorpus(Spec);
}

void extractionChecks(Verdicts &V) {
  const lang::Language Js = lang::Language::JavaScript;
  Corpus C = parseCorpus(corpus(Js, 11, 2), Js, 1);
  paths::ExtractionConfig Config = varsOptions(Js).Extraction;
  // The deepest file leaves room for a pair beyond max_length.
  const ast::Tree *Tree = nullptr;
  for (const ParsedFile &F : C.Files)
    if (!Tree || F.Tree.size() > Tree->size())
      Tree = &F.Tree;
  paths::PathTable Table;
  auto Got = paths::extractPathContexts(*Tree, Config, Table);

  auto Beyond = Got;
  const auto &Leaves = Tree->terminals();
  bool Added = false;
  for (size_t I = 0; I < Leaves.size() && !Added; ++I)
    for (size_t J = I + 1; J < Leaves.size() && !Added; ++J)
      if (paths::pathShape(*Tree, Leaves[I], Leaves[J]).Length >
          Config.MaxLength) {
        Beyond.push_back({Leaves[I], Leaves[J], Got.front().Path, false});
        Added = true;
      }
  V.expect("extraction: context beyond max_length",
           checkExtraction(*Tree, Config, Got, Got.size()),
           Added ? checkExtraction(*Tree, Config, Beyond, Beyond.size())
                 : std::string());

  auto Dropped = Got;
  Dropped.pop_back();
  V.expect("extraction: context dropped",
           checkExtraction(*Tree, Config, Got),
           checkExtraction(*Tree, Config, Dropped));
  V.expect("extraction: artifact record count",
           checkExtraction(*Tree, Config, Got, Got.size()),
           checkExtraction(*Tree, Config, Got, Got.size() + 1));
}

void trainChecks(Verdicts &V, const std::string &WorkDir) {
  const lang::Language Java = lang::Language::Java;
  Tracer Off(false);
  TrainedBundle Trained = trainVarsBundle(corpus(Java, 12, 12), Java, Off);
  std::string Bytes = saveBundleV3(*Trained.Bundle, Off);
  std::vector<datagen::SourceFile> Held = corpus(Java, 13, 3);

  std::string HeldBytes;
  {
    Corpus C = parseCorpus(Held, Java);
    ContextsArtifact A =
        buildContextsArtifact(C, Task::VariableNames, varsOptions(Java));
    std::ostringstream OS;
    saveContexts(OS, A);
    HeldBytes = std::move(OS).str();
  }
  std::istringstream IS(HeldBytes);
  auto A = loadContexts(IS);
  rebaseArtifact(*A, *Trained.Bundle->Interner, Trained.Bundle->Table);
  std::vector<crf::CrfGraph> Graphs;
  std::vector<FileLabels> Labels = predictLabels(*Trained.Bundle, *A, Graphs);
  EvalStats Stats = evalArtifact(*Trained.Bundle, *A);

  // A flipped label: the benchmark's tally no longer matches the
  // evaluator, and the two prediction sets no longer agree.
  std::vector<FileLabels> Flipped = Labels;
  for (FileLabels &F : Flipped)
    if (!F.Predicted.empty()) {
      F.Predicted[0] = F.Predicted[0] == F.Gold[0] ? F.Gold[0] + "X" : F.Gold[0];
      break;
    }
  V.expect("train: flipped label vs evalArtifact tally",
           checkTally(tallyAccuracy(Labels), Stats.Total, Stats.Correct),
           checkTally(tallyAccuracy(Flipped), Stats.Total, Stats.Correct));
  V.expect("train: flipped label vs reopened predictions",
           checkSamePredictions(Labels, Labels),
           checkSamePredictions(Labels, Flipped));

  std::vector<std::set<std::string>> Names;
  std::map<std::string, std::set<std::string>> ByFile;
  for (const datagen::SourceFile &F : Held)
    for (const auto &Fn : F.Sketch.Functions)
      ByFile[F.FileName].merge(javaDeclaredNames(Fn));
  for (const FileRecord &Rec : A->Files)
    Names.push_back(ByFile[Rec.FileName]);
  std::vector<FileLabels> Foreign = Labels;
  for (FileLabels &F : Foreign)
    if (!F.Gold.empty()) {
      F.Gold[0] = "nameNoSourceDeclares";
      break;
    }
  V.expect("train: gold label not from the source",
           checkGoldFromSource(Labels, Names),
           checkGoldFromSource(Foreign, Names));

  // A corrupted bundle byte must not reopen under checksum verification.
  auto Reopen = [](const std::string &Path) -> std::string {
    LoadDiag Diag;
    auto B = loadModelFile(Path, &Diag, /*VerifyChecksum=*/true);
    return B ? "" : "reopen failed: " + Diag.Error;
  };
  std::string Good = WorkDir + "/selftest.pigeon";
  std::string Bad = WorkDir + "/selftest.corrupt.pigeon";
  std::string Corrupt = Bytes;
  Corrupt[Corrupt.size() / 2] ^= 0x5a;
  writeFile(Good, Bytes);
  writeFile(Bad, Corrupt);
  V.expect("train: corrupted bundle byte", Reopen(Good), Reopen(Bad));
}

void serveChecks(Verdicts &V, const std::string &WorkDir) {
  const lang::Language Js = lang::Language::JavaScript;
  Tracer Off(false);
  TrainedBundle Trained = trainVarsBundle(corpus(Js, 14, 8), Js, Off);
  std::string Path = WorkDir + "/selftest.serve.pigeon";
  writeFile(Path, saveBundleV3(*Trained.Bundle, Off));
  const int K = 3;
  std::vector<Request> Pool = makeJsRequests(15, 1, K);

  serve::Service S(loadModelFile(Path));
  std::vector<DecodedResponse> Got(Pool.size());
  std::vector<int64_t> Ids, Rids;
  std::string Genuine;
  for (size_t I = 0; I < Pool.size(); ++I) {
    decodeResponse(S.handleOne(requestLine(Pool[I], I)), Got[I]);
    Ids.push_back(Got[I].Id);
    Rids.push_back(Got[I].Rid);
    if (Genuine.empty())
      Genuine = checkResponse({static_cast<int64_t>(I), K, Pool[I].Elements},
                              Got[I]);
  }
  V.expect("serve: dropped response", checkResponseSet(Ids, Rids, Pool.size()),
           checkResponseSet({Ids.begin() + 1, Ids.end()},
                            {Rids.begin() + 1, Rids.end()}, Pool.size()));
  auto DupIds = Ids, DupRids = Rids;
  DupIds.back() = Ids.front();
  DupRids.back() = Rids.front();
  V.expect("serve: duplicated response", checkResponseSet(Ids, Rids, Pool.size()),
           checkResponseSet(DupIds, DupRids, Pool.size()));

  // Corrupt the first response with at least two candidates somewhere.
  size_t Pick = 0;
  for (size_t I = 0; I < Got.size(); ++I)
    for (const auto &P : Got[I].Predictions)
      if (P.Labels.size() >= 2 && P.Scores[0] > P.Scores[1]) {
        Pick = I;
        I = Got.size() - 1;
        break;
      }
  ExpectedResponse Want{static_cast<int64_t>(Pick), K, Pool[Pick].Elements};
  auto Corrupted = [&](auto Mutate) {
    DecodedResponse D = Got[Pick];
    Mutate(D);
    return checkResponse(Want, D);
  };
  V.expect("serve: response not ok", Genuine,
           Corrupted([](DecodedResponse &D) { D.Ok = false; }));
  V.expect("serve: element dropped", Genuine,
           Corrupted([](DecodedResponse &D) {
             // An element whose name no other element carries.
             auto &Ps = D.Predictions;
             for (auto It = Ps.begin(); It != Ps.end(); ++It)
               if (std::count_if(Ps.begin(), Ps.end(), [&](const auto &P) {
                     return P.Element == It->Element;
                   }) == 1) {
                 Ps.erase(It);
                 return;
               }
           }));
  V.expect("serve: candidates out of order", Genuine,
           Corrupted([](DecodedResponse &D) {
             for (auto &P : D.Predictions)
               if (P.Scores.size() >= 2 && P.Scores[0] > P.Scores[1]) {
                 std::swap(P.Scores[0], P.Scores[1]);
                 std::swap(P.Labels[0], P.Labels[1]);
                 return;
               }
           }));
  V.expect("serve: more than k candidates", Genuine,
           Corrupted([K](DecodedResponse &D) {
             auto &P = D.Predictions.front();
             while (P.Labels.size() <= static_cast<size_t>(K)) {
               P.Labels.push_back("extra");
               P.Scores.push_back(-1e9);
             }
           }));

  Replay Rep = replayRequest(S.bundle(), requestLine(Pool[Pick], Pick), K, Off);
  DecodedResponse Flipped = Got[Pick];
  for (auto &P : Flipped.Predictions)
    if (P.Labels.size() >= 2) {
      std::swap(P.Labels[0], P.Labels[1]);
      break;
    }
  V.expect("serve: flipped top-1 vs replay",
           checkTop1(Got[Pick], Rep.Elements, Rep.Predicted),
           checkTop1(Flipped, Rep.Elements, Rep.Predicted));
}

} // namespace

int runSelfTest(const std::string &WorkDir) {
  Verdicts V;
  extractionChecks(V);
  trainChecks(V, WorkDir);
  serveChecks(V, WorkDir);
  std::printf("%s: %d check(s) broken\n", V.failures() ? "FAIL" : "PASS",
              V.failures());
  return V.failures() ? 1 : 0;
}

} // namespace perfbench
