//===- Common.cpp - Library compositions shared by the workloads -----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/MappedBundle.h"
#include "core/Pipeline.h"
#include "datagen/Sketch.h"
#include "lang/js/JsParser.h"
#include "support/Json.h"

#include <fstream>
#include <sstream>

using namespace pigeon;
using namespace pigeon::core;

namespace perfbench {

const char *languageTag(lang::Language Lang) {
  switch (Lang) {
  case lang::Language::JavaScript:
    return "js";
  case lang::Language::Java:
    return "java";
  case lang::Language::Python:
    return "py";
  case lang::Language::CSharp:
    return "cs";
  }
  return "?";
}

CrfExperimentOptions varsOptions(lang::Language Lang, size_t Threads) {
  CrfExperimentOptions Options;
  Options.Extraction = tunedExtraction(Lang, Task::VariableNames);
  Options.Threads = Threads;
  return Options;
}

size_t sourceBytes(const std::vector<datagen::SourceFile> &Sources) {
  size_t Bytes = 0;
  for (const datagen::SourceFile &F : Sources)
    Bytes += F.Text.size();
  return Bytes;
}

std::vector<crf::CrfGraph> assembleGraphs(const ContextsArtifact &A) {
  crf::ElementSelector Selector = selectorFor(A.TaskKind);
  std::vector<crf::CrfGraph> Graphs;
  Graphs.reserve(A.Files.size());
  for (const FileRecord &Rec : A.Files)
    Graphs.push_back(buildGraphFromRecord(Rec, Selector));
  return Graphs;
}

TrainedBundle trainVarsBundle(const std::vector<datagen::SourceFile> &Sources,
                              lang::Language Lang, Tracer &T) {
  TrainedBundle Out;
  Out.Bundle = std::make_unique<ModelBundle>();
  ModelBundle &B = *Out.Bundle;
  Corpus C;
  {
    Tracer::Scope S(T, "lang.parse");
    C = parseCorpus(Sources, Lang);
  }
  Out.Failures = Sources.size() - C.Files.size();
  ContextsArtifact A;
  {
    Tracer::Scope S(T, "core.artifact_build");
    A = buildContextsArtifact(C, Task::VariableNames, varsOptions(Lang));
  }
  for (const FileRecord &Rec : A.Files)
    Out.Contexts += Rec.Contexts.size();
  B.Lang = A.Lang;
  B.TaskKind = A.TaskKind;
  B.Extraction = A.Extraction;
  B.Interner = std::move(A.Interner);
  B.Table = std::move(A.Table);
  std::vector<crf::CrfGraph> Graphs;
  {
    Tracer::Scope S(T, "crf.assemble");
    Graphs = assembleGraphs(A);
  }
  {
    Tracer::Scope S(T, "crf.train");
    B.Model.train(Graphs);
  }
  return Out;
}

std::string saveBundleV3(const ModelBundle &B, Tracer &T) {
  Tracer::Scope S(T, "core.bundle_save");
  std::ostringstream OS;
  saveModelV3(OS, B);
  return std::move(OS).str();
}

bool writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(Out);
}

std::vector<FileLabels> predictLabels(const ModelBundle &B,
                                      const ContextsArtifact &A,
                                      std::vector<crf::CrfGraph> &Graphs) {
  Graphs = assembleGraphs(A);
  std::vector<std::vector<Symbol>> Preds = B.Model.predictBatch(Graphs);
  std::vector<FileLabels> Out(Graphs.size());
  for (size_t F = 0; F < Graphs.size(); ++F)
    for (uint32_t N : Graphs[F].Unknowns) {
      Out[F].Gold.emplace_back(B.Interner->str(Graphs[F].Nodes[N].Gold));
      Symbol P = Preds[F][N];
      Out[F].Predicted.emplace_back(P.isValid() ? B.Interner->str(P) : "");
    }
  return Out;
}

std::vector<Request> makeJsRequests(uint64_t Seed, int Projects, int K) {
  datagen::CorpusSpec Spec =
      datagen::defaultSpec(lang::Language::JavaScript, Seed);
  Spec.NumProjects = Projects;
  std::vector<Request> Out;
  for (const datagen::SourceFile &F : datagen::generateCorpus(Spec)) {
    Request R;
    R.Body = ",\"lang\":\"js\",\"task\":\"vars\",\"k\":" + std::to_string(K) +
             ",\"timing\":true,\"source\":" + jsonString(F.Text) + "}";
    for (const datagen::IdiomInstance &Fn : F.Sketch.Functions)
      for (const std::string &N : jsVariableNames(Fn))
        R.Elements.insert(N);
    R.SourceBytes = F.Text.size();
    Out.push_back(std::move(R));
  }
  return Out;
}

Replay replayRequest(const ModelBundle &B, const std::string &Line, int K,
                     Tracer &T) {
  Replay Out;
  Tracer::Scope Root(T, "serve.replay");
  std::optional<json::Value> Doc;
  {
    Tracer::Scope S(T, "serve.decode");
    Doc = json::parse(Line);
  }
  const json::Value *Source = Doc ? Doc->find("source") : nullptr;
  if (!Source || !Source->isString())
    return Out;
  StringInterner SI(StringInterner::Delta, *B.Interner);
  lang::ParseResult PR;
  {
    Tracer::Scope S(T, "lang.parse");
    PR = js::parse(Source->str(), SI);
  }
  if (!PR.Tree)
    return Out;
  paths::PathTable Table(paths::PathTable::Delta, B.Table);
  std::vector<paths::PathContext> Contexts;
  {
    Tracer::Scope S(T, "paths.extract");
    Contexts = paths::extractPathContexts(*PR.Tree, B.Extraction, Table);
  }
  crf::CrfGraph G;
  {
    Tracer::Scope S(T, "crf.graph");
    G = crf::buildGraph(*PR.Tree, Contexts, selectorFor(B.TaskKind));
  }
  std::vector<Symbol> Pred;
  {
    Tracer::Scope S(T, "crf.infer");
    Pred = B.Model.predict(G);
  }
  {
    Tracer::Scope S(T, "crf.topk");
    for (uint32_t N : G.Unknowns)
      B.Model.topK(G, N, Pred, K);
  }
  for (uint32_t N : G.Unknowns) {
    Out.Elements.emplace_back(SI.str(G.Nodes[N].Gold));
    Out.Predicted.emplace_back(Pred[N].isValid() ? SI.str(Pred[N]) : "");
  }
  Out.Contexts = Contexts.size();
  Out.Ok = true;
  return Out;
}

} // namespace perfbench
