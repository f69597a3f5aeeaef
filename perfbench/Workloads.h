//===- Workloads.h - The perfbench workloads --------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads, each driving PIGEON only through its libraries'
/// public functions, the self-test of the correctness checks, and the
/// library compositions they share. See README.md in this directory for
/// what each workload measures and why.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_PERFBENCH_WORKLOADS_H
#define PIGEON_PERFBENCH_WORKLOADS_H

#include "Checks.h"
#include "Harness.h"

#include "core/ContextsIO.h"
#include "core/ModelIO.h"

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// Parse → extract → contexts artifact for all four languages, repeated.
Result runIngest(const RunOptions &Options);
/// Parse → extract → assemble → CRF train → v3 bundle, Java variables.
Result runTrain(const RunOptions &Options);
/// Open-loop and saturating traffic against a resident serve::Service.
Result runServe(const RunOptions &Options);

/// Feeds every correctness check a genuine and a corrupted output.
/// \returns 0 when each check accepts the first and refuses the second.
int runSelfTest(const std::string &WorkDir);

//===----------------------------------------------------------------------===//
// Shared compositions of library calls
//===----------------------------------------------------------------------===//

/// The four languages in ingest order.
inline constexpr pigeon::lang::Language AllLanguages[] = {
    pigeon::lang::Language::JavaScript, pigeon::lang::Language::Java,
    pigeon::lang::Language::Python, pigeon::lang::Language::CSharp};
/// Short tag of \p Lang ("js", "java", "py", "cs").
const char *languageTag(pigeon::lang::Language Lang);

/// The extraction options PIGEON's CLI uses for \p Lang and the vars task
/// (validation-tuned limits), at \p Threads workers (0 = default).
pigeon::core::CrfExperimentOptions varsOptions(pigeon::lang::Language Lang,
                                               size_t Threads = 0);

/// Source bytes of \p Sources.
size_t sourceBytes(const std::vector<pigeon::datagen::SourceFile> &Sources);

/// `pigeon.contexts.v1` artifact → one CRF graph per file.
std::vector<pigeon::crf::CrfGraph>
assembleGraphs(const pigeon::core::ContextsArtifact &A);

/// A trained variable-name bundle and what building it saw.
struct TrainedBundle {
  std::unique_ptr<pigeon::core::ModelBundle> Bundle;
  size_t Failures = 0; ///< Source files the frontend dropped.
  size_t Contexts = 0; ///< Path-contexts extracted.
};

/// Sources in memory → trained vars bundle, the way `pigeon train`
/// composes parseCorpus, buildContextsArtifact, graph assembly and
/// CrfModel::train. Each call is a span (lang.parse,
/// core.artifact_build, crf.assemble, crf.train).
TrainedBundle trainVarsBundle(
    const std::vector<pigeon::datagen::SourceFile> &Sources,
    pigeon::lang::Language Lang, Tracer &T);

/// saveModelV3 into memory (span core.bundle_save).
std::string saveBundleV3(const pigeon::core::ModelBundle &B, Tracer &T);

/// Writes \p Bytes to \p Path; false on failure.
bool writeFile(const std::string &Path, const std::string &Bytes);

/// Gold and predicted label strings of every unknown element of every
/// file of \p A (already rebased onto \p B's symbol space); the graphs
/// are left in \p Graphs.
std::vector<FileLabels>
predictLabels(const pigeon::core::ModelBundle &B,
              const pigeon::core::ContextsArtifact &A,
              std::vector<pigeon::crf::CrfGraph> &Graphs);

/// One held-out serve request: its line minus the leading `{"id":N`, and
/// what its response must hold.
struct Request {
  std::string Body;
  std::set<std::string> Elements;
  size_t SourceBytes = 0;
};

/// Held-out single-function JavaScript requests for \p Seed.
std::vector<Request> makeJsRequests(uint64_t Seed, int Projects, int K);

/// The line of \p Req with id \p Id.
inline std::string requestLine(const Request &Req, size_t Id) {
  return "{\"id\":" + std::to_string(Id) + Req.Body;
}

/// The layer-by-layer replay of one request against a bundle:
/// json::parse, the JS parser over a delta interner, extractPathContexts
/// over a delta path table, crf::buildGraph, CrfModel::predict, and topK
/// per unknown element — the calls the service makes for it, each a span
/// (serve.decode, lang.parse, paths.extract, crf.graph, crf.infer,
/// crf.topk) under serve.replay.
struct Replay {
  std::vector<std::string> Elements, Predicted;
  size_t Contexts = 0;
  bool Ok = false;
};
Replay replayRequest(const pigeon::core::ModelBundle &B,
                     const std::string &Line, int K, Tracer &T);

} // namespace perfbench

#endif // PIGEON_PERFBENCH_WORKLOADS_H
