//===- Checks.h - Correctness checks of the perfbench workloads ------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every check compares a program output against a computation the
/// benchmark makes apart from the program, or against a property the
/// method must have — never against a stored copy of an earlier output.
/// Each returns an empty string when the output passes and a one-line
/// reason otherwise, so the self-test can feed it a corrupted output and
/// see it refuse.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_PERFBENCH_CHECKS_H
#define PIGEON_PERFBENCH_CHECKS_H

#include "ast/Ast.h"
#include "datagen/Sketch.h"
#include "paths/Paths.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// ingest_4lang
//===----------------------------------------------------------------------===//

/// The extracted contexts of \p Tree must be exactly its leaf-to-leaf
/// pairs within the paper's §4 limits plus its leaf-to-ancestor semi-paths
/// within max_length, enumerated with the benchmark's own tree walk (own
/// leaf order, own common-ancestor search, own width rule). \p RecordCount,
/// when not ~0, is the number of artifact records the file got, which must
/// equal the number of contexts.
std::string checkExtraction(const pigeon::ast::Tree &Tree,
                            const pigeon::paths::ExtractionConfig &C,
                            const std::vector<pigeon::paths::PathContext> &Got,
                            size_t RecordCount = ~size_t(0));

//===----------------------------------------------------------------------===//
// train_java_vars
//===----------------------------------------------------------------------===//

/// The labels of one evaluated file: gold and predicted per unknown
/// element, as strings (so two models with different symbol spaces
/// compare directly). An unpredicted element has an empty label.
struct FileLabels {
  std::vector<std::string> Gold;
  std::vector<std::string> Predicted;
};

/// Exact-match tally the benchmark computes itself.
struct Tally {
  size_t Total = 0;
  size_t Correct = 0;
};
Tally tallyAccuracy(const std::vector<FileLabels> &Files);

/// The benchmark's tally must equal the program's evaluator tally.
std::string checkTally(const Tally &Own, size_t EvalTotal, size_t EvalCorrect);

/// Every gold label must be an identifier of the file's own source: one
/// of the names its generating sketch drew.
std::string checkGoldFromSource(const std::vector<FileLabels> &Files,
                                const std::vector<std::set<std::string>> &Names);

/// Identifiers a Java rendering of \p Fn declares: every name the sketch
/// drew, plus the renderer's one fixed name (the `ioe` catch parameter of
/// the read-lines idiom).
std::set<std::string> javaDeclaredNames(const pigeon::datagen::IdiomInstance &Fn);

/// Two models' predictions (before saving and after reopening) must agree
/// on every element of every file.
std::string checkSamePredictions(const std::vector<FileLabels> &A,
                                 const std::vector<FileLabels> &B);

/// Accuracy of always answering the most frequent training name.
double mostFrequentNameBaseline(const std::vector<std::string> &TrainGold,
                                const std::vector<FileLabels> &HeldOut);

//===----------------------------------------------------------------------===//
// serve_js_vars
//===----------------------------------------------------------------------===//

/// The parameters and locals a JavaScript rendering of \p Fn declares,
/// read from the sketch: which slots the renderer binds as parameters,
/// `var`s or loop variables for the idiom and its structural variant. A
/// set of distinct names: two slots may draw the same name, and a
/// JavaScript `var` that redeclares a name is the same binding.
std::set<std::string>
jsVariableNames(const pigeon::datagen::IdiomInstance &Fn);

/// What the benchmark expects of one served request.
struct ExpectedResponse {
  int64_t Id = 0;
  int K = 0;
  std::set<std::string> Elements;
};

/// One decoded response, reduced to what the checks read.
struct DecodedResponse {
  bool Ok = false;
  std::string Schema;
  int64_t Rid = -1;
  int64_t Id = -1;
  struct Prediction {
    std::string Element;
    std::vector<std::string> Labels;
    std::vector<double> Scores;
  };
  std::vector<Prediction> Predictions;
  int BatchSize = 0;
};

/// Decodes one response line; \returns false on malformed JSON.
bool decodeResponse(const std::string &Line, DecodedResponse &Out);

/// Checks one response against its request: ok under pigeon.serve.v1,
/// the id echoed, the distinct element names exactly the names of the
/// request's parameters and locals, candidates sorted by score and at most k of them.
std::string checkResponse(const ExpectedResponse &Want,
                          const DecodedResponse &Got);

/// Exactly one response per submitted request, with rids unique across
/// the run. \p Ids are the echoed ids of every response received, \p
/// Rids their rids, \p Submitted the number of requests sent (ids are
/// 0..Submitted-1).
std::string checkResponseSet(const std::vector<int64_t> &Ids,
                             const std::vector<int64_t> &Rids,
                             size_t Submitted);

/// The served top-1 label of every element must equal the replay's
/// CrfModel::predict label (elements in the same order).
std::string checkTop1(const DecodedResponse &Got,
                      const std::vector<std::string> &ReplayElements,
                      const std::vector<std::string> &ReplayPredicted);

} // namespace perfbench

#endif // PIGEON_PERFBENCH_CHECKS_H
