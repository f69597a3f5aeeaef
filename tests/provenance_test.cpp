//===- provenance_test.cpp - Prediction provenance invariants --------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Pins the contract that makes `pigeon explain` trustworthy: an
/// explanation *is* the score — CrfModel::explain's Total equals the
/// topK() score of the same (node, label) exactly, Sgns::explain's
/// contributions sum to the Eq. 4 score exactly, and the attribution
/// records written into the event stream round-trip through the JSON
/// parser carrying the same numbers the report prints.
///
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"

#include "lang/js/JsParser.h"
#include "ml/word2vec/Sgns.h"
#include "support/EventLog.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

using namespace pigeon;
using namespace pigeon::core;
using pigeon::lang::Language;

namespace {

/// Trained name-prediction CRF over a few handwritten files sharing one
/// interner/table, plus a held-out graph to explain.
struct SmallCrf {
  StringInterner SI;
  paths::PathTable Table;
  std::vector<std::optional<ast::Tree>> Trees;
  std::vector<crf::CrfGraph> Graphs;
  crf::CrfModel Model;

  SmallCrf() {
    const char *Sources[] = {
        "function f(items) { for (var i = 0; i < items.length; i++) {"
        " use(items[i]); } }",
        "function g(items) { for (var j = 0; j < items.length; j++) {"
        " use(items[j]); } }",
        "var done = false; while (!done) { done = step(); }",
        "var count = 0; count = count + 1; use(count);",
    };
    crf::ElementSelector Selector = [](const ast::ElementInfo &Info) {
      return Info.Predictable &&
             (Info.Kind == ast::ElementKind::LocalVar ||
              Info.Kind == ast::ElementKind::Parameter);
    };
    for (const char *Src : Sources) {
      lang::ParseResult R = js::parse(Src, SI);
      EXPECT_TRUE(R.ok()) << Src;
      Trees.push_back(std::move(R.Tree));
      auto Contexts =
          paths::extractPathContexts(*Trees.back(), {}, Table);
      Graphs.push_back(crf::buildGraph(*Trees.back(), Contexts, Selector));
    }
    Model.train(Graphs);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// CRF explanation invariant
//===----------------------------------------------------------------------===//

TEST(CrfExplain, TotalEqualsTopKScoreForEveryCandidate) {
  SmallCrf S;
  size_t Checked = 0;
  for (const crf::CrfGraph &G : S.Graphs) {
    std::vector<Symbol> Assignment = S.Model.predict(G);
    for (uint32_t N : G.Unknowns) {
      for (const auto &[Label, Score] : S.Model.topK(G, N, Assignment, 5)) {
        crf::NodeExplanation Ex =
            S.Model.explain(G, N, Label, Assignment, /*K=*/0);
        EXPECT_EQ(Ex.Label, Label);
        // The decomposition reproduces the scorer bit-for-bit-ish: same
        // gates, same vote smoothing, so only summation-order epsilon.
        EXPECT_NEAR(Ex.Total, Score, 1e-9) << S.SI.str(Label);
        // The model was built with the default config (VotePrior = 1).
        const double VotePrior = crf::CrfConfig().VotePrior;
        double PathSum = 0;
        for (const crf::Attribution &A : Ex.Paths) {
          PathSum += A.Score;
          EXPECT_NEAR(A.Score, VotePrior * A.Vote + A.Weight, 1e-12);
          EXPECT_NE(A.Path, paths::InvalidPath);
        }
        EXPECT_NEAR(Ex.Total, Ex.Bias + PathSum, 1e-9);
        ++Checked;
      }
    }
  }
  EXPECT_GT(Checked, 0u);
}

TEST(CrfExplain, TruncationKeepsTotalAndOrdersByMagnitude) {
  SmallCrf S;
  const crf::CrfGraph &G = S.Graphs.front();
  ASSERT_FALSE(G.Unknowns.empty());
  uint32_t N = G.Unknowns.front();
  std::vector<Symbol> Assignment = S.Model.predict(G);
  auto Top = S.Model.topK(G, N, Assignment, 1);
  ASSERT_FALSE(Top.empty());

  crf::NodeExplanation Full =
      S.Model.explain(G, N, Top[0].first, Assignment, 0);
  crf::NodeExplanation Cut =
      S.Model.explain(G, N, Top[0].first, Assignment, 2);
  EXPECT_LE(Cut.Paths.size(), 2u);
  // Total reflects ALL paths even when the list is truncated for display.
  EXPECT_NEAR(Cut.Total, Full.Total, 1e-12);
  for (size_t I = 1; I < Full.Paths.size(); ++I)
    EXPECT_GE(std::abs(Full.Paths[I - 1].Score),
              std::abs(Full.Paths[I].Score));
  if (!Full.Paths.empty() && !Cut.Paths.empty()) {
    EXPECT_EQ(Full.Paths[0].Path, Cut.Paths[0].Path);
  }
}

//===----------------------------------------------------------------------===//
// SGNS explanation invariant
//===----------------------------------------------------------------------===//

TEST(SgnsExplain, ContributionsSumToEq4Score) {
  w2v::SgnsConfig Config;
  Config.Dim = 16;
  Config.Epochs = 3;
  w2v::Sgns Model(Config);
  std::vector<w2v::Pair> Pairs;
  for (uint32_t W = 0; W < 6; ++W)
    for (uint32_t C = 0; C < 9; ++C)
      if ((W + C) % 3 != 0)
        Pairs.push_back({W, C});
  Model.train(Pairs, 6, 9);

  // Repeated context ids: explain must fold multiplicity in.
  std::vector<uint32_t> Contexts = {1, 4, 4, 7, 2, 2, 2};
  auto Top = Model.topK(Contexts, 3);
  ASSERT_FALSE(Top.empty());
  for (const auto &[Word, Score] : Top) {
    auto Parts = Model.explain(Word, Contexts, /*K=*/0);
    EXPECT_EQ(Parts.size(), 4u); // distinct contexts: 1, 2, 4, 7
    double Sum = 0;
    for (const auto &[Ctx, Contribution] : Parts)
      Sum += Contribution;
    EXPECT_NEAR(Sum, Score, 1e-9);
  }
  // Truncation keeps the strongest-by-magnitude prefix.
  auto Cut = Model.explain(Top[0].first, Contexts, 2);
  ASSERT_EQ(Cut.size(), 2u);
  EXPECT_GE(std::abs(Cut[0].second), std::abs(Cut[1].second));
}

//===----------------------------------------------------------------------===//
// JSONL round-trip (the `pigeon explain` ↔ --trace contract)
//===----------------------------------------------------------------------===//

TEST(ProvenanceStream, ReportAndEventStreamCarrySameAttributions) {
  datagen::CorpusSpec Spec =
      datagen::defaultSpec(Language::JavaScript, /*Seed=*/11);
  Spec.NumProjects = 12;
  Corpus C = parseCorpus(datagen::generateCorpus(Spec),
                         Language::JavaScript);
  CrfExperimentOptions Options;
  Options.Extraction.MaxLength = 4;
  Options.Extraction.MaxWidth = 3;
  Options.Crf.Epochs = 2;

  telemetry::EventLog &Log = telemetry::EventLog::global();
  std::ostringstream OS;
  Log.attach(OS);
  std::vector<ExplainedPrediction> Rows = explainCrfPredictions(
      C, Task::VariableNames, Options, /*TopK=*/3, /*MaxNodes=*/6);
  Log.close();
  ASSERT_FALSE(Rows.empty());

  // Replay the stream: predictions arrive in report order, each followed
  // by its attribution records (the explain driver is single-threaded).
  std::istringstream In(OS.str());
  std::string Line;
  size_t Row = static_cast<size_t>(-1), Path = 0;
  size_t Predictions = 0, Attributions = 0;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::string Error;
    std::optional<json::Value> V = json::parse(Line, &Error);
    ASSERT_TRUE(V.has_value()) << Error << " in: " << Line;
    std::string Event = V->find("event")->str();
    if (Event == "prediction") {
      ++Row;
      Path = 0;
      ++Predictions;
      ASSERT_LT(Row, Rows.size());
      const ExplainedPrediction &P = Rows[Row];
      EXPECT_EQ(V->find("task")->str(), "vars");
      EXPECT_EQ(V->find("gold")->str(), P.Gold);
      EXPECT_EQ(V->find("predicted")->str(), P.Predicted);
      EXPECT_EQ(V->find("correct")->boolean(), P.Correct);
      EXPECT_NEAR(V->find("score")->number(), P.Score, 1e-9);
      EXPECT_NEAR(V->find("bias")->number(), P.Bias, 1e-9);
    } else if (Event == "attribution") {
      ++Attributions;
      ASSERT_LT(Row, Rows.size());
      const ExplainedPrediction &P = Rows[Row];
      ASSERT_LT(Path, P.Paths.size());
      const ExplainedPrediction::PathLine &L = P.Paths[Path++];
      // The stream carries exactly what the report prints.
      EXPECT_EQ(V->find("path")->str(), L.Path);
      EXPECT_EQ(V->find("unary")->boolean(), L.Unary);
      if (!L.Unary) {
        EXPECT_EQ(V->find("neighbor")->str(), L.Neighbor);
      }
      EXPECT_NEAR(V->find("score")->number(), L.Score, 1e-9);
      EXPECT_NEAR(V->find("weight")->number(), L.Weight, 1e-9);
      EXPECT_NEAR(V->find("vote")->number(), L.Vote, 1e-9);
    }
  }
  EXPECT_EQ(Predictions, Rows.size());
  size_t WantAttributions = 0;
  for (const ExplainedPrediction &P : Rows) {
    WantAttributions += P.Paths.size();
    EXPECT_LE(P.Paths.size(), 3u);
  }
  EXPECT_EQ(Attributions, WantAttributions);
}
