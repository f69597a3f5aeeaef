//===- Checks.cpp - Correctness checks of the perfbench workloads ----------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_set>

using namespace pigeon;

namespace perfbench {

//===----------------------------------------------------------------------===//
// ingest_4lang
//===----------------------------------------------------------------------===//

namespace {

/// Terminals in left-to-right order, from the benchmark's own preorder
/// walk (not Tree::terminals()).
std::vector<ast::NodeId> leavesInOrder(const ast::Tree &Tree) {
  std::vector<ast::NodeId> Leaves;
  std::vector<ast::NodeId> Stack = {Tree.root()};
  while (!Stack.empty()) {
    ast::NodeId N = Stack.back();
    Stack.pop_back();
    const ast::Node &Node = Tree.node(N);
    if (Node.isTerminal()) {
      Leaves.push_back(N);
      continue;
    }
    auto Kids = Tree.children(N);
    for (size_t I = Kids.size(); I-- > 0;)
      Stack.push_back(Kids[I]);
  }
  return Leaves;
}

/// One path-context end pair: (start node, end node, semi-path?).
struct NodePair {
  uint32_t Start = 0;
  uint32_t End = 0;
  bool Semi = false;
  auto operator<=>(const NodePair &) const = default;
};

/// Root-first ancestor chain of \p N, \p N included.
std::vector<ast::NodeId> chainTo(const ast::Tree &Tree, ast::NodeId N) {
  std::vector<ast::NodeId> Chain;
  for (; N != ast::InvalidNode; N = Tree.node(N).Parent)
    Chain.push_back(N);
  std::reverse(Chain.begin(), Chain.end());
  return Chain;
}

std::vector<NodePair> expectedPairs(const ast::Tree &Tree,
                                    const paths::ExtractionConfig &C) {
  std::vector<ast::NodeId> Leaves = leavesInOrder(Tree);
  std::vector<std::vector<ast::NodeId>> Chains;
  Chains.reserve(Leaves.size());
  for (ast::NodeId L : Leaves)
    Chains.push_back(chainTo(Tree, L));

  std::vector<NodePair> Out;
  for (size_t I = 0; I < Leaves.size(); ++I) {
    for (size_t J = I + 1; J < Leaves.size(); ++J) {
      const auto &A = Chains[I], &B = Chains[J];
      // Common prefix of the two root-first chains ends at the common
      // ancestor; the next entries are the children it is left through.
      size_t Common = 0;
      while (Common < A.size() && Common < B.size() &&
             A[Common] == B[Common])
        ++Common;
      int Length = static_cast<int>(A.size() - Common) +
                   static_cast<int>(B.size() - Common);
      int Width = 0;
      if (Common < A.size() && Common < B.size())
        Width = std::abs(static_cast<int>(Tree.node(A[Common]).IndexInParent) -
                         static_cast<int>(Tree.node(B[Common]).IndexInParent));
      if (Length <= C.MaxLength && Width <= C.MaxWidth)
        Out.push_back({Leaves[I], Leaves[J], false});
    }
  }
  if (C.IncludeSemiPaths)
    for (size_t I = 0; I < Leaves.size(); ++I) {
      const auto &A = Chains[I];
      // Ancestors 1..MaxLength edges above the leaf.
      for (int Up = 1; Up <= C.MaxLength && Up < static_cast<int>(A.size());
           ++Up)
        Out.push_back({Leaves[I], A[A.size() - 1 - static_cast<size_t>(Up)],
                       true});
    }
  return Out;
}

} // namespace

std::string checkExtraction(const ast::Tree &Tree,
                            const paths::ExtractionConfig &C,
                            const std::vector<paths::PathContext> &Got,
                            size_t RecordCount) {
  std::vector<NodePair> Want = expectedPairs(Tree, C);
  std::vector<NodePair> Have;
  Have.reserve(Got.size());
  for (const paths::PathContext &P : Got)
    Have.push_back({P.Start, P.End, P.Semi});
  std::sort(Want.begin(), Want.end());
  std::sort(Have.begin(), Have.end());
  if (Want != Have) {
    size_t Extra = 0, Missing = 0;
    std::vector<NodePair> Diff;
    std::set_difference(Have.begin(), Have.end(), Want.begin(), Want.end(),
                        std::back_inserter(Diff));
    Extra = Diff.size();
    Diff.clear();
    std::set_difference(Want.begin(), Want.end(), Have.begin(), Have.end(),
                        std::back_inserter(Diff));
    Missing = Diff.size();
    return "extracted contexts differ from the pairs within max_length=" +
           std::to_string(C.MaxLength) + "/max_width=" +
           std::to_string(C.MaxWidth) + ": " + std::to_string(Extra) +
           " extra, " + std::to_string(Missing) + " missing (of " +
           std::to_string(Want.size()) + ")";
  }
  if (RecordCount != ~size_t(0) && RecordCount != Got.size())
    return "artifact holds " + std::to_string(RecordCount) +
           " records for a file with " + std::to_string(Got.size()) +
           " contexts";
  return "";
}

//===----------------------------------------------------------------------===//
// train_java_vars
//===----------------------------------------------------------------------===//

Tally tallyAccuracy(const std::vector<FileLabels> &Files) {
  Tally T;
  for (const FileLabels &F : Files)
    for (size_t I = 0; I < F.Gold.size(); ++I) {
      ++T.Total;
      if (I < F.Predicted.size() && !F.Predicted[I].empty() &&
          F.Predicted[I] == F.Gold[I])
        ++T.Correct;
    }
  return T;
}

std::string checkTally(const Tally &Own, size_t EvalTotal,
                       size_t EvalCorrect) {
  if (Own.Total == 0)
    return "no held-out elements to evaluate";
  if (Own.Total != EvalTotal || Own.Correct != EvalCorrect)
    return "own tally " + std::to_string(Own.Correct) + "/" +
           std::to_string(Own.Total) + " differs from evalArtifact's " +
           std::to_string(EvalCorrect) + "/" + std::to_string(EvalTotal);
  return "";
}

std::string checkGoldFromSource(const std::vector<FileLabels> &Files,
                                const std::vector<std::set<std::string>> &Names) {
  if (Files.size() != Names.size())
    return "evaluated " + std::to_string(Files.size()) + " files of " +
           std::to_string(Names.size());
  for (size_t F = 0; F < Files.size(); ++F)
    for (const std::string &G : Files[F].Gold)
      if (!Names[F].count(G))
        return "gold label \"" + G + "\" of held-out file " +
               std::to_string(F) + " is not a name its source declares";
  return "";
}

std::set<std::string> javaDeclaredNames(const datagen::IdiomInstance &Fn) {
  std::set<std::string> Names;
  for (const auto &[Slot, Name] : Fn.Names)
    Names.insert(Name);
  if (Fn.Kind == datagen::IdiomKind::ReadLines)
    Names.insert("ioe");
  return Names;
}

std::string checkSamePredictions(const std::vector<FileLabels> &A,
                                 const std::vector<FileLabels> &B) {
  if (A.size() != B.size())
    return "prediction sets cover " + std::to_string(A.size()) + " vs " +
           std::to_string(B.size()) + " files";
  for (size_t F = 0; F < A.size(); ++F) {
    if (A[F].Gold != B[F].Gold)
      return "file " + std::to_string(F) + ": elements differ";
    if (A[F].Predicted != B[F].Predicted)
      for (size_t I = 0; I < A[F].Predicted.size(); ++I)
        if (I >= B[F].Predicted.size() || A[F].Predicted[I] != B[F].Predicted[I])
          return "file " + std::to_string(F) + " element \"" + A[F].Gold[I] +
                 "\": predicted \"" + A[F].Predicted[I] + "\" before saving, \"" +
                 (I < B[F].Predicted.size() ? B[F].Predicted[I] : "") +
                 "\" after reopening";
  }
  return "";
}

double mostFrequentNameBaseline(const std::vector<std::string> &TrainGold,
                                const std::vector<FileLabels> &HeldOut) {
  std::map<std::string, size_t> Counts;
  for (const std::string &G : TrainGold)
    ++Counts[G];
  std::string Best;
  size_t BestCount = 0;
  for (const auto &[Name, Count] : Counts)
    if (Count > BestCount) {
      Best = Name;
      BestCount = Count;
    }
  size_t Total = 0, Hits = 0;
  for (const FileLabels &F : HeldOut)
    for (const std::string &G : F.Gold) {
      ++Total;
      Hits += G == Best;
    }
  return Total ? static_cast<double>(Hits) / static_cast<double>(Total) : 0;
}

//===----------------------------------------------------------------------===//
// serve_js_vars
//===----------------------------------------------------------------------===//

std::set<std::string> jsVariableNames(const datagen::IdiomInstance &Fn) {
  using datagen::IdiomKind;
  std::vector<const char *> Slots;
  switch (Fn.Kind) {
  case IdiomKind::LoopFlag:
  case IdiomKind::ConfigFlag:
    Slots = {"flag"};
    break;
  case IdiomKind::SearchFlag:
  case IdiomKind::CountMatches:
    Slots = {"items", "target", Fn.Kind == IdiomKind::SearchFlag ? "flag"
                                                                 : "counter",
             "item"};
    break;
  case IdiomKind::SumValues:
    Slots = {"values", "acc", Fn.Variant ? "item" : "index"};
    break;
  case IdiomKind::FindMax:
    Slots = {"items", "best", "item"};
    break;
  case IdiomKind::IndexOf:
    Slots = {"items", "target", "index"};
    break;
  case IdiomKind::BuildList:
    Slots = {"items", "limit", "results", "item"};
    break;
  case IdiomKind::JoinStrings:
    Slots = {"items", "sep", "builder", "item"};
    break;
  case IdiomKind::HttpRequest:
    Slots = {"url", "callback", "request"};
    break;
  case IdiomKind::ParseNumber:
    Slots = {"text", "fallback", "value"};
    break;
  case IdiomKind::MapLookup:
    Slots = {"map", "key", "fallback"};
    break;
  case IdiomKind::ScoreAccum:
    Slots = {"first", "second", "acc"};
    break;
  case IdiomKind::GetterSetter:
  case IdiomKind::ReadLines:
    break; // Not rendered for JavaScript.
  }
  std::set<std::string> Names;
  for (const char *Slot : Slots)
    Names.insert(Fn.name(Slot));
  return Names;
}

bool decodeResponse(const std::string &Line, DecodedResponse &Out) {
  std::optional<json::Value> Doc = json::parse(Line);
  if (!Doc || !Doc->isObject())
    return false;
  Out = DecodedResponse();
  if (const json::Value *V = Doc->find("ok"); V && V->isBool())
    Out.Ok = V->boolean();
  if (const json::Value *V = Doc->find("schema"); V && V->isString())
    Out.Schema = V->str();
  if (const json::Value *V = Doc->find("rid"); V && V->isNumber())
    Out.Rid = static_cast<int64_t>(V->number());
  if (const json::Value *V = Doc->find("id"); V && V->isNumber())
    Out.Id = static_cast<int64_t>(V->number());
  if (const json::Value *T = Doc->find("timing"); T && T->isObject())
    if (const json::Value *B = T->find("batch_size"); B && B->isNumber())
      Out.BatchSize = static_cast<int>(B->number());
  const json::Value *Preds = Doc->find("predictions");
  if (!Preds || !Preds->isArray())
    return true;
  for (const json::Value &P : Preds->array()) {
    DecodedResponse::Prediction Pred;
    if (const json::Value *E = P.find("element"); E && E->isString())
      Pred.Element = E->str();
    if (const json::Value *Cands = P.find("candidates"); Cands && Cands->isArray())
      for (const json::Value &C : Cands->array()) {
        const json::Value *L = C.find("label");
        const json::Value *S = C.find("score");
        Pred.Labels.push_back(L && L->isString() ? L->str() : "");
        Pred.Scores.push_back(S && S->isNumber() ? S->number() : 0);
      }
    Out.Predictions.push_back(std::move(Pred));
  }
  return true;
}

std::string checkResponse(const ExpectedResponse &Want,
                          const DecodedResponse &Got) {
  std::string Where = "request " + std::to_string(Want.Id) + ": ";
  if (!Got.Ok)
    return Where + "response is not ok";
  if (Got.Schema != "pigeon.serve.v1")
    return Where + "schema \"" + Got.Schema + "\"";
  if (Got.Id != Want.Id)
    return Where + "echoed id " + std::to_string(Got.Id);
  std::set<std::string> Elements;
  for (const auto &P : Got.Predictions)
    Elements.insert(P.Element);
  if (Elements != Want.Elements) {
    std::string Have, Need;
    for (const std::string &E : Elements)
      Have += " " + E;
    for (const std::string &E : Want.Elements)
      Need += " " + E;
    return Where + "elements {" + Have + " } but the source declares {" +
           Need + " }";
  }
  for (const auto &P : Got.Predictions) {
    if (P.Labels.size() > static_cast<size_t>(Want.K))
      return Where + std::to_string(P.Labels.size()) +
             " candidates for k=" + std::to_string(Want.K);
    for (size_t I = 1; I < P.Scores.size(); ++I)
      if (P.Scores[I] > P.Scores[I - 1])
        return Where + "candidates of \"" + P.Element +
               "\" are not sorted by score";
  }
  return "";
}

std::string checkResponseSet(const std::vector<int64_t> &Ids,
                             const std::vector<int64_t> &Rids,
                             size_t Submitted) {
  std::vector<size_t> Seen(Submitted, 0);
  for (int64_t Id : Ids) {
    if (Id < 0 || static_cast<size_t>(Id) >= Submitted)
      return "response for unknown request id " + std::to_string(Id);
    ++Seen[static_cast<size_t>(Id)];
  }
  for (size_t I = 0; I < Submitted; ++I)
    if (Seen[I] != 1)
      return "request " + std::to_string(I) + " got " +
             std::to_string(Seen[I]) + " responses";
  std::unordered_set<int64_t> Unique;
  for (int64_t Rid : Rids)
    if (!Unique.insert(Rid).second)
      return "rid " + std::to_string(Rid) + " is not unique";
  return "";
}

std::string checkTop1(const DecodedResponse &Got,
                      const std::vector<std::string> &ReplayElements,
                      const std::vector<std::string> &ReplayPredicted) {
  if (Got.Predictions.size() != ReplayElements.size())
    return "served " + std::to_string(Got.Predictions.size()) +
           " elements, replay found " + std::to_string(ReplayElements.size());
  for (size_t I = 0; I < ReplayElements.size(); ++I) {
    const auto &P = Got.Predictions[I];
    if (P.Element != ReplayElements[I])
      return "element " + std::to_string(I) + " is \"" + P.Element +
             "\" served, \"" + ReplayElements[I] + "\" replayed";
    std::string Top = P.Labels.empty() ? "" : P.Labels[0];
    if (Top != ReplayPredicted[I])
      return "element \"" + P.Element + "\": served top-1 \"" + Top +
             "\", CrfModel::predict \"" + ReplayPredicted[I] + "\"";
  }
  return "";
}

} // namespace perfbench
