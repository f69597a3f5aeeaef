//===- Crf.cpp - Conditional random field over program elements ------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/crf/Crf.h"

#include "support/Hashing.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <tuple>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::crf;
using namespace pigeon::paths;

//===----------------------------------------------------------------------===//
// Feature hashing
//===----------------------------------------------------------------------===//

namespace {

constexpr uint64_t PairTag = 0x5041u;  // "PA"
constexpr uint64_t UnaryTag = 0x554eu; // "UN"

} // namespace

uint64_t crf::pairKey(PathId Path, Symbol LabelA, Symbol LabelB) {
  uint64_t H = hashCombine(PairTag, Path);
  H = hashCombine(H, LabelA.index());
  H = hashCombine(H, LabelB.index());
  return hashFinalize(H);
}

uint64_t crf::unaryKey(PathId Path, Symbol Label) {
  uint64_t H = hashCombine(UnaryTag, Path);
  H = hashCombine(H, Label.index());
  return hashFinalize(H);
}

uint64_t crf::contextKey(PathId Path, bool UnknownIsA, Symbol Other) {
  uint64_t H = hashCombine(0x4358u, Path); // "CX"
  H = hashCombine(H, UnknownIsA ? 1 : 2);
  H = hashCombine(H, Other.index());
  return hashFinalize(H);
}

uint64_t crf::biasKey(Symbol Label) {
  return hashFinalize(hashCombine(0x4249u, Label.index())); // "BI"
}

//===----------------------------------------------------------------------===//
// Graph construction
//===----------------------------------------------------------------------===//

std::vector<std::vector<uint32_t>> CrfGraph::adjacency() const {
  std::vector<std::vector<uint32_t>> Adj(Nodes.size());
  for (uint32_t F = 0; F < Factors.size(); ++F) {
    Adj[Factors[F].A].push_back(F);
    if (!Factors[F].Unary && Factors[F].B != Factors[F].A)
      Adj[Factors[F].B].push_back(F);
  }
  return Adj;
}

std::vector<uint32_t> CrfGraph::incident(uint32_t Node) const {
  std::vector<uint32_t> Out;
  for (uint32_t F = 0; F < Factors.size(); ++F) {
    const Factor &Fac = Factors[F];
    if (Fac.A == Node || (!Fac.Unary && Fac.B == Node))
      Out.push_back(F);
  }
  return Out;
}

namespace {

/// Shared node-mapping logic for graph building.
class GraphAssembler {
public:
  GraphAssembler(const Tree &T, CrfGraph &G) : T(T), G(G) {}

  /// Node for a terminal: element node if it has one, else a known node
  /// merged by value.
  uint32_t terminalNode(NodeId Leaf, const ElementSelector &Selector) {
    const Node &N = T.node(Leaf);
    if (N.Element != InvalidElement)
      return elementNode(N.Element, Selector);
    return knownNode(N.Value);
  }

  uint32_t elementNode(ElementId E, const ElementSelector &Selector) {
    auto It = ElementNodes.find(E);
    if (It != ElementNodes.end())
      return It->second;
    const ElementInfo &Info = T.element(E);
    uint32_t Id = static_cast<uint32_t>(G.Nodes.size());
    bool Unknown = Selector(Info);
    G.Nodes.push_back({Info.Name, /*Known=*/!Unknown, E});
    if (Unknown)
      G.Unknowns.push_back(Id);
    ElementNodes.emplace(E, Id);
    return Id;
  }

  uint32_t knownNode(Symbol Value) {
    auto It = ValueNodes.find(Value);
    if (It != ValueNodes.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(G.Nodes.size());
    G.Nodes.push_back({Value, /*Known=*/true, InvalidElement});
    ValueNodes.emplace(Value, Id);
    return Id;
  }

private:
  const Tree &T;
  CrfGraph &G;
  std::unordered_map<ElementId, uint32_t> ElementNodes;
  std::unordered_map<Symbol, uint32_t> ValueNodes;
};

} // namespace

CrfGraph crf::buildGraph(const Tree &Tree,
                         const std::vector<PathContext> &Contexts,
                         const ElementSelector &Selector) {
  CrfGraph G;
  GraphAssembler Asm(Tree, G);
  for (const PathContext &Ctx : Contexts) {
    uint32_t A = Asm.terminalNode(Ctx.Start, Selector);
    uint32_t B;
    if (Ctx.Semi) {
      // Semi-path: the ancestor end is a known pseudo-node labelled by
      // its kind.
      B = Asm.knownNode(Tree.node(Ctx.End).Kind);
    } else {
      B = Asm.terminalNode(Ctx.End, Selector);
    }
    bool AKnown = G.Nodes[A].Known;
    bool BKnown = G.Nodes[B].Known;
    if (AKnown && BKnown)
      continue; // Constant factor: no influence on any prediction.
    if (A == B) {
      // Two occurrences of the same element: the paper's unary factor.
      G.Factors.push_back({A, A, Ctx.Path, /*Unary=*/true});
      continue;
    }
    G.Factors.push_back({A, B, Ctx.Path, /*Unary=*/false});
  }
  return G;
}

CrfGraph crf::buildTypeGraph(const Tree &Tree, NodeId Target,
                             const std::vector<PathContext> &Contexts) {
  CrfGraph G;
  GraphAssembler Asm(Tree, G);
  Symbol Type = Tree.typeOf(Target);
  assert(Type.isValid() && "type target must be annotated");
  // The single unknown node: the expression whose type we predict.
  uint32_t TargetNode = static_cast<uint32_t>(G.Nodes.size());
  G.Nodes.push_back({Type, /*Known=*/false, InvalidElement});
  G.Unknowns.push_back(TargetNode);
  auto NeverUnknown = [](const ElementInfo &) { return false; };
  for (const PathContext &Ctx : Contexts) {
    if (Ctx.End != Target)
      continue;
    uint32_t A = Asm.terminalNode(Ctx.Start, NeverUnknown);
    G.Factors.push_back({A, TargetNode, Ctx.Path, /*Unary=*/false});
  }
  return G;
}

void crf::addTriFactors(CrfGraph &Graph, const Tree &Tree,
                        const std::vector<paths::TriContext> &Contexts,
                        const ElementSelector &Selector,
                        StringInterner &Interner) {
  // Reuse the graph's existing node set: rebuild the terminal→node maps.
  std::unordered_map<ElementId, uint32_t> ElementNodes;
  std::unordered_map<Symbol, uint32_t> ValueNodes;
  for (uint32_t N = 0; N < Graph.Nodes.size(); ++N) {
    const GraphNode &Node = Graph.Nodes[N];
    if (Node.Element != InvalidElement)
      ElementNodes.emplace(Node.Element, N);
    else
      ValueNodes.emplace(Node.Gold, N);
  }
  auto KnownNode = [&](Symbol Value) {
    auto It = ValueNodes.find(Value);
    if (It != ValueNodes.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Graph.Nodes.size());
    Graph.Nodes.push_back({Value, /*Known=*/true, InvalidElement});
    ValueNodes.emplace(Value, Id);
    return Id;
  };
  auto UnknownOf = [&](NodeId Leaf) -> uint32_t {
    const Node &N = Tree.node(Leaf);
    if (N.Element == InvalidElement || !Selector(Tree.element(N.Element)))
      return UINT32_MAX;
    auto It = ElementNodes.find(N.Element);
    return It == ElementNodes.end() ? UINT32_MAX : It->second;
  };

  for (const paths::TriContext &Ctx : Contexts) {
    NodeId Ends[3] = {Ctx.A, Ctx.B, Ctx.C};
    uint32_t Unknown = UINT32_MAX;
    int UnknownCount = 0;
    for (NodeId End : Ends) {
      uint32_t U = UnknownOf(End);
      if (U != UINT32_MAX) {
        Unknown = U;
        ++UnknownCount;
      }
    }
    if (UnknownCount != 1)
      continue;
    // Composite label of the two known ends, in source order.
    std::string Composite;
    for (NodeId End : Ends) {
      if (UnknownOf(End) != UINT32_MAX)
        continue;
      if (!Composite.empty())
        Composite += '+';
      Composite += Tree.interner().str(Tree.node(End).Value);
    }
    uint32_t Known = KnownNode(Interner.intern(Composite));
    // Order: unknown on the A side if it is the triple's first end.
    bool UnknownFirst = UnknownOf(Ctx.A) != UINT32_MAX;
    if (UnknownFirst)
      Graph.Factors.push_back({Unknown, Known, Ctx.Path, /*Unary=*/false});
    else
      Graph.Factors.push_back({Known, Unknown, Ctx.Path, /*Unary=*/false});
  }
}

//===----------------------------------------------------------------------===//
// Model
//===----------------------------------------------------------------------===//

void CrfModel::bump(uint64_t Key, double Delta) {
  FeatureTable::Entry &E = Features.upsert(Key);
  E.Weight += Delta;
  E.Total += static_cast<double>(Time) * Delta;
}

double CrfModel::weight(uint64_t Key) const {
  if (IsFrozen) {
    const uint64_t *End = FC.WeightKeys + FC.NumWeights;
    const uint64_t *It = std::lower_bound(FC.WeightKeys, End, Key);
    return (It != End && *It == Key) ? FC.WeightVals[It - FC.WeightKeys]
                                     : 0.0;
  }
  const FeatureTable::Entry *E = Features.find(Key);
  return E ? E->Weight : 0.0;
}

bool CrfModel::pathPruned(paths::PathId Path) const {
  if (IsFrozen)
    return std::binary_search(FC.PrunedKeys, FC.PrunedKeys + FC.NumPruned,
                              static_cast<uint64_t>(Path));
  return PrunedPaths.count(Path) != 0;
}

CrfModel::CandRef CrfModel::findCandidates(uint64_t Ctx) const {
  CandRef R;
  if (IsFrozen) {
    const uint64_t *End = FC.CandKeys + FC.NumCands;
    const uint64_t *It = std::lower_bound(FC.CandKeys, End, Ctx);
    if (It == End || *It != Ctx)
      return R;
    size_t I = static_cast<size_t>(It - FC.CandKeys);
    R.Flat = FC.CandPairs + 2 * FC.CandOffsets[I];
    R.N = static_cast<size_t>(FC.CandOffsets[I + 1] - FC.CandOffsets[I]);
    return R;
  }
  auto It = Candidates.find(Ctx);
  if (It == Candidates.end())
    return R;
  R.Vec = It->second.data();
  R.N = It->second.size();
  return R;
}

void CrfModel::adoptFrozen(const FrozenCrf &View) {
  Features.clear();
  Candidates.clear();
  PrunedPaths.clear();
  Time = 1;
  FC = View;
  IsFrozen = true;
  // The global fallback list is rank-ordered and tiny (GlobalCandidates
  // entries); copying it keeps candidatesFor() oblivious to freezing.
  GlobalTop.clear();
  GlobalTop.reserve(View.NumGlobal);
  for (uint32_t I = 0; I < View.NumGlobal; ++I)
    GlobalTop.push_back(Symbol::fromIndex(View.GlobalTop[I]));
}

FlatCrf CrfModel::flatten() const {
  FlatCrf F;
  if (IsFrozen) {
    F.WeightKeys.assign(FC.WeightKeys, FC.WeightKeys + FC.NumWeights);
    F.WeightVals.assign(FC.WeightVals, FC.WeightVals + FC.NumWeights);
    F.CandKeys.assign(FC.CandKeys, FC.CandKeys + FC.NumCands);
    F.CandOffsets.assign(FC.CandOffsets, FC.CandOffsets + FC.NumCands + 1);
    F.CandPairs.assign(FC.CandPairs,
                       FC.CandPairs + 2 * FC.CandOffsets[FC.NumCands]);
    F.PrunedKeys.assign(FC.PrunedKeys, FC.PrunedKeys + FC.NumPruned);
    F.GlobalTop.assign(FC.GlobalTop, FC.GlobalTop + FC.NumGlobal);
    return F;
  }
  F.WeightKeys.reserve(Features.size());
  Features.forEach([&F](uint64_t Key, const FeatureTable::Entry &) {
    F.WeightKeys.push_back(Key);
  });
  std::sort(F.WeightKeys.begin(), F.WeightKeys.end());
  F.WeightVals.reserve(Features.size());
  for (uint64_t Key : F.WeightKeys)
    F.WeightVals.push_back(Features.find(Key)->Weight);

  F.CandKeys.reserve(Candidates.size());
  for (const auto &[Ctx, Labels] : Candidates)
    F.CandKeys.push_back(Ctx);
  std::sort(F.CandKeys.begin(), F.CandKeys.end());
  F.CandOffsets.reserve(Candidates.size() + 1);
  F.CandOffsets.push_back(0);
  for (uint64_t Ctx : F.CandKeys) {
    // Per-context order is preserved exactly: votes accumulate in list
    // order, so reordering here would perturb float sums downstream.
    const auto &Labels = Candidates.at(Ctx);
    for (const auto &[Label, Count] : Labels) {
      F.CandPairs.push_back(Label.index());
      F.CandPairs.push_back(Count);
    }
    F.CandOffsets.push_back(F.CandOffsets.back() + Labels.size());
  }

  F.PrunedKeys.assign(PrunedPaths.begin(), PrunedPaths.end());
  std::sort(F.PrunedKeys.begin(), F.PrunedKeys.end());
  F.GlobalTop.reserve(GlobalTop.size());
  for (Symbol S : GlobalTop)
    F.GlobalTop.push_back(S.index());
  return F;
}

void CrfModel::indexNode(const CrfGraph &Graph, uint32_t Node,
                         std::span<const uint32_t> Adjacent,
                         std::vector<std::pair<Symbol, double>> &Shares,
                         UnknownIndex &Index) const {
  const size_t Position = Index.size();
  for (uint32_t F : Adjacent)
    if (!pathPruned(Graph.Factors[F].Path))
      Index.Factors.push_back(F);
  Index.FactorBegin.push_back(Index.Factors.size());

  // Each context votes with its empirical label distribution P(label |
  // context): informative contexts concentrate their vote, noisy
  // (e.g. long-distance) contexts spread it thinly. The resulting list is
  // vote-ordered, so the first candidate is a good empirical argmax and a
  // good inference initialisation.
  Shares.clear();
  for (uint32_t F : Index.factorsOf(Position)) {
    const Factor &Fac = Graph.Factors[F];
    uint64_t Ctx;
    if (Fac.Unary) {
      // Unary factors (paths between occurrences of one element) carry
      // exactly the long-range signal single-statement models lack; they
      // vote for candidates through their own context table.
      Ctx = unaryKey(Fac.Path, Symbol());
    } else {
      uint32_t Other = Fac.A == Node ? Fac.B : Fac.A;
      if (!Graph.Nodes[Other].Known)
        continue;
      Ctx = contextKey(Fac.Path, Fac.A == Node, Graph.Nodes[Other].Gold);
    }
    CandRef Cand = findCandidates(Ctx);
    if (!Cand)
      continue;
    double Total = Config.VoteSmoothing;
    for (size_t C = 0; C < Cand.size(); ++C)
      Total += static_cast<double>(Cand.count(C));
    for (size_t C = 0; C < Cand.size(); ++C)
      Shares.emplace_back(Cand.label(C),
                          static_cast<double>(Cand.count(C)) / Total);
  }
  // Each label's vote mass is the sum of its shares in factor order (the
  // sort is stable). Labels end ordered by mass, ties by index, then the
  // global fallbacks no context voted for.
  auto ByIndex = [](const auto &A, const auto &B) {
    return A.first.index() < B.first.index();
  };
  std::stable_sort(Shares.begin(), Shares.end(), ByIndex);
  size_t Voted = 0;
  for (size_t I = 0; I < Shares.size();) {
    Symbol Label = Shares[I].first;
    double Mass = 0;
    for (; I < Shares.size() && Shares[I].first == Label; ++I)
      Mass += Shares[I].second;
    Shares[Voted++] = {Label, Mass};
  }
  Shares.resize(Voted);
  for (Symbol S : GlobalTop) {
    std::pair<Symbol, double> Probe(S, 0.0);
    if (!std::binary_search(Shares.begin(), Shares.begin() + Voted, Probe,
                            ByIndex))
      Shares.push_back(Probe);
  }
  std::sort(Shares.begin(), Shares.begin() + Voted,
            [](const auto &A, const auto &B) {
              if (A.second != B.second)
                return A.second > B.second;
              return A.first.index() < B.first.index();
            });
  for (const auto &[Label, Mass] : Shares) {
    Index.Labels.push_back(Label);
    Index.Votes.push_back(Mass);
  }
  Index.CandBegin.push_back(Index.Labels.size());
}

void CrfModel::indexUnknowns(const CrfGraph &Graph,
                             UnknownIndex &Index) const {
  std::vector<std::vector<uint32_t>> Adj = Graph.adjacency();
  std::vector<std::pair<Symbol, double>> Shares;
  for (uint32_t N : Graph.Unknowns)
    indexNode(Graph, N, Adj[N], Shares, Index);
}

/// A pairwise or unary feature key with the scored node's label still to
/// be folded in. Keys hash (tag, path, label A, label B) or (tag, path,
/// label) in that order, so everything before the node's own label is
/// one prefix.
struct CrfModel::ScoreTerm {
  /// Hash state just before the node's label.
  uint64_t Prefix;
  /// Set when the node is a pair factor's A side: the B label, folded in
  /// after the node's.
  bool HasSuffix;
  Symbol Suffix;
  /// The unknown node whose label the term reads (the node itself for a
  /// non-unary self-loop), or UINT32_MAX.
  uint32_t Reads;

  uint64_t key(Symbol Label) const {
    uint64_t H = hashCombine(Prefix, Label.index());
    if (HasSuffix)
      H = hashCombine(H, Suffix.index());
    return hashFinalize(H);
  }
};

void CrfModel::collectTerms(const CrfGraph &Graph, uint32_t Node,
                            std::span<const uint32_t> Incident,
                            const std::vector<Symbol> &Assignment,
                            std::vector<ScoreTerm> &Terms) const {
  Terms.clear();
  for (uint32_t F : Incident) {
    const Factor &Fac = Graph.Factors[F];
    if (Fac.Unary) {
      if (Config.UnaryFactors)
        Terms.push_back(
            {hashCombine(UnaryTag, Fac.Path), false, Symbol(), UINT32_MAX});
      continue;
    }
    uint32_t Other = Fac.A == Node ? Fac.B : Fac.A;
    bool OtherKnown = Graph.Nodes[Other].Known;
    if (!Config.UnknownUnknownFactors && !OtherKnown)
      continue;
    uint32_t Reads = OtherKnown ? UINT32_MAX : Other;
    uint64_t Prefix = hashCombine(PairTag, Fac.Path);
    if (Fac.A == Node)
      Terms.push_back({Prefix, true, Assignment[Fac.B], Reads});
    else
      Terms.push_back({hashCombine(Prefix, Assignment[Fac.A].index()), false,
                       Symbol(), Reads});
  }
}

double CrfModel::scoreTerms(Symbol Label,
                            const std::vector<ScoreTerm> &Terms) const {
  double Score = weight(biasKey(Label));
  for (const ScoreTerm &T : Terms)
    Score += weight(T.key(Label));
  return Score;
}

std::vector<Symbol> CrfModel::infer(const CrfGraph &Graph,
                                    const UnknownIndex &Index,
                                    size_t FirstUnknown) const {
  std::vector<Symbol> Assignment(Graph.Nodes.size());
  for (uint32_t N = 0; N < Graph.Nodes.size(); ++N)
    Assignment[N] = Graph.Nodes[N].Gold;
  // Initialise unknowns with their strongest candidate (vote-ordered, so
  // this is the empirical argmax given contexts).
  for (size_t I = 0; I < Graph.Unknowns.size(); ++I) {
    size_t U = FirstUnknown + I;
    size_t Begin = Index.CandBegin[U];
    Assignment[Graph.Unknowns[I]] =
        Begin == Index.CandBegin[U + 1] ? Symbol() : Index.Labels[Begin];
  }
  // Dirty[N]: a label N's score reads changed since N was last scored.
  std::vector<uint8_t> Dirty(Graph.Nodes.size(), 1);
  std::vector<ScoreTerm> Terms;
  // Iterated conditional ascent over score = vote prior + factor weights.
  for (int Pass = 0; Pass < Config.InferencePasses; ++Pass) {
    bool Changed = false;
    for (size_t I = 0; I < Graph.Unknowns.size(); ++I) {
      uint32_t N = Graph.Unknowns[I];
      size_t U = FirstUnknown + I;
      size_t Begin = Index.CandBegin[U], End = Index.CandBegin[U + 1];
      if (Begin == End || !Dirty[N])
        continue;
      Dirty[N] = 0;
      collectTerms(Graph, N, Index.factorsOf(U), Assignment, Terms);
      Symbol Best;
      double BestScore = 0;
      bool First = true;
      for (size_t C = Begin; C < End; ++C) {
        double S = Config.VotePrior * Index.Votes[C] +
                   scoreTerms(Index.Labels[C], Terms);
        if (First || S > BestScore) {
          BestScore = S;
          Best = Index.Labels[C];
          First = false;
        }
      }
      if (Best != Assignment[N]) {
        Assignment[N] = Best;
        Changed = true;
        // Whoever N's score reads also reads N's label.
        for (const ScoreTerm &T : Terms)
          if (T.Reads != UINT32_MAX)
            Dirty[T.Reads] = 1;
      }
    }
    if (!Changed)
      break;
  }
  return Assignment;
}

void CrfModel::train(const std::vector<CrfGraph> &Graphs) {
  telemetry::TraceScope TrainPhase("crf.train");
  auto &Reg = telemetry::MetricsRegistry::global();
  Reg.counter("crf.train.calls").inc();
  Reg.counter("crf.train.graphs").add(Graphs.size());
  // Training repopulates the mutable maps; thaw a frozen model first.
  IsFrozen = false;
  FC = FrozenCrf();

  std::optional<telemetry::TraceScope> Pass;
  Pass.emplace("candidates");
  // Pass 1: candidate tables and global label frequencies.
  std::unordered_map<uint64_t, std::unordered_map<Symbol, uint32_t>>
      RawCandidates;
  std::unordered_map<Symbol, uint64_t> LabelCounts;
  std::unordered_map<uint64_t, uint64_t> CtxToPath;
  for (const CrfGraph &G : Graphs) {
    for (uint32_t N : G.Unknowns)
      ++LabelCounts[G.Nodes[N].Gold];
    for (const Factor &F : G.Factors) {
      if (F.Unary) {
        if (!G.Nodes[F.A].Known) {
          uint64_t Ctx = unaryKey(F.Path, Symbol());
          ++RawCandidates[Ctx][G.Nodes[F.A].Gold];
          CtxToPath[Ctx] = F.Path;
        }
        continue;
      }
      bool AKnown = G.Nodes[F.A].Known;
      bool BKnown = G.Nodes[F.B].Known;
      if (AKnown == BKnown)
        continue; // Candidate proposal needs exactly one known side.
      uint32_t Unknown = AKnown ? F.B : F.A;
      uint32_t Known = AKnown ? F.A : F.B;
      uint64_t Ctx =
          contextKey(F.Path, Unknown == F.A, G.Nodes[Known].Gold);
      ++RawCandidates[Ctx][G.Nodes[Unknown].Gold];
      CtxToPath[Ctx] = F.Path;
    }
  }
  // Path purity: how concentrated the label distributions of a path's
  // contexts are. Near-uniform paths carry no naming signal (they are
  // typically long-distance cross-unit paths) and are pruned.
  PrunedPaths.clear();
  if (Config.MinPathLift > 0) {
    // The label marginal's own concentration is the baseline: a path is
    // informative only if its contexts concentrate labels beyond it.
    uint64_t MarginalMax = 0, MarginalTotal = 0;
    for (const auto &[Label, Count] : LabelCounts) {
      MarginalMax = std::max(MarginalMax, Count);
      MarginalTotal += Count;
    }
    double MarginalShare =
        MarginalTotal == 0 ? 1.0
                           : static_cast<double>(MarginalMax) /
                                 static_cast<double>(MarginalTotal);
    std::unordered_map<uint64_t, std::pair<double, double>> PathStats;
    for (const auto &[Ctx, Map] : RawCandidates) {
      uint32_t Max = 0, Total = 0;
      for (const auto &[Label, Count] : Map) {
        Max = std::max(Max, Count);
        Total += Count;
      }
      auto &[SumMax, SumTotal] = PathStats[CtxToPath.at(Ctx)];
      SumMax += Max;
      SumTotal += Total;
    }
    for (const auto &[Path, Stats] : PathStats) {
      if (Stats.second <= 0)
        continue;
      double Lift = (Stats.first / Stats.second) / MarginalShare;
      if (Lift < Config.MinPathLift)
        PrunedPaths.insert(Path);
    }
  }
  Candidates.clear();
  for (auto &[Ctx, Map] : RawCandidates) {
    std::vector<std::pair<Symbol, uint32_t>> Sorted(Map.begin(), Map.end());
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &A, const auto &B) {
                if (A.second != B.second)
                  return A.second > B.second;
                return A.first.index() < B.first.index();
              });
    if (Sorted.size() > static_cast<size_t>(Config.CandidatesPerContext))
      Sorted.resize(static_cast<size_t>(Config.CandidatesPerContext));
    Candidates.emplace(Ctx, std::move(Sorted));
  }
  {
    std::vector<std::pair<Symbol, uint64_t>> Sorted(LabelCounts.begin(),
                                                    LabelCounts.end());
    std::sort(Sorted.begin(), Sorted.end(),
              [](const auto &A, const auto &B) {
                if (A.second != B.second)
                  return A.second > B.second;
                return A.first.index() < B.first.index();
              });
    GlobalTop.clear();
    for (size_t I = 0;
         I < Sorted.size() &&
         I < static_cast<size_t>(Config.GlobalCandidates);
         ++I)
      GlobalTop.push_back(Sorted[I].first);
  }

  // Pass 2: averaged structured perceptron.
  Pass.emplace("perceptron");
  telemetry::Counter &EpochsCounter = Reg.counter("crf.epochs");
  telemetry::Counter &ViolationsCounter = Reg.counter("crf.violations");
  telemetry::Counter &UpdatesCounter = Reg.counter("crf.updates");
  telemetry::Histogram &EpochSeconds =
      Reg.histogram("crf.epoch.seconds", telemetry::timeBounds());
  Features.clear();
  Time = 1;
  // Candidates depend only on the tables fixed above and on known labels,
  // so every epoch reuses one index of all graphs' unknowns, graph after
  // graph. It lives through the whole training, so it is a few flat
  // arrays without spare capacity: thousands of small per-graph arrays
  // would leave holes in the heap once training frees them.
  UnknownIndex Index;
  std::vector<size_t> FirstUnknown;
  FirstUnknown.reserve(Graphs.size());
  for (const CrfGraph &G : Graphs) {
    FirstUnknown.push_back(Index.size());
    indexUnknowns(G, Index);
  }
  Index.FactorBegin.shrink_to_fit();
  Index.Factors.shrink_to_fit();
  Index.CandBegin.shrink_to_fit();
  Index.Labels.shrink_to_fit();
  Index.Votes.shrink_to_fit();

  for (int Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    telemetry::TraceScope EpochScope("epoch");
    uint64_t Violations = 0, Updates = 0;
    for (size_t GI = 0; GI < Graphs.size(); ++GI) {
      const CrfGraph &G = Graphs[GI];
      if (G.Unknowns.empty())
        continue;
      std::vector<Symbol> Pred = infer(G, Index, FirstUnknown[GI]);
      // Gold assignment is just the Gold labels.
      bool AnyMistake = false;
      for (uint32_t N : G.Unknowns)
        AnyMistake |= (Pred[N] != G.Nodes[N].Gold);
      if (AnyMistake) {
        ++Violations;
        for (uint32_t N : G.Unknowns) {
          if (Pred[N] == G.Nodes[N].Gold)
            continue;
          ++Updates;
          bump(biasKey(G.Nodes[N].Gold), Config.LearningRate);
          bump(biasKey(Pred[N]), -Config.LearningRate);
        }
        for (const Factor &F : G.Factors) {
          if (pathPruned(F.Path))
            continue;
          if (F.Unary) {
            if (!Config.UnaryFactors)
              continue;
            Symbol GoldL = G.Nodes[F.A].Gold;
            Symbol PredL = Pred[F.A];
            if (GoldL != PredL) {
              bump(unaryKey(F.Path, GoldL), Config.LearningRate);
              bump(unaryKey(F.Path, PredL), -Config.LearningRate);
            }
            continue;
          }
          if (!Config.UnknownUnknownFactors && !G.Nodes[F.A].Known &&
              !G.Nodes[F.B].Known)
            continue;
          Symbol GoldA = G.Nodes[F.A].Gold, GoldB = G.Nodes[F.B].Gold;
          Symbol PredA = Pred[F.A], PredB = Pred[F.B];
          if (GoldA == PredA && GoldB == PredB)
            continue;
          bump(pairKey(F.Path, GoldA, GoldB), Config.LearningRate);
          bump(pairKey(F.Path, PredA, PredB), -Config.LearningRate);
        }
      }
      ++Time;
    }
    EpochsCounter.inc();
    ViolationsCounter.add(Violations);
    UpdatesCounter.add(Updates);
    if (Config.L2Shrink > 0) {
      // Multiplicative shrinkage keeps noisy high-degree features from
      // accumulating; consistently-pushed informative weights survive.
      double Keep = 1.0 - Config.L2Shrink;
      Features.forEach([Keep](uint64_t, FeatureTable::Entry &E) {
        E.Weight *= Keep;
        E.Total *= Keep;
      });
    }
    EpochSeconds.observe(EpochScope.seconds());
  }
  // Finalize averaging: w_avg = w - totals / T.
  double Steps = static_cast<double>(Time);
  Features.forEach([Steps](uint64_t, FeatureTable::Entry &E) {
    E.Weight -= E.Total / Steps;
    E.Total = 0;
  });
  Reg.gauge("crf.features").set(static_cast<double>(Features.size()));
  Reg.gauge("crf.candidate_table")
      .set(static_cast<double>(Candidates.size()));
  Reg.gauge("crf.pruned_paths")
      .set(static_cast<double>(PrunedPaths.size()));
}

std::vector<Symbol> CrfModel::predict(const CrfGraph &Graph) const {
  UnknownIndex Index;
  indexUnknowns(Graph, Index);
  return infer(Graph, Index, 0);
}

std::vector<std::vector<Symbol>>
CrfModel::predictBatch(const std::vector<CrfGraph> &Graphs,
                       size_t Threads) const {
  telemetry::TraceScope Phase("crf.predict");
  parallel::StageTimer Stage("crf.predict");
  telemetry::MetricsRegistry::global()
      .counter("crf.predict.graphs")
      .add(Graphs.size());
  std::vector<std::vector<Symbol>> Out(Graphs.size());
  parallel::parallelFor(Graphs.size(), Threads,
                        [&](size_t I) { Out[I] = predict(Graphs[I]); });
  return Out;
}

std::vector<std::pair<Symbol, double>>
CrfModel::topK(const CrfGraph &Graph, uint32_t Node,
               const std::vector<Symbol> &Assignment, int K) const {
  UnknownIndex Index;
  std::vector<std::pair<Symbol, double>> Shares;
  indexNode(Graph, Node, Graph.incident(Node), Shares, Index);
  std::vector<ScoreTerm> Terms;
  collectTerms(Graph, Node, Index.factorsOf(0), Assignment, Terms);
  std::vector<std::pair<Symbol, double>> Scored;
  Scored.reserve(Index.Labels.size());
  for (size_t C = 0; C < Index.Labels.size(); ++C)
    Scored.emplace_back(Index.Labels[C],
                        Config.VotePrior * Index.Votes[C] +
                            scoreTerms(Index.Labels[C], Terms));
  std::sort(Scored.begin(), Scored.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first.index() < B.first.index();
  });
  if (Scored.size() > static_cast<size_t>(K))
    Scored.resize(static_cast<size_t>(K));
  return Scored;
}

NodeExplanation CrfModel::explain(const CrfGraph &Graph, uint32_t Node,
                                  Symbol Label,
                                  const std::vector<Symbol> &Assignment,
                                  int K) const {
  NodeExplanation Ex;
  Ex.Label = Label;
  Ex.Bias = weight(biasKey(Label));

  // This label's share of one context's (smoothed) vote mass — the exact
  // per-context term candidatesFor() accumulates.
  auto VoteOf = [this, Label](uint64_t Ctx) {
    CandRef Cand = findCandidates(Ctx);
    if (!Cand)
      return 0.0;
    double Total = Config.VoteSmoothing;
    uint32_t Mine = 0;
    for (size_t I = 0; I < Cand.size(); ++I) {
      Total += static_cast<double>(Cand.count(I));
      if (Cand.label(I) == Label)
        Mine = Cand.count(I);
    }
    return static_cast<double>(Mine) / Total;
  };

  // Aggregate factor contributions by (path, unary, neighbour): a path
  // occurring twice between the same pair is one line in the report.
  std::map<std::tuple<paths::PathId, bool, uint32_t>, Attribution> Agg;
  for (uint32_t F : Graph.incident(Node)) {
    const Factor &Fac = Graph.Factors[F];
    if (pathPruned(Fac.Path))
      continue;
    double Weight = 0, Vote = 0;
    Symbol Neighbor;
    if (Fac.Unary) {
      if (Config.UnaryFactors)
        Weight = weight(unaryKey(Fac.Path, Label));
      Vote = VoteOf(unaryKey(Fac.Path, Symbol()));
    } else {
      uint32_t Other = Fac.A == Node ? Fac.B : Fac.A;
      bool OtherKnown = Graph.Nodes[Other].Known;
      if (Config.UnknownUnknownFactors || OtherKnown) {
        if (Fac.A == Node)
          Weight = weight(pairKey(Fac.Path, Label, Assignment[Fac.B]));
        else
          Weight = weight(pairKey(Fac.Path, Assignment[Fac.A], Label));
      }
      // Only known neighbours vote (candidatesFor skips the rest).
      if (OtherKnown)
        Vote = VoteOf(
            contextKey(Fac.Path, Fac.A == Node, Graph.Nodes[Other].Gold));
      Neighbor = Assignment[Other];
    }
    Attribution &A =
        Agg[std::make_tuple(Fac.Path, Fac.Unary, Neighbor.index())];
    A.Path = Fac.Path;
    A.Unary = Fac.Unary;
    A.Neighbor = Neighbor;
    A.Weight += Weight;
    A.Vote += Vote;
  }

  Ex.Total = Ex.Bias;
  Ex.Paths.reserve(Agg.size());
  for (auto &[Key, A] : Agg) {
    A.Score = Config.VotePrior * A.Vote + A.Weight;
    Ex.Total += A.Score;
    Ex.Paths.push_back(A);
  }
  std::sort(Ex.Paths.begin(), Ex.Paths.end(),
            [](const Attribution &A, const Attribution &B) {
              double MagA = std::abs(A.Score), MagB = std::abs(B.Score);
              if (MagA != MagB)
                return MagA > MagB;
              if (A.Path != B.Path)
                return A.Path < B.Path;
              return A.Neighbor.index() < B.Neighbor.index();
            });
  if (K > 0 && Ex.Paths.size() > static_cast<size_t>(K))
    Ex.Paths.resize(static_cast<size_t>(K));
  return Ex;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t CrfMagic = 0x43524631;   // "CRF1"
constexpr uint32_t CrfVersion = 1;

template <typename T> void writePod(std::ostream &OS, const T &Value) {
  OS.write(reinterpret_cast<const char *>(&Value), sizeof(Value));
}

template <typename T> bool readPod(std::istream &IS, T &Value) {
  IS.read(reinterpret_cast<char *>(&Value), sizeof(Value));
  return static_cast<bool>(IS);
}

/// A read-only view of \p F's arrays.
FrozenCrf viewOf(const FlatCrf &F) {
  FrozenCrf V;
  V.WeightKeys = F.WeightKeys.data();
  V.WeightVals = F.WeightVals.data();
  V.NumWeights = F.WeightKeys.size();
  V.CandKeys = F.CandKeys.data();
  V.CandOffsets = F.CandOffsets.data();
  V.CandPairs = F.CandPairs.data();
  V.NumCands = F.CandKeys.size();
  V.PrunedKeys = F.PrunedKeys.data();
  V.NumPruned = F.PrunedKeys.size();
  V.GlobalTop = F.GlobalTop.data();
  V.NumGlobal = static_cast<uint32_t>(F.GlobalTop.size());
  return V;
}

} // namespace

void CrfModel::save(std::ostream &OS) const {
  // Trained and frozen models write the same sorted flat image, so the
  // bytes never depend on a hash table's layout.
  FlatCrf Flat;
  FrozenCrf V = FC;
  if (!IsFrozen) {
    Flat = flatten();
    V = viewOf(Flat);
  }
  writePod(OS, CrfMagic);
  writePod(OS, CrfVersion);
  writePod(OS, V.NumWeights);
  for (uint64_t I = 0; I < V.NumWeights; ++I) {
    writePod(OS, V.WeightKeys[I]);
    writePod(OS, V.WeightVals[I]);
  }
  writePod(OS, V.NumCands);
  for (uint64_t I = 0; I < V.NumCands; ++I) {
    writePod(OS, V.CandKeys[I]);
    uint32_t N =
        static_cast<uint32_t>(V.CandOffsets[I + 1] - V.CandOffsets[I]);
    writePod(OS, N);
    const uint32_t *Pairs = V.CandPairs + 2 * V.CandOffsets[I];
    for (uint32_t L = 0; L < N; ++L) {
      writePod(OS, Pairs[2 * L]);
      writePod(OS, Pairs[2 * L + 1]);
    }
  }
  writePod(OS, V.NumPruned);
  for (uint64_t I = 0; I < V.NumPruned; ++I)
    writePod(OS, V.PrunedKeys[I]);
  writePod(OS, V.NumGlobal);
  for (uint32_t I = 0; I < V.NumGlobal; ++I)
    writePod(OS, V.GlobalTop[I]);
}

bool CrfModel::load(std::istream &IS) {
  Features.clear();
  Candidates.clear();
  PrunedPaths.clear();
  GlobalTop.clear();
  Time = 1;
  IsFrozen = false;
  FC = FrozenCrf();

  uint32_t Magic = 0, Version = 0;
  if (!readPod(IS, Magic) || Magic != CrfMagic)
    return false;
  if (!readPod(IS, Version) || Version != CrfVersion)
    return false;

  uint64_t NumWeights = 0;
  if (!readPod(IS, NumWeights))
    return false;
  for (uint64_t I = 0; I < NumWeights; ++I) {
    uint64_t Key;
    double W;
    if (!readPod(IS, Key) || !readPod(IS, W))
      return false;
    // The first of duplicate keys wins.
    size_t Before = Features.size();
    FeatureTable::Entry &E = Features.upsert(Key);
    if (Features.size() > Before)
      E.Weight = W;
  }

  uint64_t NumContexts = 0;
  if (!readPod(IS, NumContexts))
    return false;
  for (uint64_t I = 0; I < NumContexts; ++I) {
    uint64_t Ctx;
    uint32_t NumLabels;
    if (!readPod(IS, Ctx) || !readPod(IS, NumLabels))
      return false;
    std::vector<std::pair<Symbol, uint32_t>> Labels;
    Labels.reserve(NumLabels);
    for (uint32_t L = 0; L < NumLabels; ++L) {
      uint32_t Index, Count;
      if (!readPod(IS, Index) || !readPod(IS, Count))
        return false;
      Labels.emplace_back(Symbol::fromIndex(Index), Count);
    }
    Candidates.emplace(Ctx, std::move(Labels));
  }

  uint64_t NumPruned = 0;
  if (!readPod(IS, NumPruned))
    return false;
  for (uint64_t I = 0; I < NumPruned; ++I) {
    uint64_t Path;
    if (!readPod(IS, Path))
      return false;
    PrunedPaths.insert(Path);
  }

  uint32_t NumGlobal = 0;
  if (!readPod(IS, NumGlobal))
    return false;
  for (uint32_t I = 0; I < NumGlobal; ++I) {
    uint32_t Index;
    if (!readPod(IS, Index))
      return false;
    GlobalTop.push_back(Symbol::fromIndex(Index));
  }
  return true;
}
