//===- crf_test.cpp - Unit tests for the CRF ---------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ml/crf/Crf.h"

#include "lang/js/JsParser.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::crf;
using namespace pigeon::paths;

namespace {

ElementSelector varSelector() {
  return [](const ElementInfo &Info) {
    return Info.Predictable && (Info.Kind == ElementKind::LocalVar ||
                                Info.Kind == ElementKind::Parameter);
  };
}

/// Parses JS, extracts paths, builds a CRF graph.
struct Built {
  StringInterner &SI;
  PathTable &Table;
  std::optional<Tree> T;
  CrfGraph G;

  Built(std::string_view Source, StringInterner &SI, PathTable &Table,
        const ExtractionConfig &Config = ExtractionConfig())
      : SI(SI), Table(Table) {
    lang::ParseResult R = js::parse(Source, SI);
    EXPECT_TRUE(R.ok()) << Source;
    T = std::move(R.Tree);
    auto Contexts = extractPathContexts(*T, Config, Table);
    G = buildGraph(*T, Contexts, varSelector());
  }
};

//===----------------------------------------------------------------------===//
// Graph construction
//===----------------------------------------------------------------------===//

TEST(CrfGraphBuild, UnknownNodesAreSelectedElements) {
  StringInterner SI;
  PathTable Table;
  Built B("var done = false; while (!done) { done = true; }", SI, Table);
  ASSERT_EQ(B.G.Unknowns.size(), 1u);
  const GraphNode &N = B.G.Nodes[B.G.Unknowns[0]];
  EXPECT_FALSE(N.Known);
  EXPECT_EQ(SI.str(N.Gold), "done");
}

TEST(CrfGraphBuild, KnownNodesMergeByValue) {
  StringInterner SI;
  PathTable Table;
  Built B("f(1); g(1);", SI, Table);
  // The literal `1` appears twice but must map to one known node.
  int OnesCount = 0;
  for (const GraphNode &N : B.G.Nodes)
    if (SI.str(N.Gold) == "1")
      ++OnesCount;
  EXPECT_EQ(OnesCount, 1);
}

TEST(CrfGraphBuild, UnaryFactorsLinkSameElementOccurrences) {
  StringInterner SI;
  PathTable Table;
  Built B("var d = false; d = true;", SI, Table);
  bool SawUnary = false;
  for (const Factor &F : B.G.Factors)
    if (F.Unary) {
      SawUnary = true;
      EXPECT_EQ(F.A, F.B);
      EXPECT_FALSE(B.G.Nodes[F.A].Known);
    }
  EXPECT_TRUE(SawUnary) << "two occurrences of d must yield a unary factor";
}

TEST(CrfGraphBuild, KnownKnownFactorsDropped) {
  StringInterner SI;
  PathTable Table;
  Built B("f(1, 2);", SI, Table);
  for (const Factor &F : B.G.Factors) {
    EXPECT_FALSE(B.G.Nodes[F.A].Known && B.G.Nodes[F.B].Known)
        << "factors between two known nodes carry no signal";
  }
}

TEST(CrfGraphBuild, SemiPathAncestorsAreKnownKindNodes) {
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  Config.IncludeSemiPaths = true;
  Built B("var x = 1;", SI, Table, Config);
  bool SawKindNode = false;
  for (const GraphNode &N : B.G.Nodes)
    if (N.Known && SI.str(N.Gold) == "VarDef")
      SawKindNode = true;
  EXPECT_TRUE(SawKindNode);
}

TEST(CrfGraphBuild, AdjacencyCoversAllFactors) {
  StringInterner SI;
  PathTable Table;
  Built B("var a = 1; var b = a + 2;", SI, Table);
  auto Adj = B.G.adjacency();
  size_t Mentions = 0;
  for (const auto &List : Adj)
    Mentions += List.size();
  size_t Expected = 0;
  for (const Factor &F : B.G.Factors)
    Expected += F.Unary ? 1 : 2;
  EXPECT_EQ(Mentions, Expected);
}

//===----------------------------------------------------------------------===//
// Learning end-to-end on tiny synthetic corpora
//===----------------------------------------------------------------------===//

/// The classic "loop flag" pattern with a given variable name.
std::string flagProgram(const std::string &Name) {
  return "var " + Name + " = false; while (!" + Name +
         ") { if (check()) { " + Name + " = true; } }";
}

/// A counting-loop pattern with a given variable name.
std::string counterProgram(const std::string &Name) {
  return "var " + Name + " = 0; for (var i = 0; i < n; i++) { " + Name +
         " += 1; }";
}

TEST(CrfLearning, LearnsRoleConditionedNames) {
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  std::vector<CrfGraph> TrainGraphs;
  std::vector<std::optional<Tree>> Keep; // Trees must outlive graphs.
  // Training: flags named done, counters named count.
  for (int I = 0; I < 6; ++I) {
    for (const std::string &Src :
         {flagProgram("done"), counterProgram("count")}) {
      lang::ParseResult R = js::parse(Src, SI);
      ASSERT_TRUE(R.ok());
      Keep.push_back(std::move(R.Tree));
      auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
      TrainGraphs.push_back(
          buildGraph(*Keep.back(), Contexts, varSelector()));
    }
  }
  CrfModel Model;
  Model.train(TrainGraphs);
  EXPECT_GT(Model.numFeatures(), 0u);

  // Test on the same patterns with stripped names.
  auto PredictName = [&](const std::string &Src) -> std::string {
    lang::ParseResult R = js::parse(Src, SI);
    EXPECT_TRUE(R.ok());
    auto Contexts = extractPathContexts(*R.Tree, Config, Table);
    CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
    // Find the unknown node corresponding to the stripped variable `d`.
    std::vector<Symbol> Pred = Model.predict(G);
    for (uint32_t N : G.Unknowns)
      if (SI.str(G.Nodes[N].Gold) == "d")
        return std::string(Pred[N].isValid() ? SI.str(Pred[N])
                                               : std::string_view());
    return "";
  };
  EXPECT_EQ(PredictName(flagProgram("d")), "done");
  EXPECT_EQ(PredictName(counterProgram("d")), "count");
}

TEST(CrfLearning, TopKContainsGoldNearTop) {
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  std::vector<CrfGraph> TrainGraphs;
  std::vector<std::optional<Tree>> Keep;
  for (int I = 0; I < 4; ++I) {
    for (const std::string &Name : {"done", "finished", "stop"}) {
      lang::ParseResult R = js::parse(flagProgram(Name), SI);
      ASSERT_TRUE(R.ok());
      Keep.push_back(std::move(R.Tree));
      auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
      TrainGraphs.push_back(
          buildGraph(*Keep.back(), Contexts, varSelector()));
    }
  }
  CrfModel Model;
  Model.train(TrainGraphs);

  lang::ParseResult R = js::parse(flagProgram("d"), SI);
  ASSERT_TRUE(R.ok());
  auto Contexts = extractPathContexts(*R.Tree, Config, Table);
  CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
  ASSERT_EQ(G.Unknowns.size(), 1u);
  std::vector<Symbol> Pred = Model.predict(G);
  auto Top = Model.topK(G, G.Unknowns[0], Pred, 3);
  ASSERT_GE(Top.size(), 3u);
  // All three flag-style names must appear among the top candidates.
  std::set<std::string> Names;
  for (const auto &[Label, Score] : Top)
    Names.insert(std::string(SI.str(Label)));
  EXPECT_TRUE(Names.count("done"));
  EXPECT_TRUE(Names.count("finished"));
  EXPECT_TRUE(Names.count("stop"));
}

TEST(CrfLearning, DistinguishesFig3Pair) {
  // The paper's Fig. 3 motivating pair: train flags as `done` and
  // straight-line reassigned vars as `flag`; the model must tell the two
  // programs apart (UnuglifyJS-style single-statement relations cannot).
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  std::vector<CrfGraph> TrainGraphs;
  std::vector<std::optional<Tree>> Keep;
  auto StraightLine = [](const std::string &Name) {
    return "someCondition(); doSomething(); var " + Name + " = false; " +
           Name + " = true;";
  };
  auto Loop = [](const std::string &Name) {
    return "var " + Name + " = false; while (!" + Name +
           ") { doSomething(); if (someCondition()) { " + Name +
           " = true; } }";
  };
  for (int I = 0; I < 6; ++I) {
    for (const std::string &Src : {Loop("done"), StraightLine("flag")}) {
      lang::ParseResult R = js::parse(Src, SI);
      ASSERT_TRUE(R.ok());
      Keep.push_back(std::move(R.Tree));
      auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
      TrainGraphs.push_back(
          buildGraph(*Keep.back(), Contexts, varSelector()));
    }
  }
  CrfModel Model;
  Model.train(TrainGraphs);

  auto PredictName = [&](const std::string &Src) -> std::string {
    lang::ParseResult R = js::parse(Src, SI);
    EXPECT_TRUE(R.ok());
    auto Contexts = extractPathContexts(*R.Tree, Config, Table);
    CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
    std::vector<Symbol> Pred = Model.predict(G);
    for (uint32_t N : G.Unknowns)
      if (SI.str(G.Nodes[N].Gold) == "d")
        return std::string(Pred[N].isValid() ? SI.str(Pred[N])
                                               : std::string_view());
    return "";
  };
  EXPECT_EQ(PredictName(Loop("d")), "done");
  EXPECT_EQ(PredictName(StraightLine("d")), "flag");
}

TEST(CrfLearning, MultipleUnknownsJointlyInferred) {
  StringInterner SI;
  PathTable Table;
  ExtractionConfig Config;
  std::vector<CrfGraph> TrainGraphs;
  std::vector<std::optional<Tree>> Keep;
  auto Pair = [](const std::string &Arr, const std::string &Idx) {
    return "function f(" + Arr + ") { for (var " + Idx + " = 0; " + Idx +
           " < " + Arr + ".length; " + Idx + "++) { use(" + Arr + "[" +
           Idx + "]); } }";
  };
  for (int I = 0; I < 8; ++I) {
    lang::ParseResult R = js::parse(Pair("items", "i"), SI);
    ASSERT_TRUE(R.ok());
    Keep.push_back(std::move(R.Tree));
    auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
    TrainGraphs.push_back(buildGraph(*Keep.back(), Contexts, varSelector()));
  }
  CrfModel Model;
  Model.train(TrainGraphs);

  lang::ParseResult R = js::parse(Pair("a", "b"), SI);
  ASSERT_TRUE(R.ok());
  auto Contexts = extractPathContexts(*R.Tree, Config, Table);
  CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
  ASSERT_EQ(G.Unknowns.size(), 2u);
  std::vector<Symbol> Pred = Model.predict(G);
  std::set<std::string> Names;
  for (uint32_t N : G.Unknowns)
    Names.insert(std::string(SI.str(Pred[N])));
  EXPECT_TRUE(Names.count("items"));
  EXPECT_TRUE(Names.count("i"));
}

TEST(CrfLearning, EmptyTrainingIsSafe) {
  CrfModel Model;
  Model.train({});
  EXPECT_EQ(Model.numFeatures(), 0u);
  StringInterner SI;
  PathTable Table;
  Built B("var x = 1;", SI, Table);
  std::vector<Symbol> Pred = Model.predict(B.G);
  EXPECT_EQ(Pred.size(), B.G.Nodes.size());
}

TEST(CrfLearning, DeterministicAcrossRuns) {
  auto Run = [](std::vector<std::string> &OutNames) {
    StringInterner SI;
    PathTable Table;
    ExtractionConfig Config;
    std::vector<CrfGraph> TrainGraphs;
    std::vector<std::optional<Tree>> Keep;
    for (int I = 0; I < 4; ++I) {
      for (const std::string &Src :
           {flagProgram("done"), counterProgram("count")}) {
        lang::ParseResult R = js::parse(Src, SI);
        Keep.push_back(std::move(R.Tree));
        auto Contexts = extractPathContexts(*Keep.back(), Config, Table);
        TrainGraphs.push_back(
            buildGraph(*Keep.back(), Contexts, varSelector()));
      }
    }
    CrfModel Model;
    Model.train(TrainGraphs);
    lang::ParseResult R = js::parse(flagProgram("d"), SI);
    auto Contexts = extractPathContexts(*R.Tree, Config, Table);
    CrfGraph G = buildGraph(*R.Tree, Contexts, varSelector());
    std::vector<Symbol> Pred = Model.predict(G);
    for (uint32_t N : G.Unknowns)
      OutNames.emplace_back(SI.str(Pred[N]));
  };
  std::vector<std::string> A, B;
  Run(A);
  Run(B);
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// Golden digests: training is pinned bit for bit
//===----------------------------------------------------------------------===//

/// A fixed corpus drawn by a seeded linear congruential generator:
/// role-conditioned names over four program shapes, one of them with
/// several interacting unknowns, so training sees over a thousand
/// features.
/// \p Seed and \p Count default to the training corpus; another seed
/// draws held-out programs of the same shapes.
std::vector<std::string> goldenCorpus(uint64_t Seed = 20180618,
                                      int Count = 64) {
  const char *Flags[] = {"done", "finished", "stop", "found"};
  const char *Counters[] = {"count", "total", "sum", "n"};
  const char *Arrays[] = {"items", "list", "values"};
  const char *Indexes[] = {"i", "j", "k"};
  uint64_t State = Seed;
  auto Next = [&State](size_t N) {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<size_t>((State >> 33) % N);
  };
  std::vector<std::string> Sources;
  for (int I = 0; I < Count; ++I) {
    switch (Next(4)) {
    case 0:
      Sources.push_back(flagProgram(Flags[Next(4)]));
      break;
    case 1:
      Sources.push_back(counterProgram(Counters[Next(4)]));
      break;
    case 2: {
      std::string A = Arrays[Next(3)], X = Indexes[Next(3)];
      Sources.push_back("function f(" + A + ") { for (var " + X + " = 0; " +
                        X + " < " + A + ".length; " + X + "++) { use(" + A +
                        "[" + X + "]); } }");
      break;
    }
    default: {
      std::string A = Arrays[Next(3)], X = Indexes[Next(3)];
      std::string F = Flags[Next(4)], C = Counters[Next(4)];
      Sources.push_back("function scan(" + A + ") { var " + F +
                        " = false; var " + C + " = 0; for (var " + X +
                        " = 0; " + X + " < " + A + ".length; " + X +
                        "++) { if (" + A + "[" + X + "] > 0) { " + C +
                        " += 1; } else { " + F + " = true; } } return " + C +
                        "; }");
      break;
    }
    }
  }
  return Sources;
}

/// Graphs of parsed programs, with the symbol and path spaces (and trees)
/// they refer to.
struct GoldenSpace {
  StringInterner SI;
  PathTable Table;
  std::vector<std::optional<Tree>> Keep;

  std::vector<CrfGraph> graphs(const std::vector<std::string> &Sources) {
    std::vector<CrfGraph> Graphs;
    for (const std::string &Src : Sources) {
      lang::ParseResult R = js::parse(Src, SI);
      EXPECT_TRUE(R.ok()) << Src;
      Keep.push_back(std::move(R.Tree));
      auto Contexts =
          extractPathContexts(*Keep.back(), ExtractionConfig(), Table);
      Graphs.push_back(buildGraph(*Keep.back(), Contexts, varSelector()));
    }
    return Graphs;
  }
};

/// Trains \p Model on goldenCorpus().
void trainGolden(CrfModel &Model) {
  GoldenSpace Space;
  Model.train(Space.graphs(goldenCorpus()));
}

/// Stable digest of every array of a flat image. The pinned digests below
/// were recorded when the learner still kept weights and totals in
/// std::unordered_map: they hold only while every feature sees the same
/// floating-point operations in the same order.
uint64_t digestOf(const FlatCrf &F) {
  uint64_t H = 0;
  auto Mix = [&H](const auto &V) {
    H = hashCombine(H, V.size());
    H = hashCombine(H, stableHashBytes(V.data(), V.size() * sizeof(V[0])));
  };
  Mix(F.WeightKeys);
  Mix(F.WeightVals);
  Mix(F.CandKeys);
  Mix(F.CandOffsets);
  Mix(F.CandPairs);
  Mix(F.PrunedKeys);
  Mix(F.GlobalTop);
  return H;
}

TEST(CrfGolden, DefaultConfigDigestIsPinned) {
  CrfModel Model;
  trainGolden(Model);
  FlatCrf F = Model.flatten();
  EXPECT_GT(F.WeightKeys.size(), 1000u);
  EXPECT_TRUE(F.PrunedKeys.empty());
  EXPECT_EQ(digestOf(F), 0x026c941a598b6d66ULL);
}

TEST(CrfGolden, ShrinkAndPruneDigestIsPinned) {
  CrfConfig Config;
  Config.L2Shrink = 0.05;
  Config.MinPathLift = 2.0;
  CrfModel Model(Config);
  trainGolden(Model);
  FlatCrf F = Model.flatten();
  EXPECT_GT(F.WeightKeys.size(), 500u);
  EXPECT_FALSE(F.PrunedKeys.empty());
  EXPECT_EQ(digestOf(F), 0x21f66d672e655f38ULL);
}

TEST(CrfGolden, NoUnknownUnknownFactorsDigestIsPinned) {
  CrfConfig Config;
  Config.UnknownUnknownFactors = false;
  CrfModel Model(Config);
  trainGolden(Model);
  FlatCrf F = Model.flatten();
  EXPECT_GT(F.WeightKeys.size(), 500u);
  EXPECT_EQ(digestOf(F), 0x244332ae42f9ba80ULL);
}

TEST(CrfGolden, NoUnaryFactorsDigestIsPinned) {
  CrfConfig Config;
  Config.UnaryFactors = false;
  CrfModel Model(Config);
  trainGolden(Model);
  FlatCrf F = Model.flatten();
  EXPECT_GT(F.WeightKeys.size(), 500u);
  EXPECT_EQ(digestOf(F), 0xca04486fc61ba2b3ULL);
}

TEST(CrfGolden, OneInferencePassDigestIsPinned) {
  CrfConfig Config;
  Config.InferencePasses = 1;
  CrfModel Model(Config);
  trainGolden(Model);
  FlatCrf F = Model.flatten();
  EXPECT_GT(F.WeightKeys.size(), 500u);
  EXPECT_EQ(digestOf(F), 0xa2f0fa49c693170dULL);
}

/// Digest of predict() labels and topK(K=5) labels and score bit patterns
/// for every unknown of \p Graphs.
uint64_t predictionDigest(const CrfModel &Model,
                          const std::vector<CrfGraph> &Graphs) {
  uint64_t H = 0;
  for (const CrfGraph &G : Graphs) {
    std::vector<Symbol> Pred = Model.predict(G);
    for (uint32_t N : G.Unknowns) {
      H = hashCombine(H, Pred[N].index());
      auto Top = Model.topK(G, N, Pred, 5);
      H = hashCombine(H, Top.size());
      for (const auto &[Label, Score] : Top) {
        uint64_t Bits;
        std::memcpy(&Bits, &Score, sizeof(Bits));
        H = hashCombine(hashCombine(H, Label.index()), Bits);
      }
    }
  }
  return H;
}

TEST(CrfGolden, PredictAndTopKDigestIsPinned) {
  GoldenSpace Space;
  CrfModel Model;
  Model.train(Space.graphs(goldenCorpus()));
  std::vector<CrfGraph> HeldOut =
      Space.graphs(goldenCorpus(/*Seed=*/20180619, /*Count=*/24));
  size_t Unknowns = 0;
  for (const CrfGraph &G : HeldOut)
    Unknowns += G.Unknowns.size();
  EXPECT_GT(Unknowns, 40u);

  uint64_t Trained = predictionDigest(Model, HeldOut);
  EXPECT_EQ(Trained, 0xb4e1eecc5e6f9096ULL);

  FlatCrf Flat = Model.flatten();
  FrozenCrf View;
  View.WeightKeys = Flat.WeightKeys.data();
  View.WeightVals = Flat.WeightVals.data();
  View.NumWeights = Flat.WeightKeys.size();
  View.CandKeys = Flat.CandKeys.data();
  View.CandOffsets = Flat.CandOffsets.data();
  View.CandPairs = Flat.CandPairs.data();
  View.NumCands = Flat.CandKeys.size();
  View.PrunedKeys = Flat.PrunedKeys.data();
  View.NumPruned = Flat.PrunedKeys.size();
  View.GlobalTop = Flat.GlobalTop.data();
  View.NumGlobal = static_cast<uint32_t>(Flat.GlobalTop.size());
  CrfModel Frozen;
  Frozen.adoptFrozen(View);
  EXPECT_EQ(predictionDigest(Frozen, HeldOut), Trained);

  std::vector<std::vector<Symbol>> Batch = Model.predictBatch(HeldOut, 2);
  for (size_t I = 0; I < HeldOut.size(); ++I)
    EXPECT_EQ(Batch[I], Model.predict(HeldOut[I])) << I;
}

//===----------------------------------------------------------------------===//
// Inference on hand-built graphs
//===----------------------------------------------------------------------===//

/// A model whose weights and candidate lists are set by hand, served
/// frozen from \p Flat and, through save() and load(), from the mutable
/// tables training fills.
struct HandModel {
  FlatCrf Flat;
  CrfModel Frozen;
  CrfModel Thawed;

  HandModel(const CrfConfig &Config,
            std::map<uint64_t, double> Weights,
            std::map<uint64_t, std::vector<std::pair<Symbol, uint32_t>>>
                Cands)
      : Frozen(Config), Thawed(Config) {
    for (const auto &[Key, W] : Weights) {
      Flat.WeightKeys.push_back(Key);
      Flat.WeightVals.push_back(W);
    }
    Flat.CandOffsets.push_back(0);
    for (const auto &[Ctx, Labels] : Cands) {
      Flat.CandKeys.push_back(Ctx);
      for (const auto &[Label, Count] : Labels) {
        Flat.CandPairs.push_back(Label.index());
        Flat.CandPairs.push_back(Count);
      }
      Flat.CandOffsets.push_back(Flat.CandOffsets.back() + Labels.size());
    }
    FrozenCrf View;
    View.WeightKeys = Flat.WeightKeys.data();
    View.WeightVals = Flat.WeightVals.data();
    View.NumWeights = Flat.WeightKeys.size();
    View.CandKeys = Flat.CandKeys.data();
    View.CandOffsets = Flat.CandOffsets.data();
    View.CandPairs = Flat.CandPairs.data();
    View.NumCands = Flat.CandKeys.size();
    Frozen.adoptFrozen(View);
    std::stringstream Stream;
    Frozen.save(Stream);
    EXPECT_TRUE(Thawed.load(Stream));
  }

  /// predict() of \p G, asserting both model forms agree.
  std::vector<Symbol> predict(const CrfGraph &G) const {
    std::vector<Symbol> Pred = Frozen.predict(G);
    EXPECT_EQ(Thawed.predict(G), Pred);
    return Pred;
  }
};

Symbol sym(uint32_t Index) { return Symbol::fromIndex(Index); }

TEST(CrfInference, NonUnarySelfLoopReScoresItsOwnNode) {
  // Node 0 is unknown with a pairwise factor to itself: its score reads
  // its own current label, so changing it dirties the node itself. The
  // weights make it alternate x -> y -> x over two passes.
  const Symbol K = sym(1), X = sym(10), Y = sym(11);
  const PathId Vote = 5, Loop = 6;
  CrfGraph G;
  G.Nodes = {{X, /*Known=*/false}, {K, /*Known=*/true}};
  G.Unknowns = {0};
  G.Factors = {{0, 1, Vote, false}, {0, 0, Loop, false}};
  CrfConfig Config;
  Config.InferencePasses = 2;
  HandModel M(Config,
              {{pairKey(Loop, Y, X), 1.0}, {pairKey(Loop, X, Y), 1.0}},
              {{contextKey(Vote, true, K), {{X, 10}, {Y, 5}}}});
  EXPECT_EQ(M.predict(G), (std::vector<Symbol>{X, K}));
  Config.InferencePasses = 1;
  HandModel One(Config,
                {{pairKey(Loop, Y, X), 1.0}, {pairKey(Loop, X, Y), 1.0}},
                {{contextKey(Vote, true, K), {{X, 10}, {Y, 5}}}});
  EXPECT_EQ(One.predict(G), (std::vector<Symbol>{Y, K}));
}

TEST(CrfInference, EmptyCandidateListNextToAScoredNode) {
  // Node 1 has no known neighbour and there is no global fallback, so it
  // has no candidates and keeps the invalid label; node 0 scores against
  // that invalid label.
  const Symbol K = sym(1), X = sym(10), Y = sym(11);
  const PathId Vote = 5, Link = 7;
  CrfGraph G;
  G.Nodes = {{X, false}, {Y, false}, {K, true}};
  G.Unknowns = {0, 1};
  G.Factors = {{0, 2, Vote, false}, {0, 1, Link, false}};
  HandModel M(CrfConfig(), {{pairKey(Link, Y, Symbol()), 1.0}},
              {{contextKey(Vote, true, K), {{X, 10}, {Y, 5}}}});
  EXPECT_EQ(M.predict(G), (std::vector<Symbol>{Y, Symbol(), K}));
}

TEST(CrfInference, LaterNodeChangeReScoresEarlierNode) {
  // Chain U0 - U1 of unknowns. In the first pass U0 is scored against
  // U1's initial label c and keeps a; then U1 flips to d. Only a second
  // look at U0, made because its neighbour changed after it was scored,
  // flips U0 to b.
  const Symbol K0 = sym(1), K1 = sym(2);
  const Symbol A = sym(10), B = sym(11), C = sym(12), D = sym(13);
  const PathId Vote0 = 5, Vote1 = 6, Link = 7;
  CrfGraph G;
  G.Nodes = {{A, false}, {C, false}, {K0, true}, {K1, true}};
  G.Unknowns = {0, 1};
  G.Factors = {{0, 2, Vote0, false}, {1, 3, Vote1, false},
               {0, 1, Link, false}};
  auto Weights = std::map<uint64_t, double>{{pairKey(Link, A, D), 1.0},
                                            {pairKey(Link, B, D), 2.0}};
  auto Cands =
      std::map<uint64_t, std::vector<std::pair<Symbol, uint32_t>>>{
          {contextKey(Vote0, true, K0), {{A, 10}, {B, 5}}},
          {contextKey(Vote1, true, K1), {{C, 10}, {D, 5}}}};
  HandModel M(CrfConfig(), Weights, Cands);
  EXPECT_EQ(M.predict(G), (std::vector<Symbol>{B, D, K0, K1}));
  CrfConfig One;
  One.InferencePasses = 1;
  HandModel OnePass(One, Weights, Cands);
  EXPECT_EQ(OnePass.predict(G), (std::vector<Symbol>{A, D, K0, K1}));
}

TEST(CrfSerialization, SaveLoadSaveIsByteIdentical) {
  // The legacy stream writes weights in key order, so a reloaded model
  // (whose table grew in a different insertion order) saves the same bytes.
  CrfModel Model;
  trainGolden(Model);
  std::stringstream First;
  Model.save(First);
  CrfModel Restored;
  ASSERT_TRUE(Restored.load(First));
  EXPECT_EQ(Restored.numFeatures(), Model.numFeatures());
  std::stringstream Second;
  Restored.save(Second);
  EXPECT_EQ(First.str(), Second.str());
}

//===----------------------------------------------------------------------===//
// Feature table
//===----------------------------------------------------------------------===//

TEST(CrfFeatureTable, FindOnEmptyTable) {
  FeatureTable T;
  EXPECT_EQ(T.size(), 0u);
  EXPECT_EQ(T.find(0), nullptr);
  EXPECT_EQ(T.find(42), nullptr);
  size_t Visited = 0;
  T.forEach([&](uint64_t, const FeatureTable::Entry &) { ++Visited; });
  EXPECT_EQ(Visited, 0u);
}

TEST(CrfFeatureTable, KeyZeroIsARealKey) {
  FeatureTable T;
  T.upsert(0).Weight = 1.5;
  ASSERT_NE(T.find(0), nullptr);
  EXPECT_EQ(T.find(0)->Weight, 1.5);
  EXPECT_EQ(T.size(), 1u);
  // Nonzero keys whose low bits are all zero share key 0's home slot.
  T.upsert(uint64_t(1) << 40).Weight = 2.5;
  EXPECT_EQ(T.size(), 2u);
  EXPECT_EQ(T.find(0)->Weight, 1.5);
  EXPECT_EQ(T.find(uint64_t(1) << 40)->Weight, 2.5);
  size_t Visited = 0;
  T.forEach([&](uint64_t Key, const FeatureTable::Entry &E) {
    ++Visited;
    EXPECT_EQ(E.Weight, Key == 0 ? 1.5 : 2.5);
  });
  EXPECT_EQ(Visited, 2u);
  T.clear();
  EXPECT_EQ(T.find(0), nullptr);
  EXPECT_EQ(T.size(), 0u);
}

TEST(CrfFeatureTable, ReUpsertKeepsTheEntry) {
  FeatureTable T;
  FeatureTable::Entry &E = T.upsert(7);
  EXPECT_EQ(E.Weight, 0.0);
  EXPECT_EQ(E.Total, 0.0);
  E.Weight += 1;
  E.Total += 3;
  T.upsert(7).Weight += 1;
  EXPECT_EQ(T.size(), 1u);
  EXPECT_EQ(T.find(7)->Weight, 2.0);
  EXPECT_EQ(T.find(7)->Total, 3.0);
}

TEST(CrfFeatureTable, SurvivesManyGrowthSteps) {
  // Keys sharing their low bits collide into one probe run; hashed keys
  // spread. Both must survive every doubling from 16 to 8192 slots.
  FeatureTable T;
  std::vector<uint64_t> Keys;
  for (uint64_t I = 1; I <= 2000; ++I)
    Keys.push_back(I % 2 ? I << 32 : hashFinalize(I));
  for (size_t I = 0; I < Keys.size(); ++I) {
    FeatureTable::Entry &E = T.upsert(Keys[I]);
    E.Weight += static_cast<double>(I);
    E.Total -= static_cast<double>(I);
    ASSERT_EQ(T.size(), I + 1);
  }
  for (size_t I = 0; I < Keys.size(); ++I) {
    const FeatureTable::Entry *E = T.find(Keys[I]);
    ASSERT_NE(E, nullptr) << I;
    EXPECT_EQ(E->Weight, static_cast<double>(I));
    EXPECT_EQ(E->Total, -static_cast<double>(I));
  }
  EXPECT_EQ(T.find(hashFinalize(4001)), nullptr);
  EXPECT_EQ(T.find(uint64_t(4001) << 32), nullptr);
  size_t Visited = 0;
  T.forEach([&](uint64_t, const FeatureTable::Entry &) { ++Visited; });
  EXPECT_EQ(Visited, Keys.size());
}

//===----------------------------------------------------------------------===//
// Feature hashing
//===----------------------------------------------------------------------===//

TEST(CrfFeatures, PairKeyIsOrderSensitive) {
  Symbol A = Symbol::fromIndex(1), B = Symbol::fromIndex(2);
  EXPECT_NE(pairKey(7, A, B), pairKey(7, B, A));
}

TEST(CrfFeatures, KeysSeparateSpaces) {
  Symbol A = Symbol::fromIndex(1);
  EXPECT_NE(unaryKey(7, A), pairKey(7, A, A));
  EXPECT_NE(contextKey(7, true, A), contextKey(7, false, A));
}

} // namespace
