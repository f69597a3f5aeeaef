//===- Crf.h - Conditional random field over program elements ---*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conditional random field over program elements, used exactly as
/// Raychev et al. [40] use Nice2Predict but with AST paths as factors
/// (§3.1, §5.1). Differences from stock Nice2Predict are the paper's two
/// extensions: unary factors (paths between occurrences of the same
/// element, worth ~1.5% accuracy) and a top-k candidates API.
///
/// Nodes are program elements: *unknown* nodes carry the labels to
/// predict (merged across all their occurrences), *known* nodes carry
/// fixed labels (literals, API names, ancestor kinds of semi-paths).
/// Pairwise factors are abstract path-contexts between two elements;
/// unary factors are paths between two occurrences of one element.
///
/// Training is an averaged structured perceptron (a max-margin flavoured
/// online learner); MAP inference is iterated conditional ascent over
/// candidate labels, with candidates proposed from per-context tables
/// learned during training — the same regime Nice2Predict uses.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_ML_CRF_CRF_H
#define PIGEON_ML_CRF_CRF_H

#include "ast/Ast.h"
#include "ml/crf/FeatureTable.h"
#include "paths/Paths.h"
#include "support/StringInterner.h"

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace pigeon {
namespace crf {

/// One CRF node: a program element (unknown, label to be predicted) or a
/// fixed-context value (known).
struct GraphNode {
  /// Ground-truth label (element name / type / fixed context value).
  Symbol Gold;
  /// Known nodes keep their label during inference.
  bool Known = true;
  /// Originating program element, when the node stems from one.
  ast::ElementId Element = ast::InvalidElement;
};

/// A factor connecting one or two nodes through an abstracted AST path.
struct Factor {
  uint32_t A = 0;
  uint32_t B = 0;
  paths::PathId Path = paths::InvalidPath;
  /// Unary factors (A == B) connect two occurrences of the same element.
  bool Unary = false;
};

/// The CRF for one program.
struct CrfGraph {
  std::vector<GraphNode> Nodes;
  std::vector<Factor> Factors;
  /// Indices of unknown nodes, in deterministic order.
  std::vector<uint32_t> Unknowns;

  /// Factor indices incident to each node.
  std::vector<std::vector<uint32_t>> adjacency() const;
};

/// Selects which elements a task predicts (unknown nodes). Everything
/// else becomes known context.
using ElementSelector = std::function<bool(const ast::ElementInfo &)>;

/// Builds a CRF from a tree and its extracted path-contexts. Terminals of
/// selected elements merge into one unknown node per element; other
/// terminals merge into known nodes by value; semi-path ancestor ends
/// merge into known nodes by kind.
CrfGraph buildGraph(const ast::Tree &Tree,
                    const std::vector<paths::PathContext> &Contexts,
                    const ElementSelector &Selector);

/// Builds a single-unknown CRF for the full-type task: \p Target is the
/// expression node whose type (its tree annotation) is the label, and
/// \p Contexts are leaf-to-target paths.
CrfGraph buildTypeGraph(const ast::Tree &Tree, ast::NodeId Target,
                        const std::vector<paths::PathContext> &Contexts);

/// Appends factors for 3-wise path-contexts (§4's n-wise generalization)
/// to \p Graph. A triple with exactly one unknown end becomes a factor
/// between the unknown and a composite known node labelled by the two
/// known end values joined with "+" (interned into \p Interner); other
/// triples carry no usable signal for the pairwise CRF and are skipped.
void addTriFactors(CrfGraph &Graph, const ast::Tree &Tree,
                   const std::vector<paths::TriContext> &Contexts,
                   const ElementSelector &Selector,
                   StringInterner &Interner);

/// Training/inference configuration.
struct CrfConfig {
  int Epochs = 4;
  int InferencePasses = 3;
  /// Candidate labels retained per (path, direction, neighbour) context.
  int CandidatesPerContext = 12;
  /// Global most-frequent-label fallback candidates.
  int GlobalCandidates = 8;
  double LearningRate = 1.0;
  /// Include pairwise factors between two unknown nodes (joint
  /// inference). Ablatable; unary factors are controlled separately.
  bool UnknownUnknownFactors = true;
  /// Include unary factors (the paper's §5.1 extension). Ablatable.
  bool UnaryFactors = true;
  /// Per-epoch multiplicative L2 shrinkage (0 disables). Regularizes the
  /// perceptron so high-degree noisy features cannot accumulate.
  double L2Shrink = 0.0;
  /// Weight of the empirical candidate vote P(label | contexts) added to
  /// the factor score. Acts as a generative prior that stabilizes
  /// synonym choice; the perceptron weights learn the correction.
  double VotePrior = 1.0;
  /// Additive pseudo-count in the vote denominator: a context seen once
  /// votes 1/(1+smoothing) rather than 1.0, so rare highly-specific paths
  /// cannot cast confident arbitrary votes.
  double VoteSmoothing = 3.0;
  /// Minimum *lift* of a path: the average max-label share of its
  /// training contexts divided by the marginal max-label share. Paths
  /// whose contexts are no more concentrated than the label marginal
  /// (typically long-distance cross-unit paths) carry no naming signal
  /// and are pruned — the feature-selection analogue of the
  /// regularization a batch-trained CRF applies. 0 disables.
  double MinPathLift = 0.0;
};

/// One AST path's contribution to a label's score: the factor-weight part
/// plus the empirical-vote part, aggregated over every incident factor
/// sharing (Path, Unary, Neighbor). This is the provenance unit — the
/// per-path evidence the path-based representation makes inspectable by
/// construction.
struct Attribution {
  paths::PathId Path = paths::InvalidPath;
  /// Total contribution: VotePrior × Vote + Weight.
  double Score = 0;
  /// Learned factor-weight part (pair or unary feature weights).
  double Weight = 0;
  /// Empirical candidate-vote part, P(label | context) mass.
  double Vote = 0;
  bool Unary = false;
  /// Label at the factor's other end (invalid for unary factors).
  Symbol Neighbor;
};

/// Full decomposition of one node/label score. The invariant
/// Total == Bias + Σ Paths[i].Score == the topK() score of (Node, Label)
/// is what makes the report trustworthy (pinned by provenance_test).
struct NodeExplanation {
  Symbol Label;
  double Total = 0;
  double Bias = 0;
  /// Strongest contributions first (by |Score|, ties by Path id). When
  /// truncated to k entries, Total still reflects *all* paths.
  std::vector<Attribution> Paths;
};

/// Flat, position-independent image of a trained model's learned state:
/// sorted key arrays with parallel payloads, readable in place with
/// binary search. This is exactly the representation bundle format v3
/// lays into the file — a mapped bundle hands the section pointers to
/// CrfModel::adoptFrozen() and serves without deserializing anything.
/// All pointers reference memory the caller keeps alive for the model's
/// lifetime.
struct FrozenCrf {
  const uint64_t *WeightKeys = nullptr; ///< Feature keys, sorted ascending.
  const double *WeightVals = nullptr;   ///< WeightVals[I] pairs WeightKeys[I].
  uint64_t NumWeights = 0;
  const uint64_t *CandKeys = nullptr;    ///< Context keys, sorted ascending.
  const uint64_t *CandOffsets = nullptr; ///< NumCands+1 entry offsets into
                                         ///< CandPairs, [0] == 0.
  const uint32_t *CandPairs = nullptr;   ///< (label index, count) uint32
                                         ///< pairs, per-context order as
                                         ///< trained (vote order matters).
  uint64_t NumCands = 0;
  const uint64_t *PrunedKeys = nullptr;  ///< Pruned path ids, sorted.
  uint64_t NumPruned = 0;
  const uint32_t *GlobalTop = nullptr;   ///< Label indices, rank order.
  uint32_t NumGlobal = 0;
};

/// Owned flat image produced by CrfModel::flatten(): the same layout as
/// FrozenCrf but with owning vectors — what the v3 writer serializes.
struct FlatCrf {
  std::vector<uint64_t> WeightKeys;
  std::vector<double> WeightVals;
  std::vector<uint64_t> CandKeys;
  std::vector<uint64_t> CandOffsets;
  std::vector<uint32_t> CandPairs;
  std::vector<uint64_t> PrunedKeys;
  std::vector<uint32_t> GlobalTop;
};

/// The learned model.
class CrfModel {
public:
  explicit CrfModel(CrfConfig Config = CrfConfig()) : Config(Config) {}

  /// Trains on \p Graphs (gold labels in GraphNode::Gold).
  void train(const std::vector<CrfGraph> &Graphs);

  /// MAP assignment: one label per node (known nodes keep Gold; unknown
  /// nodes that end with no candidates get an invalid symbol).
  std::vector<Symbol> predict(const CrfGraph &Graph) const;

  /// predict() for every graph, sharded over \p Threads workers (0 = the
  /// process default). Inference per graph is independent and the model
  /// is read-only here, so result I equals predict(Graphs[I]) exactly at
  /// any thread count.
  std::vector<std::vector<Symbol>>
  predictBatch(const std::vector<CrfGraph> &Graphs,
               size_t Threads = 0) const;

  /// Top-\p K candidate labels with scores for unknown node \p Node,
  /// holding the rest of \p Assignment fixed (the paper's top-k
  /// suggestion API, §5.1).
  std::vector<std::pair<Symbol, double>>
  topK(const CrfGraph &Graph, uint32_t Node,
       const std::vector<Symbol> &Assignment, int K) const;

  /// Decomposes the score of labelling \p Node with \p Label (under
  /// \p Assignment) into per-path attributions, keeping the \p K
  /// strongest (K <= 0 keeps all). The returned Total equals the score
  /// topK() would assign to (Node, Label) exactly — same gates, same
  /// vote smoothing — so the explanation *is* the score, not an
  /// approximation of it.
  NodeExplanation explain(const CrfGraph &Graph, uint32_t Node,
                          Symbol Label,
                          const std::vector<Symbol> &Assignment,
                          int K) const;

  /// Serializes the trained model (weights, candidate tables, pruning
  /// set, global candidates) to \p OS in a versioned binary format.
  /// Feature keys are hashes over PathIds and Symbol indices, so a saved
  /// model is only meaningful together with the StringInterner and
  /// PathTable it was trained against (persist those alongside).
  void save(std::ostream &OS) const;

  /// Restores a model previously written by save(). \returns false (and
  /// leaves the model empty) on a malformed or version-mismatched stream.
  bool load(std::istream &IS);

  /// Serves the model in place from \p View (typically sections of an
  /// mmap'ed v3 bundle): drops the mutable feature table and candidate
  /// map and routes weight, candidate and pruning lookups through binary
  /// search over the flat arrays. Only the (tiny) global-candidate list
  /// is copied. Read APIs produce bit-identical results to the mutable
  /// model the image was flattened from; train() or load() thaw the
  /// model back to the mutable containers.
  void adoptFrozen(const FrozenCrf &View);

  /// \returns the learned state as an owned flat image — sorted keys,
  /// per-context candidate order preserved — suitable for the v3 writer.
  /// Works on both map-backed and frozen models.
  FlatCrf flatten() const;

  /// True when the model reads from a frozen flat image (adoptFrozen).
  bool frozen() const { return IsFrozen; }

  /// Number of nonzero feature weights (model size).
  size_t numFeatures() const {
    return IsFrozen ? FC.NumWeights : Features.size();
  }

  /// Sum of training-time candidate-table entries (diagnostics).
  size_t candidateTableSize() const {
    return IsFrozen ? FC.NumCands : Candidates.size();
  }

private:
  CrfConfig Config;
  /// Feature weights with their averaging totals; Total is only
  /// meaningful during train() and is zero afterwards.
  FeatureTable Features;
  uint64_t Time = 1;
  std::unordered_map<uint64_t, std::vector<std::pair<Symbol, uint32_t>>>
      Candidates;
  std::vector<Symbol> GlobalTop;
  /// Paths whose training contexts were too impure to be informative.
  std::unordered_set<uint64_t> PrunedPaths;
  /// Flat read-only state of a frozen model (adoptFrozen); the table and
  /// maps above stay empty while IsFrozen is set.
  FrozenCrf FC;
  bool IsFrozen = false;

  /// One context's candidate list, readable uniformly over the
  /// map-backed vector and the frozen flat pairs.
  struct CandRef {
    const std::pair<Symbol, uint32_t> *Vec = nullptr;
    const uint32_t *Flat = nullptr;
    size_t N = 0;
    explicit operator bool() const { return Vec || Flat; }
    size_t size() const { return N; }
    Symbol label(size_t I) const {
      return Vec ? Vec[I].first : Symbol::fromIndex(Flat[2 * I]);
    }
    uint32_t count(size_t I) const {
      return Vec ? Vec[I].second : Flat[2 * I + 1];
    }
  };
  /// \returns the candidate list of \p Ctx, or an empty ref on a miss.
  CandRef findCandidates(uint64_t Ctx) const;

  bool pathPruned(paths::PathId Path) const;
  double weight(uint64_t Key) const;
  void bump(uint64_t Key, double Delta);

  /// What inference reads of graphs besides their labels, fixed while
  /// the candidate tables are: the factors incident to each unknown (in
  /// CrfGraph::adjacency() order, without the factors on pruned paths,
  /// which add nothing to a score) and each unknown's candidate labels
  /// with their vote masses, strongest first. Unknowns are numbered in
  /// the order they are indexed; unknown U owns
  /// Factors[FactorBegin[U], FactorBegin[U+1]) and
  /// Labels/Votes[CandBegin[U], CandBegin[U+1]).
  struct UnknownIndex {
    std::vector<size_t> FactorBegin{0};
    std::vector<uint32_t> Factors;
    std::vector<size_t> CandBegin{0};
    std::vector<Symbol> Labels;
    std::vector<double> Votes;

    /// Number of unknowns indexed.
    size_t size() const { return CandBegin.size() - 1; }
    std::span<const uint32_t> factorsOf(size_t U) const {
      return {Factors.data() + FactorBegin[U],
              Factors.data() + FactorBegin[U + 1]};
    }
  };
  /// Appends the unknowns of \p Graph, in CrfGraph::Unknowns order, to
  /// \p Index.
  void indexUnknowns(const CrfGraph &Graph, UnknownIndex &Index) const;

  /// Appends \p Node, whose incident factors are \p Adjacent, to
  /// \p Index as its next unknown. \p Shares is scratch space.
  void indexNode(const CrfGraph &Graph, uint32_t Node,
                 std::span<const uint32_t> Adjacent,
                 std::vector<std::pair<Symbol, double>> &Shares,
                 UnknownIndex &Index) const;

  /// One factor's part of a node's score with the node's own label left
  /// out: everything about the factor that does not depend on the
  /// candidate label.
  struct ScoreTerm;
  /// The score terms of \p Node under \p Assignment, in factor order.
  void collectTerms(const CrfGraph &Graph, uint32_t Node,
                    std::span<const uint32_t> Incident,
                    const std::vector<Symbol> &Assignment,
                    std::vector<ScoreTerm> &Terms) const;
  /// Score of labelling a node with \p Label given its \p Terms: the bias
  /// weight, then each term's weight, added in factor order.
  double scoreTerms(Symbol Label, const std::vector<ScoreTerm> &Terms) const;

  /// MAP inference by iterated conditional ascent. From the second pass
  /// on, an unknown is scored again only when a label its score reads
  /// (a non-unary neighbour's, its own through a non-unary self-loop)
  /// changed since it was last scored: its score is a pure function of
  /// those labels, so it would pick the same label again. The result is
  /// the one scoring every unknown in every pass gives. \p Graph's
  /// unknown I is unknown \p FirstUnknown + I of \p Index.
  std::vector<Symbol> infer(const CrfGraph &Graph, const UnknownIndex &Index,
                            size_t FirstUnknown) const;
};

//===----------------------------------------------------------------------===//
// Feature hashing
//===----------------------------------------------------------------------===//

/// Feature key for a pairwise factor (order-sensitive: A precedes B in
/// source order).
uint64_t pairKey(paths::PathId Path, Symbol LabelA, Symbol LabelB);

/// Feature key for a unary factor.
uint64_t unaryKey(paths::PathId Path, Symbol Label);

/// Candidate-table context key: the path, which side the unknown is on,
/// and the neighbour's (known) label.
uint64_t contextKey(paths::PathId Path, bool UnknownIsA, Symbol Other);

/// Per-label bias feature key. The learned bias encodes each label's
/// marginal frequency, breaking ties between role-synonyms toward the
/// modal name.
uint64_t biasKey(Symbol Label);

} // namespace crf
} // namespace pigeon

#endif // PIGEON_ML_CRF_CRF_H
