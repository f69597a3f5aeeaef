//===- Ast.h - Generic abstract syntax tree ---------------------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's generic AST (Definition 4.1): a tuple ⟨N, T, X, s, δ, val⟩
/// of nonterminals, terminals, terminal values, a root, a children map and
/// a value map. Every language frontend lowers into this representation;
/// path extraction, the learners and the baselines only ever see this tree.
///
/// Beyond Def. 4.1 the tree carries two annotations the tasks need:
///   * program-element identity: terminals that are occurrences of the same
///     element (e.g. the two uses of variable `d`) share an ElementId, and
///     elements are marked predictable (unknown names the model must infer)
///     or known (given context);
///   * optional per-node type labels, filled by the Java type checker and
///     consumed by the full-type prediction task.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_AST_AST_H
#define PIGEON_AST_AST_H

#include "support/StringInterner.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace pigeon {
namespace ast {

/// Dense node handle within one Tree. Node 0 is always the root.
using NodeId = uint32_t;
inline constexpr NodeId InvalidNode = ~0u;

/// Dense handle for a program element (a named entity whose occurrences
/// are linked across the tree).
using ElementId = uint32_t;
inline constexpr ElementId InvalidElement = ~0u;

/// What kind of program entity an element is. Used by tasks to select
/// which elements to predict (e.g. variable naming predicts locals and
/// parameters; method naming predicts methods).
enum class ElementKind : uint8_t {
  LocalVar,
  Parameter,
  Method,
  Field,
  Class,
  Property, // C# property.
  Literal,  // Constants; never predicted, always known context.
  Unknown,
};

/// \returns a human-readable name for \p Kind.
const char *elementKindName(ElementKind Kind);

/// Metadata for one program element.
struct ElementInfo {
  /// The element's (ground-truth) name.
  Symbol Name;
  ElementKind Kind = ElementKind::Unknown;
  /// True if a prediction task may be asked to infer this element's name.
  bool Predictable = false;
};

/// One node of the tree. Terminals have a valid Value and no children.
struct Node {
  /// Node kind label (e.g. "While", "Assign=", "SymbolRef").
  Symbol Kind;
  /// Terminal value; invalid for nonterminals.
  Symbol Value;
  NodeId Parent = InvalidNode;
  /// Position of this node in its parent's child list.
  uint32_t IndexInParent = 0;
  /// Offset into Tree's child storage.
  uint32_t FirstChild = 0;
  uint32_t NumChildren = 0;
  /// Distance from the root (root has depth 0).
  uint32_t Depth = 0;
  /// Program element this terminal refers to, if any.
  ElementId Element = InvalidElement;

  bool isTerminal() const { return NumChildren == 0 && Value.isValid(); }
};

/// An immutable AST. Construct via TreeBuilder.
class Tree {
public:
  /// \returns the interner holding all kind/value/name symbols of this tree.
  StringInterner &interner() const { return *Interner; }

  NodeId root() const { return 0; }
  size_t size() const { return Nodes.size(); }

  const Node &node(NodeId Id) const {
    assert(Id < Nodes.size() && "node id out of range");
    return Nodes[Id];
  }

  /// Children of \p Id in order.
  std::span<const NodeId> children(NodeId Id) const {
    const Node &N = node(Id);
    return {ChildStorage.data() + N.FirstChild, N.NumChildren};
  }

  /// All terminal nodes in source (left-to-right) order.
  const std::vector<NodeId> &terminals() const { return Terminals; }

  /// Registered program elements.
  const std::vector<ElementInfo> &elements() const { return Elements; }

  const ElementInfo &element(ElementId Id) const {
    assert(Id < Elements.size() && "element id out of range");
    return Elements[Id];
  }

  /// All terminal occurrences of element \p Id, in source order.
  std::span<const NodeId> occurrences(ElementId Id) const {
    assert(Id < Elements.size() && "element id out of range");
    const OccRange &R = OccRanges[Id];
    return {OccStorage.data() + R.First, R.Count};
  }

  /// \returns the ground-truth type label attached to \p Id, or an invalid
  /// symbol if none. Filled by the Java type checker.
  Symbol typeOf(NodeId Id) const {
    auto It = Types.find(Id);
    return It == Types.end() ? Symbol() : It->second;
  }

  /// Nodes that carry a type label, in id order.
  std::vector<NodeId> typedNodes() const;

  /// Attaches a ground-truth type label to \p Id.
  void setType(NodeId Id, Symbol Type) {
    assert(Id < Nodes.size() && "node id out of range");
    Types[Id] = Type;
  }

  /// Lowest common ancestor of \p A and \p B.
  NodeId lca(NodeId A, NodeId B) const;

  /// Rewrites only *provisional* symbols (StringInterner::ProvisionalBit
  /// set — produced by parsing against a delta overlay) through \p Map —
  /// overlay-local index → final index in \p NewInterner — and repoints
  /// the tree at \p NewInterner. Symbols that resolved against the
  /// overlay's base are already final and pass through untouched. This is
  /// the merge step of the shared-interner sharded parse: cost is
  /// proportional to the shard's *novel* symbols, not to the corpus
  /// vocabulary (see core::parseCorpus).
  void remapProvisional(const std::vector<uint32_t> &Map,
                        StringInterner &NewInterner);

  /// Pretty-prints the tree (one node per line, indented) for debugging.
  std::string dump() const;

  /// Renders the tree as a compact s-expression, e.g.
  /// `(While (UnaryPrefix! (SymbolRef d)) ...)`. Used heavily in tests.
  std::string sexpr() const;

private:
  friend class TreeBuilder;
  Tree() = default;

  struct OccRange {
    uint32_t First = 0;
    uint32_t Count = 0;
  };

  StringInterner *Interner = nullptr;
  std::vector<Node> Nodes;
  std::vector<NodeId> ChildStorage;
  std::vector<NodeId> Terminals;
  std::vector<ElementInfo> Elements;
  std::vector<OccRange> OccRanges;
  std::vector<NodeId> OccStorage;
  std::unordered_map<NodeId, Symbol> Types;

  void sexprNode(NodeId Id, std::string &Out) const;
};

/// Incremental construction of a Tree in preorder:
/// \code
///   TreeBuilder B(Interner);
///   B.begin("While");
///   B.begin("UnaryPrefix!");
///   B.terminal("SymbolRef", "d");
///   B.end();
///   ...
///   B.end();
///   Tree T = std::move(B).finish();
/// \endcode
class TreeBuilder {
public:
  explicit TreeBuilder(StringInterner &Interner) : Interner(&Interner) {}

  /// Opens a nonterminal with kind \p Kind; must be matched by end().
  NodeId begin(Symbol Kind);
  NodeId begin(std::string_view Kind) { return begin(Interner->intern(Kind)); }

  /// Closes the innermost open nonterminal.
  void end();

  /// Adds a terminal with the given kind and value under the innermost open
  /// nonterminal. \returns its node id (stable into the finished tree).
  NodeId terminal(Symbol Kind, Symbol Value,
                  ElementId Element = InvalidElement);
  NodeId terminal(std::string_view Kind, std::string_view Value,
                  ElementId Element = InvalidElement) {
    return terminal(Interner->intern(Kind), Interner->intern(Value), Element);
  }

  /// Registers a program element; occurrences are linked by passing the
  /// returned id to terminal().
  ElementId addElement(Symbol Name, ElementKind Kind, bool Predictable);
  ElementId addElement(std::string_view Name, ElementKind Kind,
                       bool Predictable) {
    return addElement(Interner->intern(Name), Kind, Predictable);
  }

  /// Number of elements registered so far.
  size_t numElements() const { return Elements.size(); }

  /// True while at least one nonterminal is open.
  bool insideNode() const { return !Stack.empty(); }

  /// Finalizes and returns the tree. The builder must be balanced (every
  /// begin() matched by an end()) and nonempty.
  Tree finish() &&;

private:
  struct Proto {
    Symbol Kind;
    Symbol Value;
    ElementId Element = InvalidElement;
    std::vector<NodeId> Children;
  };

  StringInterner *Interner;
  std::vector<Proto> Protos;
  std::vector<NodeId> Stack;
  std::vector<ElementInfo> Elements;
};

} // namespace ast
} // namespace pigeon

#endif // PIGEON_AST_AST_H
