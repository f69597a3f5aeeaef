//===- Ast.cpp - Generic abstract syntax tree ------------------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ast/Ast.h"

#include <algorithm>

using namespace pigeon;
using namespace pigeon::ast;

const char *ast::elementKindName(ElementKind Kind) {
  switch (Kind) {
  case ElementKind::LocalVar:
    return "local";
  case ElementKind::Parameter:
    return "param";
  case ElementKind::Method:
    return "method";
  case ElementKind::Field:
    return "field";
  case ElementKind::Class:
    return "class";
  case ElementKind::Property:
    return "property";
  case ElementKind::Literal:
    return "literal";
  case ElementKind::Unknown:
    return "unknown";
  }
  return "invalid";
}

std::vector<NodeId> Tree::typedNodes() const {
  std::vector<NodeId> Ids;
  Ids.reserve(Types.size());
  for (const auto &[Id, Type] : Types)
    Ids.push_back(Id);
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

NodeId Tree::lca(NodeId A, NodeId B) const {
  assert(A < Nodes.size() && B < Nodes.size() && "node id out of range");
  while (Nodes[A].Depth > Nodes[B].Depth)
    A = Nodes[A].Parent;
  while (Nodes[B].Depth > Nodes[A].Depth)
    B = Nodes[B].Parent;
  while (A != B) {
    A = Nodes[A].Parent;
    B = Nodes[B].Parent;
  }
  return A;
}

void Tree::remapProvisional(const std::vector<uint32_t> &Map,
                            StringInterner &NewInterner) {
  constexpr uint32_t Bit = StringInterner::ProvisionalBit;
  auto Remap = [&](Symbol S) {
    uint32_t Id = S.index();
    if (!(Id & Bit))
      return S; // Resolved against the overlay's base: already final.
    assert((Id & ~Bit) < Map.size() && "symbol outside the remap table");
    return Symbol::fromIndex(Map[Id & ~Bit]);
  };
  for (Node &N : Nodes) {
    N.Kind = Remap(N.Kind);
    N.Value = Remap(N.Value);
  }
  for (ElementInfo &E : Elements)
    E.Name = Remap(E.Name);
  for (auto &[Id, Type] : Types)
    Type = Remap(Type);
  Interner = &NewInterner;
}

std::string Tree::dump() const {
  std::string Out;
  // Preorder ids mean a simple scan prints the tree correctly with depth
  // indentation.
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    const Node &N = Nodes[Id];
    Out.append(2 * N.Depth, ' ');
    Out += Interner->str(N.Kind);
    if (N.Value.isValid()) {
      Out += ": ";
      Out += Interner->str(N.Value);
    }
    Out += '\n';
  }
  return Out;
}

void Tree::sexprNode(NodeId Id, std::string &Out) const {
  const Node &N = Nodes[Id];
  if (N.isTerminal()) {
    Out += '(';
    Out += Interner->str(N.Kind);
    Out += ' ';
    Out += Interner->str(N.Value);
    Out += ')';
    return;
  }
  Out += '(';
  Out += Interner->str(N.Kind);
  for (NodeId Child : children(Id)) {
    Out += ' ';
    sexprNode(Child, Out);
  }
  Out += ')';
}

std::string Tree::sexpr() const {
  std::string Out;
  sexprNode(root(), Out);
  return Out;
}

NodeId TreeBuilder::begin(Symbol Kind) {
  assert(Kind.isValid() && "nonterminal needs a kind");
  NodeId Id = static_cast<NodeId>(Protos.size());
  Protos.push_back({Kind, Symbol(), InvalidElement, {}});
  if (!Stack.empty())
    Protos[Stack.back()].Children.push_back(Id);
  else
    assert(Id == 0 && "a tree has exactly one root");
  Stack.push_back(Id);
  return Id;
}

void TreeBuilder::end() {
  assert(!Stack.empty() && "end() without begin()");
  Stack.pop_back();
}

NodeId TreeBuilder::terminal(Symbol Kind, Symbol Value, ElementId Element) {
  assert(!Stack.empty() && "terminal outside any nonterminal");
  assert(Kind.isValid() && Value.isValid() && "terminal needs kind + value");
  assert((Element == InvalidElement || Element < Elements.size()) &&
         "unregistered element");
  NodeId Id = static_cast<NodeId>(Protos.size());
  Protos.push_back({Kind, Value, Element, {}});
  Protos[Stack.back()].Children.push_back(Id);
  return Id;
}

ElementId TreeBuilder::addElement(Symbol Name, ElementKind Kind,
                                  bool Predictable) {
  ElementId Id = static_cast<ElementId>(Elements.size());
  Elements.push_back({Name, Kind, Predictable});
  return Id;
}

Tree TreeBuilder::finish() && {
  assert(Stack.empty() && "unbalanced begin()/end()");
  assert(!Protos.empty() && "empty tree");

  Tree T;
  T.Interner = Interner;
  T.Nodes.resize(Protos.size());
  T.Elements = std::move(Elements);
  T.OccRanges.resize(T.Elements.size());

  // First pass: flatten child lists; count element occurrences.
  std::vector<uint32_t> OccCounts(T.Elements.size(), 0);
  for (NodeId Id = 0; Id < Protos.size(); ++Id) {
    Proto &P = Protos[Id];
    Node &N = T.Nodes[Id];
    N.Kind = P.Kind;
    N.Value = P.Value;
    N.Element = P.Element;
    N.FirstChild = static_cast<uint32_t>(T.ChildStorage.size());
    N.NumChildren = static_cast<uint32_t>(P.Children.size());
    T.ChildStorage.insert(T.ChildStorage.end(), P.Children.begin(),
                          P.Children.end());
    if (P.Element != InvalidElement)
      ++OccCounts[P.Element];
  }

  // Second pass: parent links, depths, child indices. Preorder ids
  // guarantee parents precede children.
  for (NodeId Id = 0; Id < T.Nodes.size(); ++Id) {
    const Node &N = T.Nodes[Id];
    for (uint32_t I = 0; I < N.NumChildren; ++I) {
      NodeId Child = T.ChildStorage[N.FirstChild + I];
      assert(Child > Id && "children must follow parents in preorder");
      T.Nodes[Child].Parent = Id;
      T.Nodes[Child].IndexInParent = I;
      T.Nodes[Child].Depth = N.Depth + 1;
    }
  }

  // Occurrence ranges.
  uint32_t Offset = 0;
  for (size_t E = 0; E < T.Elements.size(); ++E) {
    T.OccRanges[E].First = Offset;
    Offset += OccCounts[E];
  }
  T.OccStorage.resize(Offset);
  std::vector<uint32_t> Fill(T.Elements.size(), 0);
  for (NodeId Id = 0; Id < T.Nodes.size(); ++Id) {
    const Node &N = T.Nodes[Id];
    if (N.isTerminal())
      T.Terminals.push_back(Id);
    if (N.Element == InvalidElement)
      continue;
    Tree::OccRange &R = T.OccRanges[N.Element];
    T.OccStorage[R.First + Fill[N.Element]++] = Id;
    ++R.Count;
  }
  return T;
}
