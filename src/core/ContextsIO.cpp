//===- ContextsIO.cpp - On-disk extracted path-contexts ----------------------===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/ContextsIO.h"

#include "core/ModelIO.h"

#include "support/BinaryIO.h"
#include "support/Telemetry.h"

#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

using namespace pigeon;
using namespace pigeon::ast;
using namespace pigeon::core;
using namespace pigeon::crf;
using namespace pigeon::paths;

namespace {

constexpr uint32_t ContextsMagic = 0x50494743; // "PIGC"
constexpr uint32_t ContextsVersion = 1;

/// Upper bound on any single element/context/file count read from disk;
/// corrupted counts fail fast instead of allocating terabytes.
constexpr uint64_t MaxCount = 1u << 30;

template <typename T> bool readPod(std::istream &IS, T &Value) {
  IS.read(reinterpret_cast<char *>(&Value), sizeof(Value));
  return static_cast<bool>(IS);
}

/// saveContexts writes its buffer out once it holds this many bytes.
constexpr size_t FlushBytes = 64u << 10;

/// Appends \p Value's bytes in memory order, as readPod reads them.
template <typename T> void appendPod(std::vector<uint8_t> &Out, T Value) {
  const uint8_t *Bytes = reinterpret_cast<const uint8_t *>(&Value);
  Out.insert(Out.end(), Bytes, Bytes + sizeof(Value));
}

/// Appends a length-prefixed byte string, as io::writeBytes writes it.
void appendBytes(std::vector<uint8_t> &Out, std::span<const uint8_t> Bytes) {
  io::appendVarint(Out, Bytes.size());
  Out.insert(Out.end(), Bytes.begin(), Bytes.end());
}

void appendString(std::vector<uint8_t> &Out, std::string_view Str) {
  appendBytes(Out, std::span<const uint8_t>(
                       reinterpret_cast<const uint8_t *>(Str.data()),
                       Str.size()));
}

/// ElementIds are encoded off-by-one so the InvalidElement sentinel
/// becomes the single-byte varint 0.
void appendElemId(std::vector<uint8_t> &Out, ElementId Id) {
  io::appendVarint(Out, static_cast<uint32_t>(Id + 1));
}

bool readElemId(std::istream &IS, ElementId &Id, size_t NumElements) {
  uint64_t Raw = 0;
  if (!io::readVarint(IS, Raw))
    return false;
  if (Raw == 0) {
    Id = InvalidElement;
    return true;
  }
  if (Raw > NumElements)
    return false;
  Id = static_cast<ElementId>(Raw - 1);
  return true;
}

bool readSymbol(std::istream &IS, Symbol &Out, size_t InternerSize) {
  uint64_t Idx = 0;
  if (!io::readVarint(IS, Idx) || Idx >= InternerSize)
    return false;
  Out = Symbol::fromIndex(static_cast<uint32_t>(Idx));
  return true;
}

bool readPathId(std::istream &IS, PathId &Out, size_t TableSize) {
  uint64_t Id = 0;
  if (!io::readVarint(IS, Id) || Id < 1 || Id > TableSize)
    return false;
  Out = static_cast<PathId>(Id);
  return true;
}

} // namespace

ContextsArtifact
core::buildContextsArtifact(Corpus &Corpus, Task TaskKind,
                            const CrfExperimentOptions &Options) {
  ContextsArtifact Art;
  Art.Lang = Corpus.Lang;
  Art.TaskKind = TaskKind;
  Art.Extraction = Options.Extraction;
  Art.Repr = Options.Repr;
  Art.TriContexts = Options.TriContexts;

  std::vector<size_t> Indices(Corpus.Files.size());
  for (size_t I = 0; I < Indices.size(); ++I)
    Indices[I] = I;
  auto Extracted = extractCorpusContexts(Corpus, Indices, Options, Art.Table);

  telemetry::TraceScope Phase("records");
  Art.Files.resize(Corpus.Files.size());
  for (size_t F = 0; F < Corpus.Files.size(); ++F) {
    const ParsedFile &PF = Corpus.Files[F];
    const Tree &T = PF.Tree;
    FileRecord &Rec = Art.Files[F];
    Rec.Project = PF.Project;
    Rec.FileName = PF.FileName;
    Rec.Elements.assign(T.elements().begin(), T.elements().end());
    Rec.Contexts.reserve(Extracted[F].Contexts.size());
    for (const PathContext &Ctx : Extracted[F].Contexts) {
      ContextRecord R;
      R.Path = Ctx.Path;
      const Node &Start = T.node(Ctx.Start);
      R.StartElem = Start.Element;
      R.StartValue = Start.Value;
      const Node &End = T.node(Ctx.End);
      R.Semi = Ctx.Semi;
      if (Ctx.Semi) {
        // The graph labels a semi-path's ancestor end by its kind.
        R.EndValue = End.Kind;
      } else {
        R.EndElem = End.Element;
        R.EndValue = End.Value;
      }
      Rec.Contexts.push_back(R);
    }
    Rec.Tris.reserve(Extracted[F].Tris.size());
    for (const TriContext &Tri : Extracted[F].Tris) {
      TriRecord R;
      R.Path = Tri.Path;
      NodeId Ends[3] = {Tri.A, Tri.B, Tri.C};
      for (int I = 0; I < 3; ++I) {
        R.Elem[I] = T.node(Ends[I]).Element;
        R.Value[I] = T.node(Ends[I]).Value;
      }
      Rec.Tris.push_back(R);
    }
  }
  // The artifact owns the symbol space its records and paths refer to.
  Art.Interner = std::move(Corpus.Interner);
  return Art;
}

void core::saveContexts(std::ostream &OS, const ContextsArtifact &Art) {
  // Everything is encoded into one reusable buffer that is written out
  // whenever it passes FlushBytes: a few large stream writes instead of
  // one call per byte, without holding the whole artifact in memory.
  std::vector<uint8_t> Buf;
  Buf.reserve(2 * FlushBytes);
  auto Flush = [&OS, &Buf](size_t AtLeast) {
    if (Buf.size() < AtLeast)
      return;
    OS.write(reinterpret_cast<const char *>(Buf.data()),
             static_cast<std::streamsize>(Buf.size()));
    Buf.clear();
  };

  appendPod(Buf, ContextsMagic);
  appendPod(Buf, ContextsVersion);
  appendPod(Buf, static_cast<uint8_t>(Art.Lang));
  appendPod(Buf, static_cast<uint8_t>(Art.TaskKind));
  appendPod(Buf, static_cast<uint8_t>(Art.Repr));
  appendPod(Buf, static_cast<uint8_t>(Art.TriContexts));
  appendPod(Buf, static_cast<int32_t>(Art.Extraction.MaxLength));
  appendPod(Buf, static_cast<int32_t>(Art.Extraction.MaxWidth));
  appendPod(Buf, static_cast<uint8_t>(Art.Extraction.Abst));
  appendPod(Buf, static_cast<uint8_t>(Art.Extraction.IncludeSemiPaths));

  io::appendVarint(Buf, Art.Interner->size());
  for (uint32_t I = 1; I < Art.Interner->size(); ++I) {
    appendString(Buf, Art.Interner->str(Symbol::fromIndex(I)));
    Flush(FlushBytes);
  }

  io::appendVarint(Buf, Art.Table.size());
  for (uint32_t I = 1; I <= Art.Table.size(); ++I) {
    appendBytes(Buf, Art.Table.bytes(I));
    Flush(FlushBytes);
  }

  io::appendVarint(Buf, Art.Files.size());
  for (const FileRecord &Rec : Art.Files) {
    appendString(Buf, Rec.Project);
    appendString(Buf, Rec.FileName);
    io::appendVarint(Buf, Rec.Elements.size());
    for (const ElementInfo &E : Rec.Elements) {
      io::appendVarint(Buf, E.Name.index());
      appendPod(Buf, static_cast<uint8_t>(E.Kind));
      appendPod(Buf, static_cast<uint8_t>(E.Predictable));
    }
    io::appendVarint(Buf, Rec.Contexts.size());
    for (const ContextRecord &C : Rec.Contexts) {
      io::appendVarint(Buf, C.Path);
      appendElemId(Buf, C.StartElem);
      io::appendVarint(Buf, C.StartValue.index());
      appendElemId(Buf, C.EndElem);
      io::appendVarint(Buf, C.EndValue.index());
      appendPod(Buf, static_cast<uint8_t>(C.Semi));
    }
    io::appendVarint(Buf, Rec.Tris.size());
    for (const TriRecord &T : Rec.Tris) {
      io::appendVarint(Buf, T.Path);
      for (int I = 0; I < 3; ++I) {
        appendElemId(Buf, T.Elem[I]);
        io::appendVarint(Buf, T.Value[I].index());
      }
    }
    Flush(FlushBytes);
  }
  Flush(0);
}

std::unique_ptr<ContextsArtifact> core::loadContexts(std::istream &IS) {
  uint32_t Magic = 0, Version = 0;
  if (!readPod(IS, Magic) || Magic != ContextsMagic)
    return nullptr;
  if (!readPod(IS, Version) || Version != ContextsVersion)
    return nullptr;
  auto Art = std::make_unique<ContextsArtifact>();
  Art->Interner = std::make_unique<StringInterner>();
  uint8_t LangByte = 0, TaskByte = 0, ReprByte = 0, TriByte = 0;
  uint8_t AbstByte = 0, SemiByte = 0;
  int32_t Length = 0, Width = 0;
  if (!readPod(IS, LangByte) || !readPod(IS, TaskByte) ||
      !readPod(IS, ReprByte) || !readPod(IS, TriByte) ||
      !readPod(IS, Length) || !readPod(IS, Width) ||
      !readPod(IS, AbstByte) || !readPod(IS, SemiByte))
    return nullptr;
  Art->Lang = static_cast<lang::Language>(LangByte);
  Art->TaskKind = static_cast<Task>(TaskByte);
  Art->Repr = static_cast<Representation>(ReprByte);
  Art->TriContexts = TriByte != 0;
  Art->Extraction.MaxLength = Length;
  Art->Extraction.MaxWidth = Width;
  Art->Extraction.Abst = static_cast<Abstraction>(AbstByte);
  Art->Extraction.IncludeSemiPaths = SemiByte != 0;

  uint64_t InternerSize = 0;
  if (!io::readVarint(IS, InternerSize) || InternerSize < 1 ||
      InternerSize > MaxCount)
    return nullptr;
  std::string Str;
  for (uint64_t I = 1; I < InternerSize; ++I) {
    if (!io::readString(IS, Str))
      return nullptr;
    if (Art->Interner->intern(Str).index() != I)
      return nullptr; // Duplicate string: not a saved interner.
  }

  uint64_t TableSize = 0;
  if (!io::readVarint(IS, TableSize) || TableSize > MaxCount)
    return nullptr;
  std::vector<uint8_t> Bytes;
  for (uint64_t I = 1; I <= TableSize; ++I) {
    if (!io::readBytes(IS, Bytes))
      return nullptr;
    if (Art->Table.intern(Bytes) != I)
      return nullptr; // Duplicate path bytes: not a saved table.
  }

  uint64_t NumFiles = 0;
  if (!io::readVarint(IS, NumFiles) || NumFiles > MaxCount)
    return nullptr;
  Art->Files.resize(NumFiles);
  for (FileRecord &Rec : Art->Files) {
    if (!io::readString(IS, Rec.Project) ||
        !io::readString(IS, Rec.FileName))
      return nullptr;
    uint64_t NumElements = 0;
    if (!io::readVarint(IS, NumElements) || NumElements > MaxCount)
      return nullptr;
    Rec.Elements.resize(NumElements);
    for (ElementInfo &E : Rec.Elements) {
      uint8_t Kind = 0, Predictable = 0;
      if (!readSymbol(IS, E.Name, InternerSize) || !readPod(IS, Kind) ||
          !readPod(IS, Predictable))
        return nullptr;
      E.Kind = static_cast<ElementKind>(Kind);
      E.Predictable = Predictable != 0;
    }
    uint64_t NumContexts = 0;
    if (!io::readVarint(IS, NumContexts) || NumContexts > MaxCount)
      return nullptr;
    Rec.Contexts.resize(NumContexts);
    for (ContextRecord &C : Rec.Contexts) {
      uint8_t Semi = 0;
      if (!readPathId(IS, C.Path, TableSize) ||
          !readElemId(IS, C.StartElem, NumElements) ||
          !readSymbol(IS, C.StartValue, InternerSize) ||
          !readElemId(IS, C.EndElem, NumElements) ||
          !readSymbol(IS, C.EndValue, InternerSize) || !readPod(IS, Semi))
        return nullptr;
      C.Semi = Semi != 0;
    }
    uint64_t NumTris = 0;
    if (!io::readVarint(IS, NumTris) || NumTris > MaxCount)
      return nullptr;
    Rec.Tris.resize(NumTris);
    for (TriRecord &T : Rec.Tris) {
      if (!readPathId(IS, T.Path, TableSize))
        return nullptr;
      for (int I = 0; I < 3; ++I)
        if (!readElemId(IS, T.Elem[I], NumElements) ||
            !readSymbol(IS, T.Value[I], InternerSize))
          return nullptr;
    }
  }
  return Art;
}

//===----------------------------------------------------------------------===//
// Record-based graph assembly
//===----------------------------------------------------------------------===//

CrfGraph core::buildGraphFromRecord(const FileRecord &File,
                                    const ElementSelector &Selector) {
  // Mirrors crf::buildGraph / GraphAssembler exactly: same node-creation
  // order, same merging keys, same factor rules — so a record round-trip
  // yields a graph identical to tree-based assembly.
  CrfGraph G;
  std::unordered_map<ElementId, uint32_t> ElementNodes;
  std::unordered_map<Symbol, uint32_t> ValueNodes;
  auto ElementNode = [&](ElementId E) {
    auto It = ElementNodes.find(E);
    if (It != ElementNodes.end())
      return It->second;
    const ElementInfo &Info = File.Elements[E];
    uint32_t Id = static_cast<uint32_t>(G.Nodes.size());
    bool Unknown = Selector(Info);
    G.Nodes.push_back({Info.Name, /*Known=*/!Unknown, E});
    if (Unknown)
      G.Unknowns.push_back(Id);
    ElementNodes.emplace(E, Id);
    return Id;
  };
  auto KnownNode = [&](Symbol Value) {
    auto It = ValueNodes.find(Value);
    if (It != ValueNodes.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(G.Nodes.size());
    G.Nodes.push_back({Value, /*Known=*/true, InvalidElement});
    ValueNodes.emplace(Value, Id);
    return Id;
  };

  for (const ContextRecord &Ctx : File.Contexts) {
    uint32_t A = Ctx.StartElem != InvalidElement ? ElementNode(Ctx.StartElem)
                                                 : KnownNode(Ctx.StartValue);
    uint32_t B;
    if (Ctx.Semi || Ctx.EndElem == InvalidElement)
      B = KnownNode(Ctx.EndValue);
    else
      B = ElementNode(Ctx.EndElem);
    bool AKnown = G.Nodes[A].Known;
    bool BKnown = G.Nodes[B].Known;
    if (AKnown && BKnown)
      continue; // Constant factor: no influence on any prediction.
    if (A == B) {
      G.Factors.push_back({A, A, Ctx.Path, /*Unary=*/true});
      continue;
    }
    G.Factors.push_back({A, B, Ctx.Path, /*Unary=*/false});
  }
  return G;
}

void core::addTriFactorsFromRecord(CrfGraph &Graph, const FileRecord &File,
                                   const ElementSelector &Selector,
                                   StringInterner &Interner) {
  // Mirrors crf::addTriFactors: reuse the graph's existing node set.
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
  auto UnknownOf = [&](ElementId Elem) -> uint32_t {
    if (Elem == InvalidElement || !Selector(File.Elements[Elem]))
      return UINT32_MAX;
    auto It = ElementNodes.find(Elem);
    return It == ElementNodes.end() ? UINT32_MAX : It->second;
  };

  for (const TriRecord &Ctx : File.Tris) {
    uint32_t Unknown = UINT32_MAX;
    int UnknownCount = 0;
    for (int I = 0; I < 3; ++I) {
      uint32_t U = UnknownOf(Ctx.Elem[I]);
      if (U != UINT32_MAX) {
        Unknown = U;
        ++UnknownCount;
      }
    }
    if (UnknownCount != 1)
      continue;
    // Composite label of the two known ends, in source order.
    std::string Composite;
    for (int I = 0; I < 3; ++I) {
      if (UnknownOf(Ctx.Elem[I]) != UINT32_MAX)
        continue;
      if (!Composite.empty())
        Composite += '+';
      Composite += Interner.str(Ctx.Value[I]);
    }
    uint32_t Known = KnownNode(Interner.intern(Composite));
    // Order: unknown on the A side if it is the triple's first end.
    bool UnknownFirst = UnknownOf(Ctx.Elem[0]) != UINT32_MAX;
    if (UnknownFirst)
      Graph.Factors.push_back({Unknown, Known, Ctx.Path, /*Unary=*/false});
    else
      Graph.Factors.push_back({Known, Unknown, Ctx.Path, /*Unary=*/false});
  }
}

bool core::rebaseArtifact(ContextsArtifact &Art, StringInterner &TargetSI,
                          PathTable &TargetTable) {
  // Symbol map: intern every artifact string into the target space, in
  // index order (so a target that equals the artifact space maps to
  // itself and new strings append after the existing ones).
  std::vector<Symbol> SymMap(Art.Interner->size());
  for (uint32_t I = 1; I < Art.Interner->size(); ++I)
    SymMap[I] = TargetSI.intern(Art.Interner->str(Symbol::fromIndex(I)));

  std::vector<PathId> PathMap(Art.Table.size() + 1, InvalidPath);
  std::vector<uint8_t> Buf;
  for (PathId Id = 1; Id <= Art.Table.size(); ++Id) {
    if (!remapPackedPath(Art.Table.bytes(Id), SymMap, Buf))
      return false;
    PathMap[Id] = TargetTable.intern(Buf);
  }

  auto MapSym = [&](Symbol &S) {
    if (S.index() >= SymMap.size())
      return false;
    S = SymMap[S.index()];
    return true;
  };
  for (FileRecord &Rec : Art.Files) {
    for (ElementInfo &E : Rec.Elements)
      if (!MapSym(E.Name))
        return false;
    for (ContextRecord &C : Rec.Contexts) {
      if (C.Path == InvalidPath || C.Path > Art.Table.size())
        return false;
      C.Path = PathMap[C.Path];
      if (!MapSym(C.StartValue) || !MapSym(C.EndValue))
        return false;
    }
    for (TriRecord &T : Rec.Tris) {
      if (T.Path == InvalidPath || T.Path > Art.Table.size())
        return false;
      T.Path = PathMap[T.Path];
      for (int I = 0; I < 3; ++I)
        if (!MapSym(T.Value[I]))
          return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Evaluation over a rebased artifact
//===----------------------------------------------------------------------===//

double EvalStats::accuracy() const {
  if (Total == 0)
    return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(Correct) / static_cast<double>(Total);
}

EvalStats core::evalArtifact(ModelBundle &Bundle,
                             const ContextsArtifact &Artifact) {
  ElementSelector Selector = selectorFor(Artifact.TaskKind);
  std::vector<CrfGraph> Graphs;
  Graphs.reserve(Artifact.Files.size());
  {
    telemetry::TraceScope Phase("assemble");
    for (const FileRecord &Rec : Artifact.Files) {
      CrfGraph G = buildGraphFromRecord(Rec, Selector);
      if (Artifact.TriContexts)
        addTriFactorsFromRecord(G, Rec, Selector, *Bundle.Interner);
      Graphs.push_back(std::move(G));
    }
  }

  telemetry::TraceScope Phase("eval");
  std::vector<std::vector<Symbol>> Preds = Bundle.Model.predictBatch(Graphs);
  EvalStats Stats;
  const StringInterner &SI = *Bundle.Interner;
  for (size_t I = 0; I < Graphs.size(); ++I) {
    for (uint32_t N : Graphs[I].Unknowns) {
      ++Stats.Total;
      if (Preds[I][N].isValid() &&
          SI.str(Preds[I][N]) == SI.str(Graphs[I].Nodes[N].Gold))
        ++Stats.Correct;
    }
  }
  return Stats;
}
