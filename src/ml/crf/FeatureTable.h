//===- FeatureTable.h - Open-addressed CRF feature table --------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trainable CRF's feature store: one flat open-addressed table from a
/// feature key to its {weight, running total}. Feature keys (pairKey,
/// unaryKey, biasKey) end in fmix64, so their low bits index a
/// power-of-two slot array directly and collisions probe linearly. Keys
/// and payloads live in separate arrays: a miss — the common case while
/// inference scores candidate labels — reads only 8-byte keys. Key 0 marks
/// an empty slot, so a real key 0 is kept out of line. Load stays at or
/// below one half: a three-quarter bound halves the arrays but made
/// BM_CrfTrainEpoch about 15% slower.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_ML_CRF_FEATURETABLE_H
#define PIGEON_ML_CRF_FEATURETABLE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pigeon {
namespace crf {

class FeatureTable {
public:
  /// One feature's learned state.
  struct Entry {
    double Weight = 0;
    /// Time-weighted sum of updates, for perceptron averaging.
    double Total = 0;
  };

  /// Number of keys held.
  size_t size() const { return Used + (HasZero ? 1 : 0); }

  /// \returns the entry of \p Key, or nullptr when it is absent.
  const Entry *find(uint64_t Key) const {
    if (Key == 0)
      return HasZero ? &ZeroEntry : nullptr;
    if (Keys.empty())
      return nullptr;
    size_t I = slotOf(Key);
    return Keys[I] == Key ? &Vals[I] : nullptr;
  }

  /// \returns the entry of \p Key, inserting a zero entry when absent.
  /// The reference stays valid until the next upsert, which may grow the
  /// table.
  Entry &upsert(uint64_t Key) {
    if (Key == 0) {
      HasZero = true;
      return ZeroEntry;
    }
    if (!Keys.empty()) {
      size_t I = slotOf(Key);
      if (Keys[I] == Key)
        return Vals[I];
      if (2 * (Used + 1) <= Keys.size())
        return claim(I, Key);
    }
    grow();
    return claim(slotOf(Key), Key);
  }

  /// Calls \p F(Key, Entry &) for every entry, in slot order.
  template <typename Fn> void forEach(Fn &&F) { visit(*this, F); }
  template <typename Fn> void forEach(Fn &&F) const { visit(*this, F); }

  /// Drops every entry and releases both arrays.
  void clear() { *this = FeatureTable(); }

private:
  std::vector<uint64_t> Keys; ///< 0 = empty slot; size is a power of two.
  std::vector<Entry> Vals;    ///< Vals[I] belongs to Keys[I].
  size_t Used = 0;            ///< Occupied slots.
  bool HasZero = false;
  Entry ZeroEntry;

  template <typename Self, typename Fn> static void visit(Self &T, Fn &F) {
    if (T.HasZero)
      F(uint64_t(0), T.ZeroEntry);
    for (size_t I = 0; I < T.Keys.size(); ++I)
      if (T.Keys[I] != 0)
        F(T.Keys[I], T.Vals[I]);
  }

  /// The slot holding nonzero \p Key, or the empty slot that ends its
  /// probe sequence. Keys is nonempty and never full.
  size_t slotOf(uint64_t Key) const {
    size_t Mask = Keys.size() - 1;
    size_t I = static_cast<size_t>(Key) & Mask;
    while (Keys[I] != Key && Keys[I] != 0)
      I = (I + 1) & Mask;
    return I;
  }

  Entry &claim(size_t I, uint64_t Key) {
    Keys[I] = Key;
    ++Used;
    return Vals[I];
  }

  /// Doubles the slot count (16 at first) and reinserts every entry; the
  /// old arrays are released on return.
  void grow() {
    size_t Slots = Keys.empty() ? 16 : 2 * Keys.size();
    std::vector<uint64_t> OldKeys =
        std::exchange(Keys, std::vector<uint64_t>(Slots, 0));
    std::vector<Entry> OldVals = std::exchange(Vals, std::vector<Entry>(Slots));
    for (size_t I = 0; I < OldKeys.size(); ++I) {
      if (OldKeys[I] == 0)
        continue;
      size_t J = slotOf(OldKeys[I]);
      Keys[J] = OldKeys[I];
      Vals[J] = OldVals[I];
    }
  }
};

} // namespace crf
} // namespace pigeon

#endif // PIGEON_ML_CRF_FEATURETABLE_H
