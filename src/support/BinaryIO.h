//===- BinaryIO.h - Varint + length-prefixed binary IO ----------*- C++ -*-===//
//
// Part of the PIGEON project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small-integer (LEB128 varint) and length-prefixed byte-string codecs
/// shared by every on-disk format: the model bundle (ModelIO) and the
/// extracted-contexts artifact (ContextsIO), plus the in-memory packed
/// path encoding (paths::PathTable). Two surfaces:
///
///  * stream functions over std::ostream/std::istream for the artifacts,
///    with size guards against corrupted lengths;
///  * allocation-free inline append/read over byte buffers for the packed
///    path hot path.
///
//===----------------------------------------------------------------------===//

#ifndef PIGEON_SUPPORT_BINARYIO_H
#define PIGEON_SUPPORT_BINARYIO_H

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pigeon {
namespace io {

/// Upper bound accepted for any single length-prefixed string or byte
/// string; corrupted streams with absurd lengths fail fast instead of
/// attempting a huge allocation.
inline constexpr size_t MaxChunkBytes = 64u << 20;

/// Overflow-checked \p A + \p B. \returns false (leaving \p Out
/// untouched) when the sum wraps. Every section-end computation over
/// untrusted offsets must go through this: a crafted offset near
/// UINT64_MAX would otherwise wrap the end below the start and slip past
/// a naive `end <= size` bounds check.
inline bool checkedAdd(uint64_t A, uint64_t B, uint64_t &Out) {
  if (A > UINT64_MAX - B)
    return false;
  Out = A + B;
  return true;
}

//===----------------------------------------------------------------------===//
// Stream codecs
//===----------------------------------------------------------------------===//

/// Writes \p Value as an LEB128 varint (1 byte for values < 128).
void writeVarint(std::ostream &OS, uint64_t Value);

/// Reads an LEB128 varint. \returns false on EOF or an overlong encoding
/// (more than 10 bytes).
bool readVarint(std::istream &IS, uint64_t &Value);

/// Writes varint(size) followed by the raw bytes.
void writeBytes(std::ostream &OS, std::span<const uint8_t> Bytes);

/// Reads a length-prefixed byte string written by writeBytes into \p Out
/// (replacing its contents). \returns false on EOF or a length beyond
/// \p MaxSize.
bool readBytes(std::istream &IS, std::vector<uint8_t> &Out,
               size_t MaxSize = MaxChunkBytes);

/// Writes varint(size) followed by the characters.
void writeString(std::ostream &OS, std::string_view Str);

/// Reads a length-prefixed string written by writeString. \returns false
/// on EOF or a length beyond \p MaxSize.
bool readString(std::istream &IS, std::string &Out,
                size_t MaxSize = MaxChunkBytes);

//===----------------------------------------------------------------------===//
// Buffer codecs (hot path: no streams, no allocation)
//===----------------------------------------------------------------------===//

/// Appends \p Value to \p Out as an LEB128 varint.
inline void appendVarint(std::vector<uint8_t> &Out, uint64_t Value) {
  while (Value >= 0x80) {
    Out.push_back(static_cast<uint8_t>(Value) | 0x80);
    Value >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(Value));
}

/// Sequential reader over an in-memory byte span (used to decode packed
/// paths). Reads past the end fail rather than assert: packed bytes can
/// come from disk.
class ByteReader {
public:
  explicit ByteReader(std::span<const uint8_t> Bytes) : Bytes(Bytes) {}

  bool atEnd() const { return Pos >= Bytes.size(); }
  size_t remaining() const { return Bytes.size() - Pos; }

  bool readByte(uint8_t &Out) {
    if (atEnd())
      return false;
    Out = Bytes[Pos++];
    return true;
  }

  bool readVarint(uint32_t &Out) {
    uint32_t Value = 0;
    for (int Shift = 0; Shift <= 28; Shift += 7) {
      uint8_t Byte = 0;
      if (!readByte(Byte))
        return false;
      // The 5th byte holds bits 28..31 only: a set continuation bit would
      // make the encoding longer than 5 bytes, and payload bits above
      // 2^32 would be shifted past bit 31 and silently dropped — letting
      // distinct byte strings decode to the same value, which breaks
      // every equality-by-bytes artifact built on top of this codec.
      if (Shift == 28 && (Byte & 0xF0) != 0)
        return false;
      Value |= static_cast<uint32_t>(Byte & 0x7F) << Shift;
      if ((Byte & 0x80) == 0) {
        Out = Value;
        return true;
      }
    }
    return false; // Unreachable: the 5th byte either returns or rejects.
  }

private:
  std::span<const uint8_t> Bytes;
  size_t Pos = 0;
};

} // namespace io
} // namespace pigeon

#endif // PIGEON_SUPPORT_BINARYIO_H
