// Primitive binary state serialization, shared by both persisted binary
// formats: VXE program images (binary/serialize.*, Image::state) and
// fleet checkpoints (Kernel::state and every runtime class below it).
//
// Both need their fields written in a deterministic little-endian layout
// and read back with bounds: a program's sections and translation tables,
// and a running fleet's pipeline clocks, cache tag arrays, DRAM bank
// horizons and scheduler queues. StateIo is that one field layer, built
// over either an ostream (saving) or an istream (loading). Each persisted
// class lists its fields once:
//
//   void state(binary::StateIo& io);
//
// Every primitive takes a reference: saving writes the value and only
// reads the field, loading assigns it, so one field list serves both
// directions. The few steps that really differ by direction (sorting
// hash-set contents before a save, rebuilding derived state after a load)
// branch on loading().
//
// Loading throws FormatError — kTruncated on underrun, kImplausible on a
// count beyond its bound, a geometry that does not match the live object
// or an out-of-range index — so corrupt bytes surface as a structured
// error instead of UB. Variable-length fields never allocate ahead of the
// input: a corrupt length runs into truncation before a large allocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "binary/serialize.hpp"

namespace vcfr::binary {

class StateIo {
 public:
  explicit StateIo(std::ostream& out) : out_(&out) {}
  explicit StateIo(std::istream& in) : in_(&in) {}

  [[nodiscard]] bool loading() const { return in_ != nullptr; }

  void u8(uint8_t& v);
  void u32(uint32_t& v);
  void u64(uint64_t& v);
  void i64(int64_t& v);
  void b(bool& v);
  /// An enum as one byte.
  template <typename E>
  void enum8(E& v) {
    auto byte = static_cast<uint8_t>(v);
    u8(byte);
    if (loading()) v = static_cast<E>(byte);
  }
  /// u32 length prefix + raw bytes.
  void str(std::string& s) { blob(s, kMaxString); }
  /// str() with its own length bound, for a std::string or a byte vector
  /// (a program section). Loading grows the buffer in bounded chunks, so a
  /// corrupt length hits truncation before a large allocation.
  template <typename Buf>
  void blob(Buf& buf, uint32_t max);
  void bytes(void* data, size_t size);

  /// A u32 element count: saving writes `n` and returns it; loading reads
  /// one, rejects it above `max` (kImplausible) and returns it — every
  /// variable-length field goes through this so a corrupt count can never
  /// drive an allocation.
  uint32_t count(size_t n, uint32_t max);
  /// A fixed-geometry count: saving writes `live`; loading reads a
  /// count(max) and requires it to equal `live`, else throws kImplausible
  /// with `what`.
  void fixed(size_t live, uint32_t max, const std::string& what);
  /// Throws kImplausible with `what` unless `ok` (always true when saving a
  /// consistent object).
  static void require(bool ok, const std::string& what);

  /// A bounded variable-length vector: its count(), then `field` on each
  /// element. Loading replaces the contents one element at a time.
  template <typename T, typename Field>
  void vec(std::vector<T>& v, uint32_t max, Field field) {
    const uint32_t n = count(v.size(), max);
    if (loading()) v.clear();
    for (uint32_t i = 0; i < n; ++i) {
      if (loading()) v.emplace_back();
      field(v[i]);
    }
  }
  void u32s(std::vector<uint32_t>& v, uint32_t max) {
    vec(v, max, [this](uint32_t& x) { u32(x); });
  }

 private:
  static constexpr uint32_t kMaxString = 1u << 20;

  /// Writes or reads `size` bytes; a short read throws kTruncated naming
  /// `what`.
  void raw(void* data, size_t size, const char* what);

  std::ostream* out_ = nullptr;
  std::istream* in_ = nullptr;
};

}  // namespace vcfr::binary
