#include "binary/serialize.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "binary/state_io.hpp"

namespace vcfr::binary {
namespace {

constexpr char kMagic[4] = {'V', 'X', 'E', '1'};

/// Hard bounds: a section (or one naive-ILR instruction's bytes) and every
/// count field (relocs, functions, table entries, ...). Far above anything
/// the toolchain emits; a corrupt length still fails as truncation first,
/// since StateIo never allocates ahead of the input.
constexpr uint32_t kMaxSection = 1u << 28;
constexpr uint32_t kMaxEntries = 1u << 24;

using Pair = std::pair<uint32_t, uint32_t>;
using SparseEntry = std::pair<uint32_t, std::vector<uint8_t>>;

/// A hash container as a count and its entries in iteration order.
/// Loading reads every entry before it touches the container, so a
/// corrupt count reserves nothing, then reserves the count and inserts in
/// stream order. Slot order (FlatMap32, FlatSet32) and bucket order
/// (unordered_map) depend on capacity and insertion order, so this rebuild
/// fixes how a loaded image iterates and re-saves (pinned by
/// ImageBytesTest.SaveLoadSaveIsPinned).
template <typename Entry, typename Map, typename Field>
void table(StateIo& io, Map& map, Field field) {
  std::vector<Entry> entries;
  if (!io.loading()) {
    for (const auto& e : map) entries.emplace_back(e);
  }
  io.vec(entries, kMaxEntries, field);
  if (!io.loading()) return;
  map.clear();
  map.reserve(entries.size());
  for (Entry& e : entries) map.insert(std::move(e));
}

void pairs(StateIo& io, FlatMap32& map) {
  table<Pair>(io, map, [&](Pair& e) {
    io.u32(e.first);
    io.u32(e.second);
  });
}

/// A section's bytes, which must end by kMaxSectionEnd.
void section(StateIo& io, uint32_t base, std::vector<uint8_t>& bytes,
             const char* what) {
  io.blob(bytes, kMaxSection);
  StateIo::require(base + uint64_t{bytes.size()} <= kMaxSectionEnd,
                   std::string(what) + " runs past the 32-bit address space");
}

}  // namespace

std::string_view format_fault_name(FormatFault fault) {
  switch (fault) {
    case FormatFault::kIo: return "io";
    case FormatFault::kBadMagic: return "bad_magic";
    case FormatFault::kBadLayout: return "bad_layout";
    case FormatFault::kTruncated: return "truncated";
    case FormatFault::kImplausible: return "implausible";
  }
  return "unknown";
}

void Image::state(StateIo& io) {
  io.enum8(layout);
  io.u64(seed);
  io.str(name);
  io.u32(code_base);
  section(io, code_base, code, "code section");
  io.u32(data_base);
  section(io, data_base, data, "data section");
  io.u32(entry);
  io.vec(relocs, kMaxEntries, [&](Relocation& r) { io.u32(r.data_addr); });
  io.vec(functions, kMaxEntries, [&](FunctionSymbol& f) {
    io.str(f.name);
    io.u32(f.addr);
  });
  io.u32(rand_base);
  io.u32(rand_size);
  table<SparseEntry>(io, sparse_code, [&](SparseEntry& e) {
    io.u32(e.first);
    section(io, e.first, e.second, "sparse-code entry");
  });
  pairs(io, fallthrough);
  pairs(io, tables.derand);
  pairs(io, tables.rand);
  table<uint32_t>(io, tables.unrandomized, [&](uint32_t& a) { io.u32(a); });
  io.u32(tables.table_base);
  io.u32(tables.table_bytes);
}

void save(const Image& image, std::ostream& out) {
  out.write(kMagic, 4);
  StateIo io(out);
  // A saving StateIo only reads the fields it is handed.
  const_cast<Image&>(image).state(io);
  if (!out) throw FormatError(FormatFault::kIo, "vxe: write failed");
}

Image load_file(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (in.gcount() != 4 || std::memcmp(magic, kMagic, 4) != 0) {
    throw FormatError(FormatFault::kBadMagic, "vxe: bad magic (not a VXE image)");
  }
  const int layout = in.peek();
  if (layout != EOF && layout > static_cast<int>(Layout::kVcfr)) {
    throw FormatError(FormatFault::kBadLayout, "vxe: unknown layout");
  }
  Image image;
  StateIo io(in);
  try {
    image.state(io);
  } catch (const FormatError& e) {
    throw FormatError(e.fault(), std::string("vxe: ") + e.what());
  }
  return image;
}

void save(const Image& image, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw FormatError(FormatFault::kIo, "vxe: cannot open for writing: " + path);
  save(image, out);
}

Image load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FormatError(FormatFault::kIo, "vxe: cannot open: " + path);
  return load_file(in);
}

}  // namespace vcfr::binary
