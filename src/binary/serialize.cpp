#include "binary/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "binary/state_io.hpp"

namespace vcfr::binary {
namespace {

constexpr char kMagic[4] = {'V', 'X', 'E', '4'};

/// Hard bounds: a section and every count field (relocs, functions, table
/// entries, ...). Far above anything the toolchain emits; a corrupt length
/// still fails as truncation first, since StateIo never allocates ahead of
/// the input.
constexpr uint32_t kMaxSection = 1u << 28;
constexpr uint32_t kMaxEntries = 1u << 24;

using Pair = std::pair<uint32_t, uint32_t>;

uint32_t key_of(uint32_t key) { return key; }
uint32_t key_of(const Pair& e) { return e.first; }

/// A table as a count and its entries in ascending key order, so that the
/// bytes depend only on its contents. Saving takes `saved` (any order);
/// loading reads every entry before it touches the table, so a corrupt
/// count allocates nothing, then hands each entry to `insert`, which
/// returns false for a repeated key.
template <typename Entry, typename Field, typename Insert>
void keyed(StateIo& io, std::vector<Entry> saved, Field field, Insert insert) {
  std::sort(saved.begin(), saved.end(), [](const Entry& a, const Entry& b) {
    return key_of(a) < key_of(b);
  });
  io.vec(saved, kMaxEntries, field);
  if (!io.loading()) return;
  for (Entry& e : saved) {
    const uint32_t key = key_of(e);
    StateIo::require(insert(std::move(e)),
                     "repeated table key " + std::to_string(key));
  }
}

void pair_field(StateIo& io, Pair& e) {
  io.u32(e.first);
  io.u32(e.second);
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
  if (io.loading()) *this = Image();
  io.enum8(layout);
  if (layout > Layout::kVcfr) {
    throw FormatError(FormatFault::kBadLayout, "unknown layout");
  }
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

  // The dense tables span the randomized region (derand, in slots of the
  // saved granule) and the original code (rand), in every layout. At most
  // 16 slots per code byte (far above any placement) bounds what a loaded
  // region allocates.
  uint32_t granule = tables.derand.granule();
  io.u32(granule);
  if (io.loading()) {
    StateIo::require(granule != 0 && rand_base + uint64_t{rand_size} <=
                                         kMaxSectionEnd,
                     "randomized region runs past the 32-bit address space");
    StateIo::require(rand_size / granule <= 16 * uint64_t{code.size()} + 8192,
                     "randomized region has more slots than its code can fill");
    tables.derand.reset(rand_base, rand_size, granule);
    tables.rand.reset(code_base, static_cast<uint32_t>(code.size()));
  }
  keyed<Pair>(io, tables.derand.entries(),
              [&](Pair& e) { pair_field(io, e); },
              [&](Pair&& e) {
                StateIo::require(tables.derand.in_region(e.first),
                                 "derand key outside the randomized region");
                return tables.derand.emplace(e.first, e.second);
              });
  keyed<Pair>(io, tables.rand.entries(),
              [&](Pair& e) { pair_field(io, e); },
              [&](Pair&& e) {
                StateIo::require(e.first - code_base < tables.rand.span(),
                                 "rand entry outside the original code");
                StateIo::require(e.second - rand_base < rand_size,
                                 "rand value outside the randomized region");
                return tables.rand.set(e.first, e.second);
              });
  keyed<uint32_t>(io, {tables.unrandomized.begin(), tables.unrandomized.end()},
                  [&](uint32_t& a) { io.u32(a); },
                  [&](uint32_t a) { return tables.unrandomized.insert(a); });
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
