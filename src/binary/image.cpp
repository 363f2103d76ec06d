#include "binary/image.hpp"

#include <algorithm>
#include <stdexcept>

namespace vcfr::binary {

uint32_t Image::read_data32(uint32_t addr) const {
  if (addr < data_base || addr + 4 > data_end()) {
    throw std::out_of_range("Image::read_data32: address outside data section");
  }
  const size_t off = addr - data_base;
  return static_cast<uint32_t>(data[off]) |
         (static_cast<uint32_t>(data[off + 1]) << 8) |
         (static_cast<uint32_t>(data[off + 2]) << 16) |
         (static_cast<uint32_t>(data[off + 3]) << 24);
}

void Image::write_data32(uint32_t addr, uint32_t value) {
  if (addr < data_base || addr + 4 > data_end()) {
    throw std::out_of_range("Image::write_data32: address outside data section");
  }
  const size_t off = addr - data_base;
  data[off] = static_cast<uint8_t>(value);
  data[off + 1] = static_cast<uint8_t>(value >> 8);
  data[off + 2] = static_cast<uint8_t>(value >> 16);
  data[off + 3] = static_cast<uint8_t>(value >> 24);
}

namespace {

/// One past the last byte of the instruction at code address `addr` of a
/// randomized image: the next instruction start, or code_end().
uint32_t instr_end(const Image& image, uint32_t addr) {
  uint32_t end = addr + 1;
  while (end < image.code_end() && !image.tables.rand.contains(end) &&
         !image.tables.unrandomized.contains(end)) {
    ++end;
  }
  return end;
}

}  // namespace

std::vector<PlacedInstr> Image::placed_instrs() const {
  std::vector<PlacedInstr> out;
  for (uint32_t addr = code_base; addr < code_end();) {
    const uint32_t end = instr_end(*this, addr);
    out.push_back({addr, end - addr, tables.to_randomized(addr)});
    addr = end;
  }
  std::sort(out.begin(), out.end(),
            [](const PlacedInstr& a, const PlacedInstr& b) {
              return a.at < b.at;
            });
  return out;
}

uint32_t Image::naive_successor(uint32_t rpc) const {
  const uint32_t* placed = tables.derand.lookup(rpc);
  const uint32_t addr = placed != nullptr ? *placed : rpc;
  if ((placed == nullptr && !tables.unrandomized.contains(rpc)) ||
      !in_code(addr)) {
    return 0;
  }
  const uint32_t end = instr_end(*this, addr);
  return end == code_end() ? 0 : tables.to_randomized(end);
}

}  // namespace vcfr::binary
