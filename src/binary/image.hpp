// VXE binary image: the unit the assembler produces, the ILR rewriter
// transforms, and the emulator/simulator execute.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "binary/tables.hpp"

namespace vcfr::binary {

class StateIo;

/// How the code bytes of an image are laid out (see DESIGN.md §4).
enum class Layout {
  /// Compiler output: instructions sequential from `code_base`.
  kOriginal,
  /// Fully relocated ILR image: each instruction lives at its randomized
  /// address inside [rand_base, rand_base + rand_size); successor addresses
  /// come from `fallthrough`. Models the paper's "straightforward hardware
  /// support for ILR" (§III).
  kNaiveIlr,
  /// VCFR image: instruction bytes keep the original layout, but direct
  /// control-transfer targets are rewritten into the randomized space and
  /// `tables` carries the randomization/de-randomization mappings (§IV).
  kVcfr,
};

/// A 32-bit slot in the data section that holds a code address (jump-table
/// entry or stored function pointer). The rewriter patches these.
struct Relocation {
  uint32_t data_addr = 0;
};

/// A named function entry point (from `.func` directives).
struct FunctionSymbol {
  std::string name;
  uint32_t addr = 0;
};

/// A complete program image.
struct Image {
  std::string name;
  Layout layout = Layout::kOriginal;

  uint32_t code_base = 0;
  std::vector<uint8_t> code;  // dense bytes for kOriginal / kVcfr

  uint32_t data_base = 0;
  std::vector<uint8_t> data;

  uint32_t entry = 0;

  std::vector<Relocation> relocs;
  std::vector<FunctionSymbol> functions;

  // --- kNaiveIlr only: sparse relocated code -------------------------------
  /// Region holding relocated instructions.
  uint32_t rand_base = 0;
  uint32_t rand_size = 0;
  /// Instruction bytes keyed by randomized address.
  std::unordered_map<uint32_t, std::vector<uint8_t>> sparse_code;
  /// randomized address -> randomized address of the sequential successor.
  /// The paper's straightforward hardware ILR resolves this mapping at zero
  /// cost; only the fetch-locality penalty is modelled. Flat table: probed
  /// on every naive-ILR instruction.
  FlatMap32 fallthrough;

  // --- kVcfr only ----------------------------------------------------------
  TranslationTables tables;

  /// Seed the randomizer used (0 for un-randomized images).
  uint64_t seed = 0;

  [[nodiscard]] uint32_t code_end() const {
    return code_base + static_cast<uint32_t>(code.size());
  }
  [[nodiscard]] bool in_code(uint32_t addr) const {
    return addr >= code_base && addr < code_end();
  }
  [[nodiscard]] uint32_t data_end() const {
    return data_base + static_cast<uint32_t>(data.size());
  }

  /// Reads a 32-bit little-endian value from the data section.
  [[nodiscard]] uint32_t read_data32(uint32_t addr) const;
  /// Writes a 32-bit little-endian value into the data section.
  void write_data32(uint32_t addr, uint32_t value);

  /// The VXE field list (binary/serialize.cpp). Loading rejects a section
  /// that would end past kMaxSectionEnd.
  void state(StateIo& io);
};

/// Default section bases shared by the assembler and workload builders.
inline constexpr uint32_t kDefaultCodeBase = 0x0000'1000;
inline constexpr uint32_t kDefaultDataBase = 0x1000'0000;
inline constexpr uint32_t kDefaultStackTop = 0x7fff'0000;
inline constexpr uint32_t kDefaultRandBase = 0x4000'0000;

/// The highest address a section may end at (one past its last byte), so
/// that Image::code_end() and Image::data_end() do not wrap to zero.
inline constexpr uint64_t kMaxSectionEnd = 0xffff'ffff;

}  // namespace vcfr::binary
