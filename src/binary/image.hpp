// VXE binary image: the unit the assembler produces, the ILR rewriter
// transforms, and the emulator/simulator execute.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "binary/tables.hpp"

namespace vcfr::binary {

class StateIo;

/// How the code bytes of an image are laid out (see DESIGN.md §4).
enum class Layout {
  /// Compiler output: instructions sequential from `code_base`.
  kOriginal,
  /// Fully relocated ILR image: the VCFR image of the same placement (the
  /// same `code` and `tables`), but each instruction is loaded and runs at
  /// its randomized address inside [rand_base, rand_base + rand_size), and
  /// its successor is the randomized address of the next original
  /// instruction, read from the tables. Models the paper's "straightforward
  /// hardware support for ILR" (§III).
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

/// One instruction of a randomized image: its original address and length
/// (its bytes are the `code` slice there) and the address it runs at in a
/// naive-ILR image, tables.to_randomized(addr).
struct PlacedInstr {
  uint32_t addr = 0;
  uint32_t length = 0;
  uint32_t at = 0;
};

/// A complete program image.
struct Image {
  std::string name;
  Layout layout = Layout::kOriginal;

  uint32_t code_base = 0;
  std::vector<uint8_t> code;  // in original layout

  uint32_t data_base = 0;
  std::vector<uint8_t> data;

  uint32_t entry = 0;  // original-space, in every layout

  std::vector<Relocation> relocs;
  std::vector<FunctionSymbol> functions;

  // --- randomized images (kNaiveIlr, kVcfr) -------------------------------
  /// The randomized instruction space every rand value lies in.
  uint32_t rand_base = 0;
  uint32_t rand_size = 0;
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

  /// Every instruction of a randomized image, in ascending `at` order. The
  /// instruction starts are the rand keys and the un-randomized addresses.
  [[nodiscard]] std::vector<PlacedInstr> placed_instrs() const;
  /// The fall-through successor of the instruction a naive-ILR image runs
  /// at `rpc`: where the next original instruction runs, from the tables
  /// alone. 0 past the last instruction and off any placed instruction
  /// start.
  [[nodiscard]] uint32_t naive_successor(uint32_t rpc) const;

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
