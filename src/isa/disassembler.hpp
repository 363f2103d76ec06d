// Linear-sweep disassembler for VX images and raw byte ranges.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "binary/image.hpp"
#include "isa/isa.hpp"

namespace vcfr::isa {

/// One disassembled instruction with its address.
struct DisasmEntry {
  uint32_t addr = 0;
  Instr instr;
};

/// Formats a single instruction ("add r1, r2", "jeq 0x1040", ...).
[[nodiscard]] std::string format_instr(const Instr& instr);

/// Linear sweep over a dense byte range starting at `base`. Stops at the
/// first undecodable byte (returns what was decoded so far).
[[nodiscard]] std::vector<DisasmEntry> disassemble(
    std::span<const uint8_t> bytes, uint32_t base);

/// Disassembles the code section of an original-layout or VCFR image.
/// Throws std::invalid_argument for naive-ILR images, whose instructions
/// run elsewhere (iterate Image::placed_instrs() instead).
[[nodiscard]] std::vector<DisasmEntry> disassemble(const binary::Image& image);

/// Full listing ("1000: jmp 0x1010") for debugging and examples.
[[nodiscard]] std::string listing(const binary::Image& image);

}  // namespace vcfr::isa
