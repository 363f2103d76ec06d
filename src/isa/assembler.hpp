// Two-pass text assembler for VX.
//
// Syntax (one statement per line, ';' or '#' starts a comment):
//
//   .name bzip2            ; image name
//   .code 0x1000           ; code section base (default 0x1000)
//   .data 0x10000000       ; data section base and switch to data emission
//   .text                  ; switch back to code emission
//   .entry main            ; entry label
//   .func compress         ; declare the next label a function symbol
//   label:                 ; label bound to current section cursor
//   .word 123              ; 32-bit data value
//   .byte 7                ; 8-bit data value
//   .space 1024            ; zero-filled data bytes
//   .ptr label             ; 32-bit code/data pointer + relocation record
//
//   mov r1, 42             ; reg-imm (also: mov r1, @label for an address)
//   mov r1, r2             ; reg-reg
//   add/sub/and/or/xor/shl/shr/mul r1, r2|imm
//   div r1, r2
//   cmp r1, r2|imm         ; test r1, r2
//   ld r3, [r2+8]          ; ldb/st/stb likewise; displacement optional
//   jmp label / jeq..jae label / jmpr r5
//   call label / callr r5 / ret
//   push r1 / pop r1 / out r1 / sys 0 / nop / halt
#pragma once

#include <string>
#include <string_view>

#include "binary/image.hpp"

namespace vcfr::isa {

/// Assembles VX source into an original-layout image.
/// Throws std::runtime_error with a line-numbered message on any error
/// (unknown mnemonic, undefined label, malformed operand, a value outside
/// its field's range, a section running past 0xffffffff, ...; the ranges
/// are in docs/ISA.md).
[[nodiscard]] binary::Image assemble(std::string_view source);

}  // namespace vcfr::isa
