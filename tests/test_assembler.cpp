// Tests for the two-pass assembler: directives, operands, labels,
// relocations, and error reporting.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "isa/encoding.hpp"

namespace vcfr::isa {
namespace {

using binary::Image;

TEST(AssemblerTest, MinimalProgram) {
  const Image img = assemble(R"(
    .name tiny
    .entry main
    main:
      mov r1, 7
      out r1
      halt
  )");
  EXPECT_EQ(img.name, "tiny");
  EXPECT_EQ(img.entry, binary::kDefaultCodeBase);
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].instr.op, Op::kMovRI);
  EXPECT_EQ(listing[1].instr.op, Op::kOut);
  EXPECT_EQ(listing[2].instr.op, Op::kHalt);
}

TEST(AssemblerTest, LabelsResolveForwardAndBackward) {
  const Image img = assemble(R"(
    .entry main
    main:
      jmp fwd
    back:
      halt
    fwd:
      jmp back
  )");
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].instr.imm, listing[2].addr);  // fwd
  EXPECT_EQ(listing[2].instr.imm, listing[1].addr);  // back
}

TEST(AssemblerTest, MemoryOperands) {
  const Image img = assemble(R"(
    ld r1, [r2]
    ld r3, [r4+16]
    st r5, [sp-4]
  )");
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].instr.disp, 0);
  EXPECT_EQ(listing[1].instr.disp, 16);
  EXPECT_EQ(listing[2].instr.rs, kSp);
  EXPECT_EQ(listing[2].instr.disp, -4);
}

TEST(AssemblerTest, DataSectionAndPointers) {
  const Image img = assemble(R"(
    .entry main
    .data 0x10000000
    table:
      .ptr f1
      .ptr f2
      .word 99
      .byte 7
      .space 3
    .text
    main:
      halt
    f1:
      ret
    f2:
      ret
  )");
  ASSERT_EQ(img.relocs.size(), 2u);
  EXPECT_EQ(img.relocs[0].data_addr, 0x10000000u);
  EXPECT_EQ(img.relocs[1].data_addr, 0x10000004u);
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(img.read_data32(0x10000000), listing[1].addr);  // f1
  EXPECT_EQ(img.read_data32(0x10000004), listing[2].addr);  // f2
  EXPECT_EQ(img.read_data32(0x10000008), 99u);
  EXPECT_EQ(img.data[12], 7u);
  EXPECT_EQ(img.data.size(), 16u);
}

TEST(AssemblerTest, AddressImmediate) {
  const Image img = assemble(R"(
    .data 0x10000000
    buf:
      .space 16
    .text
    mov r1, @buf
    halt
  )");
  const auto listing = disassemble(img);
  EXPECT_EQ(listing[0].instr.imm, 0x10000000u);
}

TEST(AssemblerTest, FunctionSymbols) {
  const Image img = assemble(R"(
    .entry main
    .func main
    main:
      call helper
      halt
    .func helper
    helper:
      ret
  )");
  ASSERT_EQ(img.functions.size(), 2u);
  EXPECT_EQ(img.functions[0].name, "main");
  EXPECT_EQ(img.functions[1].name, "helper");
  EXPECT_EQ(img.functions[1].addr, disassemble(img)[2].addr);
}

TEST(AssemblerTest, ConditionalMnemonics) {
  const Image img = assemble(R"(
    l:
      jeq l
      jne l
      jlt l
      jle l
      jgt l
      jge l
      jb l
      jae l
  )");
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 8u);
  EXPECT_EQ(listing[0].instr.cond, Cond::kEq);
  EXPECT_EQ(listing[7].instr.cond, Cond::kAe);
}

TEST(AssemblerTest, CommentsAndWhitespace) {
  const Image img = assemble(
      "  ; leading comment\n"
      "main:   # trailing style\n"
      "  nop ; mid\n"
      "\n"
      "  halt\n");
  EXPECT_EQ(disassemble(img).size(), 2u);
}

TEST(AssemblerErrorTest, ReportsLineNumbers) {
  try {
    (void)assemble("nop\nbogus r1\n");
    FAIL() << "expected AsmError";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("asm:2"), std::string::npos);
  }
}

TEST(AssemblerErrorTest, RejectsCommonMistakes) {
  EXPECT_THROW((void)assemble("jmp nowhere\nnowhere_else:\n"), std::runtime_error);
  EXPECT_THROW((void)assemble("mov r1\n"), std::runtime_error);
  EXPECT_THROW((void)assemble("mov r99, 1\n"), std::runtime_error);
  EXPECT_THROW((void)assemble("ld r1, [r2+99999]\n"), std::runtime_error);
  EXPECT_THROW((void)assemble("dup:\ndup:\n"), std::runtime_error);
  EXPECT_THROW((void)assemble(".entry missing\n"), std::runtime_error);
  EXPECT_THROW((void)assemble(".bogus 1\n"), std::runtime_error);
  EXPECT_THROW((void)assemble(".data\n nop\n"), std::runtime_error);
}

/// Each source must fail with exactly its message.
void expect_errors(
    std::initializer_list<std::pair<const char*, const char*>> cases) {
  for (const auto& [source, message] : cases) {
    try {
      (void)assemble(source);
      ADD_FAILURE() << "accepted: " << source;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), message) << source;
    }
  }
}

// The established diagnostics, text and line number, including arity
// errors that count operands past the two any mnemonic takes and the
// C-locale whitespace (\f, \v, \r) the lexer trims.
TEST(AssemblerErrorTest, MessagesKeepTheirText) {
  expect_errors({
      {"nop\nbogus r1\n", "asm:2: unknown mnemonic 'bogus'"},
      {"jmp nowhere\n", "asm:1: undefined label 'nowhere'"},
      {"mov r1\n", "asm:1: mov expects 2 operand(s), got 1"},
      {"mov r1, 2, 3\n", "asm:1: mov expects 2 operand(s), got 3"},
      {"nop r1, r2, r3, r4\n", "asm:1: nop expects 0 operand(s), got 4"},
      {"add r1,\n", "asm:1: add expects 2 operand(s), got 1"},
      {"mov r99, 1\n", "asm:1: expected register, got 'r99'"},
      {"ld r1, [r2+99999]\n", "asm:1: displacement out of 16-bit range"},
      {"ld r1, r2\n", "asm:1: expected memory operand, got 'r2'"},
      {"ld r1, [r2+abc]\n", "asm:1: expected integer, got '+abc'"},
      {"dup:\ndup:\n", "asm:2: duplicate label 'dup'"},
      {"nop\n.entry missing\nhalt\n", "asm:2: undefined label 'missing'"},
      {".bogus 1\n", "asm:1: unknown directive '.bogus'"},
      {".data\n nop\n", "asm:2: instruction in data section"},
      {" :\n", "asm:1: empty label"},
      {".func\n", "asm:1: .func requires a name"},
      {".func f\nnop", "asm:2: .func not followed by a label"},
      {".ptr\n", "asm:1: .ptr requires a label"},
      {".space -1\n", "asm:1: .space size must be non-negative"},
      {".data\n.ptr nowhere\n", "asm:2: undefined label 'nowhere'"},
      {"mov r1, @nowhere\n", "asm:1: undefined label 'nowhere'"},
      {"sys x\n", "asm:1: expected integer, got 'x'"},
      {"jxx l\n", "asm:1: unknown mnemonic 'jxx'"},
      {"\tnop\t;c\n  halt  x\n", "asm:2: halt expects 0 operand(s), got 1"},
      {"\fnop\v\r\n\r\nhalt\r\nfoo\r\n", "asm:4: unknown mnemonic 'foo'"},
      {"mov r1, 99999999999999999999\n",
       "asm:1: expected integer, got '99999999999999999999'"},
  });
}

// Every numeric field takes exactly its range; nothing is truncated and
// no literal negates past INT64_MIN.
TEST(AssemblerErrorTest, RejectsLiteralsOutsideTheirField) {
  expect_errors({
      {"nop\nmov r1, -9223372036854775808\n",
       "asm:2: value '-9223372036854775808' out of 32-bit range"},
      {"mov r1, 9223372036854775808\n",
       "asm:1: expected integer, got '9223372036854775808'"},
      {"mov r1, -9223372036854775809\n",
       "asm:1: expected integer, got '-9223372036854775809'"},
      {"add r1, 4294967296\n", "asm:1: value '4294967296' out of 32-bit range"},
      {"cmp r1, -2147483649\n",
       "asm:1: value '-2147483649' out of 32-bit range"},
      {"push 0x100000000\n", "asm:1: value '0x100000000' out of 32-bit range"},
      {"sys -0x80000001\n", "asm:1: value '-0x80000001' out of 32-bit range"},
      {"jmp 0x100000000\n", "asm:1: value '0x100000000' out of 32-bit range"},
      {".data\n.word 0x1ffffffff\n",
       "asm:2: value '0x1ffffffff' out of 32-bit range"},
      {".word -2147483649\n", "asm:1: value '-2147483649' out of 32-bit range"},
      {".byte 300\n", "asm:1: value '300' out of 8-bit range"},
      {".byte 256\n", "asm:1: value '256' out of 8-bit range"},
      {".byte -129\n", "asm:1: value '-129' out of 8-bit range"},
      {".code 0x100001000\n", "asm:1: value '0x100001000' out of 32-bit range"},
      {".data 0x110000000\n", "asm:1: value '0x110000000' out of 32-bit range"},
  });

  // The bounds themselves are accepted.
  const Image img = assemble(R"(
    .data 0x10000000
      .word -2147483648
      .word 0xffffffff
      .byte -128
      .byte 255
    .text
      mov r1, -2147483648
      mov r2, 4294967295
      jmp 0xffffffff
  )");
  EXPECT_EQ(img.read_data32(0x10000000), 0x80000000u);
  EXPECT_EQ(img.read_data32(0x10000004), 0xffffffffu);
  EXPECT_EQ(img.data[8], 0x80u);
  EXPECT_EQ(img.data[9], 0xffu);
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].instr.imm, 0x80000000u);
  EXPECT_EQ(listing[1].instr.imm, 0xffffffffu);
  EXPECT_EQ(listing[2].instr.imm, 0xffffffffu);
}

// '@' must name a label: an empty one is not the address 0.
TEST(AssemblerErrorTest, RejectsAnEmptyAddressLabel) {
  expect_errors({{"nop\nmov r1, @\n", "asm:2: expected label after '@'"}});
}

// A section ends at or below 0xffffffff: no item may carry its cursor
// past it (end() would wrap to a small address and nothing would be
// in_code), and each section has one base. All of these fail while
// parsing, before any section is sized.
TEST(AssemblerErrorTest, RejectsSectionsPastTheAddressSpace) {
  expect_errors({
      {".code 0xfffffffe\nnop\nnop\nnop\n",
       "asm:3: code section runs past the 32-bit address space"},
      // Six-byte movs at 0xfffffff0, 0xfffffff6: the third would end
      // at 0x100000002.
      {".code 0xfffffff0\nmov r1, 1\nmov r1, 2\nmov r1, 3\n",
       "asm:4: code section runs past the 32-bit address space"},
      {".data 0xfffffffc\n.word 1\n",
       "asm:2: data section runs past the 32-bit address space"},
      {".data 0xfffffffd\nx:\n.ptr x\n",
       "asm:3: data section runs past the 32-bit address space"},
      {".data 0xfffffff0\n.space 15\n.byte 1\n",
       "asm:3: data section runs past the 32-bit address space"},
      {".data 0xfffffff0\n.space 16\n",
       "asm:2: data section runs past the 32-bit address space"},
      {".data\n.space 0x100000000\n",
       "asm:2: data section runs past the 32-bit address space"},
      {".data\n.space 9223372036854775807\n",
       "asm:2: data section runs past the 32-bit address space"},
      {"nop\n.code 0x2000\n", "asm:2: .code base after code was emitted"},
      {".data 0x10000010\n.byte 1\n.data 0x10000000\n",
       "asm:3: .data base after data was emitted"},
  });

  // A section may end exactly at 0xffffffff, and a base may be restated
  // while its section is still empty.
  const Image img = assemble(
      ".code 0x2000\n.code 0xfffffffd\nnop\nnop\n"
      ".data\n.data 0xfffffff7\n.space 4\n.word 7\n.data\n.space 0\n");
  EXPECT_EQ(img.code_base, 0xfffffffdu);
  EXPECT_EQ(img.code_end(), 0xffffffffu);
  EXPECT_TRUE(img.in_code(img.entry));
  EXPECT_EQ(img.data_end(), 0xffffffffu);
  EXPECT_EQ(img.read_data32(0xfffffffb), 7u);
}

}  // namespace
}  // namespace vcfr::isa
