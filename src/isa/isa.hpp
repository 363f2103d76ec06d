// VX instruction set architecture.
//
// VX is the synthetic 32-bit ISA this reproduction substitutes for x86
// (see DESIGN.md §2). It keeps the two properties the paper's evaluation
// depends on:
//   * variable-length encodings (1-6 bytes), so unaligned decoding yields
//     ROP gadgets and instructions can be relocated at byte granularity;
//   * x86-style stack discipline (push/pop/call/ret with return addresses
//     in memory), so return-address randomization is meaningful.
//
// Control transfers use absolute 32-bit targets; the ILR rewriter patches
// them when relocating instructions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace vcfr::isa {

/// Number of general-purpose registers.
inline constexpr int kNumRegs = 16;

/// Stack pointer register index (by convention, like x86 %esp).
inline constexpr uint8_t kSp = 14;

/// Opcode space. Byte values are part of the binary encoding and must not
/// be reordered once binaries exist (tests rely on stability only within a
/// process, but gadget-scanner expectations rely on Ret's value).
enum class Op : uint8_t {
  kNop = 0x01,
  kHalt = 0x02,
  kSys = 0x03,   // Sys func-byte: 0 = exit, 1 = emit r0 to output channel
  kOut = 0x04,   // emit register to output channel (checksum channel)

  kMovRR = 0x10,
  kMovRI = 0x11,

  kLd = 0x20,   // rd = mem32[rs + sext(disp16)]
  kSt = 0x21,   // mem32[rs + sext(disp16)] = rd
  kLdb = 0x22,  // rd = zext(mem8[rs + sext(disp16)])
  kStb = 0x23,  // mem8[rs + sext(disp16)] = rd & 0xff

  kAddRR = 0x30,
  kSubRR = 0x31,
  kAndRR = 0x32,
  kOrRR = 0x33,
  kXorRR = 0x34,
  kShlRR = 0x35,
  kShrRR = 0x36,
  kMulRR = 0x37,
  kDivRR = 0x38,

  kAddRI = 0x40,
  kSubRI = 0x41,
  kAndRI = 0x42,
  kOrRI = 0x43,
  kXorRI = 0x44,
  kShlRI = 0x45,
  kShrRI = 0x46,
  kMulRI = 0x47,

  kCmpRR = 0x50,
  kCmpRI = 0x51,
  kTestRR = 0x52,

  kJmp = 0x60,    // absolute 32-bit target
  kJcc = 0x61,    // cond byte + absolute 32-bit target
  kJmpR = 0x62,   // indirect jump through register
  kCall = 0x63,   // push return address; absolute target
  kCallR = 0x64,  // push return address; indirect target
  kRet = 0x65,    // pop return address into PC

  kPushR = 0x70,
  kPopR = 0x71,
  /// Push a 32-bit immediate (used by the software return-address
  /// randomization rewrite, §IV-A option 1: call X -> push ret; jmp X).
  kPushI = 0x72,
};

/// Condition codes for kJcc. Signed comparisons use N/V/Z, unsigned use C/Z,
/// mirroring the x86 condition model.
enum class Cond : uint8_t {
  kEq = 0,  // Z
  kNe = 1,  // !Z
  kLt = 2,  // N != V (signed <)
  kLe = 3,  // Z || N != V
  kGt = 4,  // !Z && N == V
  kGe = 5,  // N == V
  kB = 6,   // C (unsigned <)
  kAe = 7,  // !C
};

/// Decoded instruction. `imm` holds the immediate, absolute branch target,
/// or sign-extended displacement depending on `op`.
struct Instr {
  Op op = Op::kNop;
  Cond cond = Cond::kEq;
  uint8_t rd = 0;       // destination / value register
  uint8_t rs = 0;       // source / base register
  uint32_t imm = 0;     // immediate or absolute target
  int32_t disp = 0;     // sign-extended memory displacement
  uint8_t length = 1;   // encoded length in bytes

  /// True for instructions that can redirect control flow.
  [[nodiscard]] bool is_control() const {
    switch (op) {
      case Op::kJmp:
      case Op::kJcc:
      case Op::kJmpR:
      case Op::kCall:
      case Op::kCallR:
      case Op::kRet:
      case Op::kHalt:
        return true;
      default:
        return false;
    }
  }

  /// True for direct transfers whose target is encoded in the instruction.
  [[nodiscard]] bool is_direct_transfer() const {
    return op == Op::kJmp || op == Op::kJcc || op == Op::kCall;
  }

  /// True for indirect transfers (register or stack-sourced target).
  [[nodiscard]] bool is_indirect_transfer() const {
    return op == Op::kJmpR || op == Op::kCallR || op == Op::kRet;
  }

  [[nodiscard]] bool is_call() const {
    return op == Op::kCall || op == Op::kCallR;
  }

  /// True if execution can fall through to the next sequential instruction.
  [[nodiscard]] bool has_fallthrough() const {
    switch (op) {
      case Op::kJmp:
      case Op::kJmpR:
      case Op::kRet:
      case Op::kHalt:
        return false;
      default:
        return true;  // kJcc falls through when not taken; calls return
    }
  }
};

/// Register/flag use-def summary for dependency tracking (the out-of-order
/// timing model). Bits 0..15 = r0..r15; bit 16 = the flags pseudo-register.
struct RegUse {
  uint32_t reads = 0;
  uint32_t writes = 0;
};
inline constexpr uint32_t kFlagsBit = 1u << 16;

/// Computes the registers (and flags) an instruction reads and writes,
/// including implicit uses: sp for stack operations, r0 for `sys 1`.
[[nodiscard]] RegUse reg_use(const Instr& instr);

/// Returns the encoded length in bytes for an opcode, or 0 if the byte is
/// not a valid opcode.
[[nodiscard]] uint8_t instr_length(uint8_t opcode_byte);

/// True if the byte value denotes a defined opcode.
[[nodiscard]] bool is_valid_opcode(uint8_t opcode_byte);

/// Mnemonic for an opcode (for the disassembler and diagnostics).
[[nodiscard]] std::string_view mnemonic(Op op);

/// Condition-code suffix ("eq", "ne", ...).
[[nodiscard]] std::string_view cond_name(Cond cond);

/// Parses a condition-code suffix; nullopt if unknown.
[[nodiscard]] std::optional<Cond> parse_cond(std::string_view name);

/// Parses a register name of the form "rN" or "sp"; nullopt if malformed.
[[nodiscard]] std::optional<uint8_t> parse_reg(std::string_view name);

/// Register name for diagnostics ("r0".."r13", "sp", "r15").
[[nodiscard]] std::string reg_name(uint8_t reg);

/// Maximum encoded instruction length.
inline constexpr uint8_t kMaxInstrLength = 6;

}  // namespace vcfr::isa
