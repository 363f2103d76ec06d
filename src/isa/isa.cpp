#include "isa/isa.hpp"

namespace vcfr::isa {

RegUse reg_use(const Instr& in) {
  RegUse u;
  const uint32_t rd = 1u << in.rd;
  const uint32_t rs = 1u << in.rs;
  const uint32_t sp = 1u << kSp;
  switch (in.op) {
    case Op::kNop:
    case Op::kHalt:
    case Op::kJmp:
      break;
    case Op::kSys:
      if (in.imm == 1) u.reads |= 1u << 0;  // emits r0
      break;
    case Op::kOut:
    case Op::kJmpR:
      u.reads |= rd;
      break;
    case Op::kMovRR:
      u.reads |= rs;
      u.writes |= rd;
      break;
    case Op::kMovRI:
      u.writes |= rd;
      break;
    case Op::kLd:
    case Op::kLdb:
      u.reads |= rs;
      u.writes |= rd;
      break;
    case Op::kSt:
    case Op::kStb:
      u.reads |= rd | rs;
      break;
    case Op::kAddRR:
    case Op::kSubRR:
    case Op::kAndRR:
    case Op::kOrRR:
    case Op::kXorRR:
    case Op::kShlRR:
    case Op::kShrRR:
    case Op::kMulRR:
    case Op::kDivRR:
      u.reads |= rd | rs;
      u.writes |= rd | kFlagsBit;
      break;
    case Op::kAddRI:
    case Op::kSubRI:
    case Op::kAndRI:
    case Op::kOrRI:
    case Op::kXorRI:
    case Op::kShlRI:
    case Op::kShrRI:
    case Op::kMulRI:
      u.reads |= rd;
      u.writes |= rd | kFlagsBit;
      break;
    case Op::kCmpRR:
    case Op::kTestRR:
      u.reads |= rd | rs;
      u.writes |= kFlagsBit;
      break;
    case Op::kCmpRI:
      u.reads |= rd;
      u.writes |= kFlagsBit;
      break;
    case Op::kJcc:
      u.reads |= kFlagsBit;
      break;
    case Op::kCall:
      u.reads |= sp;
      u.writes |= sp;
      break;
    case Op::kCallR:
      u.reads |= rd | sp;
      u.writes |= sp;
      break;
    case Op::kRet:
      u.reads |= sp;
      u.writes |= sp;
      break;
    case Op::kPushR:
      u.reads |= rd | sp;
      u.writes |= sp;
      break;
    case Op::kPushI:
      u.reads |= sp;
      u.writes |= sp;
      break;
    case Op::kPopR:
      u.reads |= sp;
      u.writes |= rd | sp;
      break;
  }
  return u;
}

uint8_t instr_length(uint8_t opcode_byte) {
  switch (static_cast<Op>(opcode_byte)) {
    case Op::kNop:
    case Op::kHalt:
    case Op::kRet:
      return 1;
    case Op::kSys:
    case Op::kOut:
    case Op::kMovRR:
    case Op::kAddRR:
    case Op::kSubRR:
    case Op::kAndRR:
    case Op::kOrRR:
    case Op::kXorRR:
    case Op::kShlRR:
    case Op::kShrRR:
    case Op::kMulRR:
    case Op::kDivRR:
    case Op::kCmpRR:
    case Op::kTestRR:
    case Op::kJmpR:
    case Op::kCallR:
    case Op::kPushR:
    case Op::kPopR:
      return 2;
    case Op::kLd:
    case Op::kSt:
    case Op::kLdb:
    case Op::kStb:
      return 4;
    case Op::kJmp:
    case Op::kCall:
    case Op::kPushI:
      return 5;
    case Op::kMovRI:
    case Op::kAddRI:
    case Op::kSubRI:
    case Op::kAndRI:
    case Op::kOrRI:
    case Op::kXorRI:
    case Op::kShlRI:
    case Op::kShrRI:
    case Op::kMulRI:
    case Op::kCmpRI:
    case Op::kJcc:
      return 6;
  }
  return 0;
}

bool is_valid_opcode(uint8_t opcode_byte) {
  return instr_length(opcode_byte) != 0;
}

std::string_view mnemonic(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kHalt: return "halt";
    case Op::kSys: return "sys";
    case Op::kOut: return "out";
    case Op::kMovRR: return "mov";
    case Op::kMovRI: return "mov";
    case Op::kLd: return "ld";
    case Op::kSt: return "st";
    case Op::kLdb: return "ldb";
    case Op::kStb: return "stb";
    case Op::kAddRR: return "add";
    case Op::kSubRR: return "sub";
    case Op::kAndRR: return "and";
    case Op::kOrRR: return "or";
    case Op::kXorRR: return "xor";
    case Op::kShlRR: return "shl";
    case Op::kShrRR: return "shr";
    case Op::kMulRR: return "mul";
    case Op::kDivRR: return "div";
    case Op::kAddRI: return "add";
    case Op::kSubRI: return "sub";
    case Op::kAndRI: return "and";
    case Op::kOrRI: return "or";
    case Op::kXorRI: return "xor";
    case Op::kShlRI: return "shl";
    case Op::kShrRI: return "shr";
    case Op::kMulRI: return "mul";
    case Op::kCmpRR: return "cmp";
    case Op::kCmpRI: return "cmp";
    case Op::kTestRR: return "test";
    case Op::kJmp: return "jmp";
    case Op::kJcc: return "j";
    case Op::kJmpR: return "jmpr";
    case Op::kCall: return "call";
    case Op::kCallR: return "callr";
    case Op::kRet: return "ret";
    case Op::kPushR: return "push";
    case Op::kPushI: return "push";
    case Op::kPopR: return "pop";
  }
  return "?";
}

std::string_view cond_name(Cond cond) {
  switch (cond) {
    case Cond::kEq: return "eq";
    case Cond::kNe: return "ne";
    case Cond::kLt: return "lt";
    case Cond::kLe: return "le";
    case Cond::kGt: return "gt";
    case Cond::kGe: return "ge";
    case Cond::kB: return "b";
    case Cond::kAe: return "ae";
  }
  return "?";
}

std::optional<Cond> parse_cond(std::string_view name) {
  if (name == "eq") return Cond::kEq;
  if (name == "ne") return Cond::kNe;
  if (name == "lt") return Cond::kLt;
  if (name == "le") return Cond::kLe;
  if (name == "gt") return Cond::kGt;
  if (name == "ge") return Cond::kGe;
  if (name == "b") return Cond::kB;
  if (name == "ae") return Cond::kAe;
  return std::nullopt;
}

std::optional<uint8_t> parse_reg(std::string_view name) {
  if (name == "sp") return kSp;
  if (name.size() < 2 || name.size() > 3 || name[0] != 'r') {
    return std::nullopt;
  }
  int value = 0;
  for (char c : name.substr(1)) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
  }
  if (value >= kNumRegs) return std::nullopt;
  return static_cast<uint8_t>(value);
}

std::string reg_name(uint8_t reg) {
  if (reg == kSp) return "sp";
  std::string name = "r";
  name += std::to_string(static_cast<int>(reg));
  return name;
}

}  // namespace vcfr::isa
