#include "isa/disassembler.hpp"

#include <cstdio>
#include <stdexcept>

#include "isa/encoding.hpp"

namespace vcfr::isa {
namespace {

std::string hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%x", v);
  return buf;
}

}  // namespace

std::string format_instr(const Instr& in) {
  const std::string mn{mnemonic(in.op)};
  switch (in.op) {
    case Op::kNop:
    case Op::kHalt:
    case Op::kRet:
      return mn;
    case Op::kSys:
      return mn + " " + std::to_string(in.imm);
    case Op::kOut:
    case Op::kPushR:
    case Op::kPopR:
    case Op::kJmpR:
    case Op::kCallR:
      return mn + " " + reg_name(in.rd);
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
      return mn + " " + reg_name(in.rd) + ", " + reg_name(in.rs);
    case Op::kLd:
    case Op::kSt:
    case Op::kLdb:
    case Op::kStb: {
      std::string mem = "[";
      mem += reg_name(in.rs);
      if (in.disp > 0) mem += '+';
      if (in.disp != 0) mem += std::to_string(in.disp);
      mem += "]";
      return mn + " " + reg_name(in.rd) + ", " + mem;
    }
    case Op::kJmp:
    case Op::kCall:
      return mn + " " + hex32(in.imm);
    case Op::kPushI:
      return mn + " " + hex32(in.imm);
    case Op::kJcc: {
      std::string text = "j";
      text += cond_name(in.cond);
      return text + " " + hex32(in.imm);
    }
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
      return mn + " " + reg_name(in.rd) + ", " + std::to_string(in.imm);
  }
  return "?";
}

std::vector<DisasmEntry> disassemble(std::span<const uint8_t> bytes,
                                     uint32_t base) {
  std::vector<DisasmEntry> out;
  size_t off = 0;
  while (off < bytes.size()) {
    auto instr = decode(bytes.subspan(off));
    if (!instr) break;
    out.push_back({base + static_cast<uint32_t>(off), *instr});
    off += instr->length;
  }
  return out;
}

std::vector<DisasmEntry> disassemble(const binary::Image& image) {
  if (image.layout == binary::Layout::kNaiveIlr) {
    throw std::invalid_argument(
        "disassemble: naive-ILR code does not run at its code addresses");
  }
  return disassemble(image.code, image.code_base);
}

std::string listing(const binary::Image& image) {
  std::string out;
  for (const auto& e : disassemble(image)) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x: ", e.addr);
    out += buf;
    out += format_instr(e.instr);
    out += '\n';
  }
  return out;
}

}  // namespace vcfr::isa
