#include "gadget/scanner.hpp"

#include <span>
#include <stdexcept>
#include <unordered_set>

#include "isa/encoding.hpp"

namespace vcfr::gadget {

using isa::Instr;
using isa::Op;

std::string_view kind_name(GadgetKind kind) {
  switch (kind) {
    case GadgetKind::kPopReg: return "pop-reg";
    case GadgetKind::kMovReg: return "mov-reg";
    case GadgetKind::kArith: return "arith";
    case GadgetKind::kLoad: return "load";
    case GadgetKind::kStore: return "store";
    case GadgetKind::kSys: return "sys";
    case GadgetKind::kOther: return "other";
  }
  return "?";
}

std::vector<uint32_t> Gadget::instr_addrs() const {
  std::vector<uint32_t> out;
  out.reserve(instrs.size());
  uint32_t a = addr;
  for (const auto& in : instrs) {
    out.push_back(a);
    a += in.length;
  }
  return out;
}

size_t ScanResult::count(GadgetKind kind) const {
  size_t n = 0;
  for (const auto& g : gadgets) {
    if (g.kind == kind) ++n;
  }
  return n;
}

namespace {

bool is_terminator(Op op) {
  return op == Op::kRet || op == Op::kJmpR || op == Op::kCallR;
}

GadgetKind classify_head(const Instr& head) {
  switch (head.op) {
    case Op::kPopR:
      return GadgetKind::kPopReg;
    case Op::kMovRR:
      return GadgetKind::kMovReg;
    case Op::kAddRR:
    case Op::kSubRR:
    case Op::kXorRR:
    case Op::kAndRR:
    case Op::kOrRR:
    case Op::kShlRR:
    case Op::kShrRR:
    case Op::kMulRR:
    case Op::kAddRI:
    case Op::kSubRI:
    case Op::kXorRI:
      return GadgetKind::kArith;
    case Op::kLd:
    case Op::kLdb:
      return GadgetKind::kLoad;
    case Op::kSt:
    case Op::kStb:
      return GadgetKind::kStore;
    case Op::kSys:
      return GadgetKind::kSys;
    default:
      return GadgetKind::kOther;
  }
}

}  // namespace

ScanResult scan(const binary::Image& image, const ScanOptions& options) {
  if (image.layout == binary::Layout::kNaiveIlr) {
    throw std::invalid_argument("gadget::scan: naive-ILR code does not run at its code addresses");
  }
  ScanResult result;
  const auto& code = image.code;
  result.bytes_scanned = code.size();

  // True instruction boundaries, for the aligned/unaligned statistic.
  std::unordered_set<uint32_t> starts;
  {
    size_t off = 0;
    while (off < code.size()) {
      const uint8_t len = isa::instr_length(code[off]);
      if (len == 0) break;
      starts.insert(image.code_base + static_cast<uint32_t>(off));
      off += len;
    }
  }

  for (size_t off = 0; off < code.size(); ++off) {
    // Decode forward from this byte; emit a gadget if a terminator appears
    // within the window. Direct transfers abort the window (the sequence
    // would leave the gadget).
    std::vector<Instr> seq;
    size_t cursor = off;
    for (uint32_t k = 0; k < options.max_instrs && cursor < code.size(); ++k) {
      const auto decoded =
          isa::decode(std::span(code.data() + cursor, code.size() - cursor));
      if (!decoded) break;
      seq.push_back(*decoded);
      cursor += decoded->length;
      if (is_terminator(decoded->op)) {
        Gadget g;
        g.addr = image.code_base + static_cast<uint32_t>(off);
        g.instrs = seq;
        g.kind = classify_head(seq.front());
        g.aligned = starts.contains(g.addr);
        if (g.aligned) {
          ++result.aligned_count;
        } else {
          ++result.unaligned_count;
        }
        result.gadgets.push_back(std::move(g));
        break;
      }
      if (decoded->is_direct_transfer() || decoded->op == Op::kHalt) break;
    }
  }
  return result;
}

SurvivalResult survival_after_randomization(
    const ScanResult& original_scan, const binary::TranslationTables& tables) {
  SurvivalResult result;
  result.before = original_scan.gadgets.size();
  for (const auto& g : original_scan.gadgets) {
    bool alive = true;
    for (uint32_t a : g.instr_addrs()) {
      // Under VCFR, control may enter the original space only through the
      // failover set (randomized tag clear). Any other original address —
      // including unaligned byte offsets — is an invalid transfer target.
      if (!tables.unrandomized.contains(a)) {
        alive = false;
        break;
      }
    }
    if (alive) result.surviving.push_back(g);
  }
  result.after = result.surviving.size();
  return result;
}

}  // namespace vcfr::gadget
