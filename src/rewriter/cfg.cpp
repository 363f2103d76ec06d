#include "rewriter/cfg.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace vcfr::rewriter {

using isa::Op;

const FunctionExtent* Cfg::function_of(uint32_t addr) const {
  auto it = std::upper_bound(
      functions.begin(), functions.end(), addr,
      [](uint32_t a, const FunctionExtent& f) { return a < f.start; });
  if (it == functions.begin()) return nullptr;
  --it;
  return addr < it->end ? &*it : nullptr;
}

Cfg build_cfg(const binary::Image& image) {
  if (image.layout != binary::Layout::kOriginal) {
    throw std::invalid_argument("build_cfg: requires an original-layout image");
  }

  Cfg cfg;
  cfg.instrs = isa::disassemble(image);
  if (cfg.instrs.empty()) return cfg;
  cfg.instr_at.reserve(cfg.instrs.size());
  for (size_t i = 0; i < cfg.instrs.size(); ++i) {
    cfg.instr_at.emplace(cfg.instrs[i].addr, i);
  }

  // --- leaders (the classic leader algorithm, §IV-A) -----------------------
  const size_t n = cfg.instrs.size();
  std::vector<uint8_t> leader(n, 0);  // by instruction index
  auto add_leader = [&](uint32_t addr) {
    if (auto it = cfg.instr_at.find(addr); it != cfg.instr_at.end()) {
      leader[it->second] = 1;
    }
  };
  add_leader(image.entry);
  for (const auto& f : image.functions) add_leader(f.addr);
  // Code pointers recorded in relocations are potential indirect targets.
  for (const auto& r : image.relocs) {
    add_leader(image.read_data32(r.data_addr));
  }
  for (size_t i = 0; i < n; ++i) {
    const auto& e = cfg.instrs[i];
    if (e.instr.is_direct_transfer()) add_leader(e.instr.imm);
    if (e.instr.is_control() && i + 1 < n) leader[i + 1] = 1;
  }

  // --- blocks ---------------------------------------------------------------
  for (size_t i = 0; i < n;) {
    BasicBlock block;
    block.start = cfg.instrs[i].addr;
    block.first_instr = i;
    size_t j = i;
    while (j < n) {
      const auto& e = cfg.instrs[j];
      ++j;
      if (e.instr.is_control()) break;
      if (j < n && leader[j]) break;
    }
    const auto& last = cfg.instrs[j - 1];
    block.num_instrs = j - block.first_instr;
    block.end = last.addr + last.instr.length;
    block.ends_in_indirect = last.instr.is_indirect_transfer();

    // Direct edges.
    if (last.instr.is_direct_transfer()) {
      block.successors.push_back(last.instr.imm);
    }
    // Fall-through edges for everything that does not unconditionally leave.
    if (last.instr.has_fallthrough() && j < n) {
      block.successors.push_back(cfg.instrs[j].addr);
    }
    cfg.block_at.emplace(block.start, cfg.blocks.size());
    cfg.blocks.push_back(std::move(block));
    i = j;
  }

  // --- function extents ------------------------------------------------------
  std::vector<binary::FunctionSymbol> symbols = image.functions;
  std::sort(symbols.begin(), symbols.end(),
            [](const auto& a, const auto& b) { return a.addr < b.addr; });
  for (size_t i = 0; i < symbols.size(); ++i) {
    FunctionExtent f;
    f.name = symbols[i].name;
    f.start = symbols[i].addr;
    f.end = i + 1 < symbols.size() ? symbols[i + 1].addr : image.code_end();
    cfg.functions.push_back(std::move(f));
  }
  for (const auto& e : cfg.instrs) {
    if (e.instr.op != Op::kRet) continue;
    auto it = std::upper_bound(
        cfg.functions.begin(), cfg.functions.end(), e.addr,
        [](uint32_t a, const FunctionExtent& f) { return a < f.start; });
    if (it != cfg.functions.begin()) {
      --it;
      if (e.addr < it->end) it->has_ret = true;
    }
  }
  return cfg;
}

std::string to_dot(const Cfg& cfg) {
  std::string out = "digraph cfg {\n  node [shape=box fontname=monospace];\n";
  char buf[160];
  for (const auto& block : cfg.blocks) {
    const FunctionExtent* f = cfg.function_of(block.start);
    std::snprintf(buf, sizeof buf,
                  "  b%x [label=\"%s0x%x..0x%x\\n%zu instrs\"];\n",
                  block.start, f && f->start == block.start
                                   ? (f->name + "\\n").c_str()
                                   : "",
                  block.start, block.end, block.num_instrs);
    out += buf;
    for (uint32_t succ : block.successors) {
      std::snprintf(buf, sizeof buf, "  b%x -> b%x;\n", block.start, succ);
      out += buf;
    }
    if (block.ends_in_indirect) {
      std::snprintf(buf, sizeof buf,
                    "  b%x -> b%x [style=dashed label=\"indirect\"];\n",
                    block.start, block.start);
      out += buf;
    }
  }
  out += "}\n";
  return out;
}

}  // namespace vcfr::rewriter
