// Control-flow-graph recovery from a disassembled original-layout image.
//
// This mirrors the paper's offline static analysis (§IV-A): disassemble,
// find basic-block leaders with the leader algorithm, add edges for direct
// transfers and fall-throughs, and record indirect transfers for the
// target analyses in analysis.hpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "binary/image.hpp"
#include "isa/disassembler.hpp"

namespace vcfr::rewriter {

struct BasicBlock {
  uint32_t start = 0;          // address of the leader instruction
  uint32_t end = 0;            // one past the last byte of the block
  size_t first_instr = 0;      // index range into Cfg::instrs
  size_t num_instrs = 0;
  std::vector<uint32_t> successors;  // direct + fall-through targets
  bool ends_in_indirect = false;     // jmpr/callr/ret terminator
};

/// A function extent derived from `.func` symbols (sorted, half-open).
struct FunctionExtent {
  std::string name;
  uint32_t start = 0;
  uint32_t end = 0;
  bool has_ret = false;  // contains at least one ret instruction
};

struct Cfg {
  std::vector<isa::DisasmEntry> instrs;            // linear order
  std::unordered_map<uint32_t, size_t> instr_at;   // address -> index
  std::vector<BasicBlock> blocks;
  std::unordered_map<uint32_t, size_t> block_at;   // leader addr -> index
  std::vector<FunctionExtent> functions;

  [[nodiscard]] bool is_instr_start(uint32_t addr) const {
    // Most queried values (immediates, data words) are no code address at
    // all: the range test spares them the hash lookup.
    return !instrs.empty() && addr >= instrs.front().addr &&
           addr <= instrs.back().addr && instr_at.contains(addr);
  }
  /// Function extent containing `addr`, or nullptr.
  [[nodiscard]] const FunctionExtent* function_of(uint32_t addr) const;
};

/// Builds the CFG for an original-layout image.
/// Throws std::invalid_argument for randomized layouts.
[[nodiscard]] Cfg build_cfg(const binary::Image& image);

/// Graphviz export: one node per basic block (labelled with its address
/// range and instruction count), solid edges for direct/fall-through
/// successors, a dashed self-loop marker on indirect terminators.
[[nodiscard]] std::string to_dot(const Cfg& cfg);

}  // namespace vcfr::rewriter
