// Guest-level profiler: cycle attribution folded back to original-space
// function names (the measurement behind the paper's Figs. 13-14).
//
// The telemetry subsystem (PR 2) answers "how many DRC misses happened";
// this subsystem answers "which guest function paid for them". It keeps:
//
//   * a shadow call stack over the dynamic instruction stream, maintained
//     from the golden model's StepInfo records (calls push, returns pop,
//     tail transfers re-sync the leaf) and folded to original-space (UPC)
//     function extents — VCFR images keep their code bytes and function
//     symbols in the original layout, so UPC resolution works unchanged
//     under randomization;
//   * a flame tree (call-path -> exclusive cycles) behind the shadow
//     stack, exported in Brendan Gregg's collapsed-stack text form;
//   * per-function and global cause buckets: every simulated cycle is
//     attributed to exactly one cause (issue, L1-I miss, DRC miss, table
//     walk, ret-bitmap probe, branch redirect, context switch, shared-L2
//     contention) so the buckets sum to the core's cycle count — the
//     conservation property tests/test_profile.cpp pins;
//   * RPC-keyed basic-block hotness with annotated disassembly for the
//     top-N report.
//
// The profiler is pure observation: it never changes a simulated result,
// costs one pointer test when detached (emu::Emulator::set_profiler,
// sim::CpuCore::attach_profiler), and all exports are byte-identical
// across same-seed runs.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "binary/image.hpp"
#include "emu/emulator.hpp"

namespace vcfr::profile {

/// Where a simulated cycle went. The first seven are per-instruction
/// pipeline causes; the last two are kernel-attributed externals (fleet
/// context-switch overhead and shared-L2 round-commit penalties).
enum class Cause : uint8_t {
  kIssue = 0,       // base issue/execute occupancy (everything unclaimed)
  kIl1Miss,         // instruction-fetch miss latency
  kDmem,            // data-side L1 miss stall
  kDrcMiss,         // DRC miss filled from the dedicated L2 backing buffer
  kTableWalk,       // DRC miss walked through the memory hierarchy
  kRetBitmap,       // ret-bitmap cache probe extra latency (SIV-C loads)
  kRedirect,        // mispredict pipeline-refill bubble
  kContextSwitch,   // kernel context-switch overhead (fleet only)
  kL2Contention,    // shared-L2 queue/underestimate penalty (fleet only)
};
inline constexpr size_t kNumCauses = 9;

[[nodiscard]] std::string_view cause_name(Cause cause);
[[nodiscard]] std::string_view layout_name(binary::Layout layout);

/// Per-retire cost components gathered by the cycle simulator. `delta` is
/// the cycles the core's clock advanced for this retire; the components
/// may overlap each other and the delta (the pipeline hides latency), so
/// the profiler claims them greedily against the delta in decreasing
/// specificity — whatever no component claims is issue time. The golden
/// model (no clock) reports delta=1 and no components.
struct RetireCosts {
  uint64_t delta = 0;
  uint32_t il1 = 0;          // instruction-fetch miss latency
  uint32_t dmem = 0;         // data-side L1 miss latency
  uint32_t bitmap = 0;       // ret-bitmap probe extra latency
  uint32_t drc_backing = 0;  // critical-path DRC fill from the L2 buffer
  uint32_t walk = 0;         // critical-path DRC table walk
  uint32_t redirect = 0;     // mispredict refill bubble
};

/// Export header: identifies the run and carries the conservation target
/// (`expected_cycles` — the core's cycle count; the export's "conserved"
/// flag records whether the attributed cycles match it exactly).
struct ProfileMeta {
  std::string app;
  std::string layout;
  uint64_t seed = 0;
  uint64_t expected_cycles = 0;
};

class Profiler {
 public:
  /// `image` must outlive the profiler. Function extents are built from
  /// its symbol table (original-space addresses — identical between an
  /// original image and its VCFR sibling); the hot-block report
  /// disassembles its code bytes.
  explicit Profiler(const binary::Image& image);

  /// One retired instruction: updates the shadow stack, attributes
  /// `costs.delta` cycles to the leaf function and cause buckets, and
  /// counts basic-block hotness.
  void on_retire(const emu::StepInfo& si, const RetireCosts& costs);

  /// Cycles the guest paid outside its own retire stream (context-switch
  /// overhead, commit penalties). Attributed to the pseudo-function
  /// "[external]" so totals stay conserved.
  void add_external(Cause cause, uint64_t cycles);

  /// Shared-L2 commit penalty blamed on `aggressor_asid` (the tenant whose
  /// request held the port / perturbed DRAM). Records the external cycles
  /// under kL2Contention and the per-aggressor breakdown.
  void add_l2_contention(uint32_t aggressor_asid, uint64_t cycles);

  [[nodiscard]] uint64_t instructions() const { return instructions_; }
  /// Total cycles attributed (retire deltas + externals). Equals the
  /// core's cycle count when the driver anchored attribution correctly.
  [[nodiscard]] uint64_t attributed_cycles() const { return attributed_; }
  [[nodiscard]] uint64_t cause_cycles(Cause cause) const {
    return causes_[static_cast<size_t>(cause)];
  }
  /// Fraction of guest cycles (externals excluded) resolved to a named
  /// function. 1.0 when nothing ran.
  [[nodiscard]] double resolved_fraction() const;
  [[nodiscard]] const std::map<uint32_t, uint64_t>& l2_contention_by_asid()
      const {
    return contention_by_asid_;
  }

  /// Per-function aggregate, sorted by cycles descending (address
  /// ascending as the tie-break). Pseudo-functions "[unknown]" (samples
  /// outside any extent) and "[external]" appear when non-empty.
  struct FunctionProfile {
    std::string name;
    uint32_t addr = 0;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    std::array<uint64_t, kNumCauses> causes{};
  };
  [[nodiscard]] std::vector<FunctionProfile> functions() const;

  /// Deterministic JSON profile (docs/OBSERVABILITY.md documents the
  /// schema). No trailing newline — composable as a nested value.
  [[nodiscard]] std::string to_json(const ProfileMeta& meta,
                                    size_t top_blocks = 10) const;
  /// Collapsed-stack flamegraph text ("main;foo;bar 123\n" per call path,
  /// exclusive cycles, lexicographically sorted).
  [[nodiscard]] std::string to_collapsed() const;
  /// Top-N hot basic blocks with annotated disassembly.
  [[nodiscard]] std::string to_hot_blocks(const ProfileMeta& meta,
                                          size_t top_blocks) const;

 private:
  /// One resolved function extent [addr, end) in original space.
  struct Extent {
    uint32_t addr = 0;
    uint32_t end = 0;
    uint32_t sym = 0;  // index into image_.functions
  };
  /// One flame-tree node: a distinct (caller path, function) pair.
  struct Node {
    int32_t parent = -1;  // node id, -1 = root
    int32_t func = -1;    // extent index, -1 = unresolved
    uint64_t cycles = 0;
    uint64_t instructions = 0;
  };
  struct FuncAgg {
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    std::array<uint64_t, kNumCauses> causes{};
  };
  struct Block {
    uint64_t count = 0;   // executions of the leader instruction
    uint64_t cycles = 0;  // cycles across the whole block
    uint32_t upc = 0;     // original-space address of the leader
  };
  static constexpr size_t kMaxDepth = 4096;

  /// The original-space address of a retired instruction's upc.
  [[nodiscard]] uint32_t original_pc(uint32_t upc) const;
  [[nodiscard]] int32_t func_of(uint32_t upc) const;
  [[nodiscard]] int32_t intern_node(int32_t parent, int32_t func);
  [[nodiscard]] FuncAgg& agg_of(int32_t func) {
    return funcs_[func < 0 ? unknown_slot_ : static_cast<size_t>(func)];
  }
  [[nodiscard]] std::string func_name(int32_t func) const;

  const binary::Image& image_;
  std::vector<Extent> extents_;
  std::vector<FuncAgg> funcs_;  // extents + [unknown] + [external]
  size_t unknown_slot_ = 0;
  size_t external_slot_ = 0;

  std::vector<Node> nodes_;
  std::unordered_map<uint64_t, int32_t> node_memo_;  // (parent,func) -> id
  std::vector<int32_t> stack_;
  /// Calls not pushed because the stack hit kMaxDepth; matching returns
  /// decrement instead of popping.
  uint64_t depth_overflow_ = 0;

  std::unordered_map<uint32_t, Block> blocks_;  // keyed by leader RPC
  Block* cur_block_ = nullptr;
  bool next_is_leader_ = true;

  std::array<uint64_t, kNumCauses> causes_{};
  std::map<uint32_t, uint64_t> contention_by_asid_;
  uint64_t instructions_ = 0;
  uint64_t attributed_ = 0;
};

}  // namespace vcfr::profile
