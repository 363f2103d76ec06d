// Out-of-order core model — the paper's §IX future work, built so the
// VCFR machinery can be evaluated beyond the single-issue in-order design
// ("in the near future, we will explore and extend the idea to the
// out-of-order superscalar processor").
//
// This is a trace-driven OOO timing model in the classic style: the
// golden-model emulator supplies the committed instruction stream, and
// per-instruction times are composed through
//
//   fetch (width-limited, line-granular, branch-predicted)
//     -> dispatch (ROB-occupancy limited)
//     -> issue (register/memory dependences + functional-unit ports)
//     -> complete  -> in-order retire (width-limited).
//
// Wrong-path fetch is not simulated (trace-driven models cannot see it);
// its cost appears as the redirect bubble after a mispredicted branch
// completes — the standard approximation.
//
// All VCFR mechanisms are shared with the in-order model: BTB/RAS carry
// (randomized, original) pairs, every executed randomized transfer probes
// the DRC, walks stall only mispredict redirects, call-side rand lookups
// and bitmap updates stay off the critical path.
#pragma once

#include "sim/cpu.hpp"

namespace vcfr::sim {

struct OooConfig {
  cache::MemHierConfig mem{};
  core::DrcConfig drc{};
  core::RetBitmapConfig bitmap{};
  BpredConfig bpred{};
  power::EnergyParams energy{};

  uint32_t rob_size = 64;
  uint32_t width = 4;          // fetch/dispatch/retire bandwidth per cycle
  uint32_t alu_units = 3;      // pipelined
  uint32_t mul_units = 1;      // pipelined
  uint32_t div_units = 1;      // unpipelined
  uint32_t load_ports = 1;
  uint32_t store_ports = 1;
  uint32_t decode_latency = 3;
  uint32_t redirect_penalty = 3;
  uint32_t mul_latency = 3;
  uint32_t div_latency = 12;
  uint32_t ifetch_miss_initiation = 2;  // more MSHRs than the in-order core
};

/// Simulates `image` on the out-of-order core. Result fields have the
/// same meaning as sim::simulate's. The dedicated L2 DRC is an in-order
/// (CpuCore) ablation only: a non-zero `config.drc.l2_entries` throws
/// std::invalid_argument rather than being ignored.
[[nodiscard]] SimResult simulate_ooo(const binary::Image& image,
                                     uint64_t max_instructions,
                                     const OooConfig& config = {});

}  // namespace vcfr::sim
