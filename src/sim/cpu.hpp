// Cycle-level model of the paper's machine (§VI-C): a 1.6 GHz single-issue
// in-order x86-style pipeline with detailed, stateful front-end and memory
// structures. It executes all three image layouts:
//
//   * kOriginal  — the no-randomization baseline;
//   * kNaiveIlr  — straightforward hardware ILR: fetch follows randomized
//                  addresses (address mapping itself is free, §III), so
//                  the penalty is purely the destroyed fetch locality;
//   * kVcfr      — the paper's proposal: fetch streams along the original
//                  space (UPC), the architectural control flow lives in the
//                  randomized space (RPC), and the DRC translates between
//                  them on demand.
//
// Timing model: the golden-model emulator supplies the exact dynamic
// instruction stream; the simulator charges cycle costs through stateful
// caches, TLBs, DRAM, predictors, and the DRC, composing per-instruction
// fetch/decode/issue/execute times with in-order single-issue constraints,
// an 18-entry instruction-queue fetch window, and a store buffer. This is
// an analytic pipeline over real structures (see DESIGN.md §2 for the
// XIOSim substitution rationale).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "binary/image.hpp"
#include "cache/memhier.hpp"
#include "core/drc.hpp"
#include "core/ret_bitmap.hpp"
#include "emu/emulator.hpp"
#include "power/energy.hpp"
#include "sim/bpred.hpp"
#include "telemetry/telemetry.hpp"

namespace vcfr::core {
class TranslationWalker;
}

namespace vcfr::profile {
class Profiler;
}  // namespace vcfr::profile

namespace vcfr::sim {

struct CpuConfig {
  cache::MemHierConfig mem{};
  core::DrcConfig drc{};
  core::RetBitmapConfig bitmap{};
  BpredConfig bpred{};
  power::EnergyParams energy{};

  uint32_t iq_size = 18;          // instruction queue (macro-ops)
  uint32_t store_buffer = 32;     // load/store queue entries used by stores
  /// Instructions issued per cycle. 1 = the paper's machine; >1 models a
  /// W-wide *in-order* superscalar — a first step toward the out-of-order
  /// design §IX names as future work (BENCH_paper.json's
  /// future_superscalar section).
  uint32_t issue_width = 1;
  uint32_t decode_latency = 3;    // pre-decode + decode + alloc
  uint32_t redirect_penalty = 2;  // mispredict pipeline refill bubble
  /// Minimum cycles between the starts of two instruction-fetch misses
  /// (MSHR-limited outstanding fetch misses; the full miss latency is
  /// overlapped with IQ drain rather than blocking the front end).
  uint32_t ifetch_miss_initiation = 3;
  uint32_t mul_latency = 3;
  uint32_t div_latency = 12;
  double clock_ghz = 1.6;
};

struct SimResult {
  std::string app;
  binary::Layout layout = binary::Layout::kOriginal;
  bool halted = false;
  std::string error;

  uint64_t instructions = 0;
  uint64_t cycles = 0;
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  [[nodiscard]] double cpi() const {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) /
                                   static_cast<double>(instructions);
  }

  cache::CacheStats il1;
  cache::CacheStats dl1;
  cache::CacheStats l2;
  cache::L2PressureStats l2_pressure;
  uint64_t prefetches_issued = 0;
  cache::TlbStats itlb;
  cache::TlbStats dtlb;
  dram::DramStats dram;
  BpredStats bpred;
  core::DrcStats drc;
  /// Populated only when DrcConfig::l2_entries > 0 (ablation mode).
  core::DrcStats drc_l2;
  uint64_t drc_table_walks = 0;
  core::RetBitmapStats ret_bitmap;
  power::PowerAccount power;
};

/// A resumable, stateful core: the pipeline/cache/predictor model that
/// `simulate()` used to keep in loop locals, promoted to an object so the
/// OS layer (src/os/) can time-slice several processes on one core. The
/// structural state — caches, DRC, predictors, return-bitmap cache, and
/// the cycle clock — persists across `install()` boundaries (pollution and
/// flush costs are the point); only the transient pipeline state (fetch
/// line, instruction-queue and store-buffer rings) is reset when a new
/// process is installed.
///
/// Constructed with a SharedL2Port, the core's private L2/DRAM are
/// bypassed and all L2-level traffic contends on the fleet's shared cache
/// (see cache/shared_l2.hpp for the deterministic round protocol).
class CpuCore {
 public:
  explicit CpuCore(const CpuConfig& config,
                   cache::SharedL2Port* shared_port = nullptr);

  /// Installs a process's execution context: layout semantics, the walker
  /// over its kernel-owned tables, and its address-space id for shared-L2
  /// tagging. Resets transient pipeline state anchored at `now()`. The DRC
  /// flush itself is the kernel's job (core::ContextManager) — hardware
  /// only provides the flush, policy lives above.
  void install(binary::Layout layout, core::TranslationWalker* walker,
               uint32_t asid);

  /// Runs up to `max_instructions` steps of `emulator`, charging timing.
  /// Returns the number of instructions retired (stops early on halt or
  /// fault).
  uint64_t run(emu::Emulator& emulator, uint64_t max_instructions);

  /// Pushes every timing horizon back by `cycles` — used by the fleet
  /// kernel for context-switch overhead and shared-L2 contention penalties
  /// discovered at round commit.
  void stall(uint64_t cycles);

  /// The core's clock: no new work can start before this cycle.
  [[nodiscard]] uint64_t now() const;

  [[nodiscard]] uint64_t retired() const { return retired_; }
  [[nodiscard]] uint64_t cycles() const { return last_done_ + 1; }
  [[nodiscard]] cache::MemHier& mem() { return mem_; }
  [[nodiscard]] core::Drc& drc() { return drc_; }
  [[nodiscard]] core::RetBitmapCache& ret_bitmap_cache() { return bitmap_; }

  /// Snapshot of every structural statistic plus the energy account, in
  /// SimResult form (app/layout/halted/error left for the caller).
  [[nodiscard]] SimResult harvest() const;

  /// Checkpoint support: the full structural + pipeline state. The walker
  /// pointer is process-owned and is NOT serialized — after a load the
  /// kernel rebinds it with rebind_walker() (install() would reset the
  /// transient pipeline and diverge timing).
  void state(binary::StateIo& io);
  /// Swaps the translation walker without touching pipeline state (the
  /// restored core resumes mid-stream against the restored process's
  /// walker; pointers are not serialized).
  void rebind_walker(core::TranslationWalker* walker) { walker_ = walker; }

  // ---- telemetry (all optional; disabled = a null-pointer test) --------
  /// Binds every structural statistic into `scope` (pipeline counters,
  /// the whole memory hierarchy, DRC, predictors, return bitmap) and
  /// creates this core's latency histograms.
  void register_stats(const telemetry::Scope& scope);
  /// Events (fetch stalls, DRC misses, table walks, bitmap misses) go to
  /// `lane`; pass nullptr to stop tracing.
  void attach_trace(telemetry::TraceLane* lane) { lane_ = lane; }
  /// The sampler is polled once per retired instruction — only attach in
  /// single-threaded use (the fleet kernel samples at round boundaries
  /// instead, since cores execute on parallel host threads).
  void attach_sampler(telemetry::Sampler* sampler) { sampler_ = sampler; }
  /// Attaches a guest profiler (nullptr detaches). Subsequent retires
  /// report their clock advance and cost components to it. Attribution is
  /// anchored at the *current* clock: cycles that passed before attachment
  /// (earlier tenants, kernel stalls) are not re-attributed, so the fleet
  /// kernel can re-attach each slice after charging its own overhead
  /// explicitly via Profiler::add_external. On a virgin core the anchor
  /// excludes the base cycle so attributed cycles total cycles() exactly.
  void attach_profiler(profile::Profiler* profiler) {
    prof_ = profiler;
    prof_seen_ = retired_ == 0 ? last_done_ : last_done_ + 1;
    prof_pend_redirect_ = prof_pend_walk_ = prof_pend_backing_ = 0;
  }

 private:
  void retire(const emu::StepInfo& si);
  uint32_t drc_resolve(uint32_t key, bool derand, uint64_t now);

  CpuConfig config_;
  cache::MemHier mem_;
  core::Drc drc_;
  std::unique_ptr<core::Drc> drc_l2_;
  core::RetBitmapCache bitmap_;
  Gshare gshare_;
  Btb btb_;
  Ras ras_;
  BpredStats bpstats_;
  core::TranslationWalker* walker_ = nullptr;
  bool vcfr_ = false;
  bool naive_ = false;
  uint32_t asid_ = 0;

  // Telemetry attachment points (null = disabled).
  telemetry::TraceLane* lane_ = nullptr;
  telemetry::Sampler* sampler_ = nullptr;
  telemetry::Histogram* walk_hist_ = nullptr;
  telemetry::Histogram* fetch_stall_hist_ = nullptr;

  // Guest profiler attachment (null = disabled). prof_seen_ is the clock
  // value already attributed; each retire reports the advance since then.
  profile::Profiler* prof_ = nullptr;
  uint64_t prof_seen_ = 0;
  // Critical-path components of the last drc_resolve call (for the
  // profiler's cause split between table walks and L2-buffer fills).
  uint32_t resolve_walk_ = 0;
  uint32_t resolve_backing_ = 0;
  // A mispredict's refill bubble (and any critical-path walk under it)
  // delays the *next* fetch, so its cycles surface in the next retire's
  // clock advance — carried here and reported with that retire.
  uint32_t prof_pend_redirect_ = 0;
  uint32_t prof_pend_walk_ = 0;
  uint32_t prof_pend_backing_ = 0;

  // Pipeline timing state (absolute cycles).
  uint64_t fetch_ready_ = 0;
  uint64_t last_issue_ = 0;
  uint32_t issued_in_cycle_ = 0;
  uint64_t block_until_ = 0;
  uint64_t last_done_ = 0;
  uint32_t cur_line_;
  std::vector<uint64_t> issue_ring_;
  std::vector<uint64_t> store_ring_;
  uint64_t store_head_ = 0;

  uint64_t retired_ = 0;
  uint64_t table_walks_ = 0;

  // Instruction-mix counters for the power model.
  uint64_t n_alu_ = 0, n_mul_ = 0, n_div_ = 0, n_mem_ = 0, n_branch_ = 0;
  uint64_t n_ras_ops_ = 0, n_btb_ops_ = 0;
};

/// Simulates `image` for up to `max_instructions` dynamic instructions (or
/// to completion). The image is loaded into a fresh memory. With a
/// `telemetry` session the core registers its stats under scope "core0",
/// traces to lane 0, and drives the sampler from its cycle clock.
[[nodiscard]] SimResult simulate(const binary::Image& image,
                                 uint64_t max_instructions,
                                 const CpuConfig& config = {},
                                 telemetry::Telemetry* telemetry = nullptr,
                                 profile::Profiler* profiler = nullptr);

}  // namespace vcfr::sim
