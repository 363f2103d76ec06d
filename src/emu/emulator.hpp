// Functional (architectural) emulator for VX images.
//
// This is the golden model: it defines the semantics of all three image
// layouts (original, naive-ILR, VCFR) and is reused by the cycle simulator,
// which wraps timing around the per-step trace records produced here.
//
// VCFR semantics implemented (paper §IV):
//  * the architectural PC (RPC) lives in the randomized instruction space;
//    the execution cursor (UPC) is its de-randomized image, and instruction
//    bytes are fetched at UPC from the original layout;
//  * direct-transfer targets in the binary are randomized-space addresses
//    and are de-randomized through the translation tables;
//  * calls push the randomized return address when the site was randomized;
//    a stack bitmap remembers which slots hold randomized return addresses;
//  * loads (ld/pop) from bitmap-marked slots are automatically
//    de-randomized, supporting the PIC call/pop idiom and stack walks
//    (§IV-C); stores to marked slots clear the mark.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "binary/flat_set.hpp"
#include "binary/image.hpp"
#include "binary/loader.hpp"
#include "emu/taint.hpp"
#include "fault/fault.hpp"
#include "isa/isa.hpp"

namespace vcfr::profile {
class Profiler;
}  // namespace vcfr::profile

namespace vcfr::emu {

/// Architectural register/flag state.
struct ArchState {
  std::array<uint32_t, isa::kNumRegs> regs{};
  bool zf = false, nf = false, cf = false, vf = false;
  /// Architectural PC. For kNaiveIlr/kVcfr this is a randomized-space
  /// address; for kOriginal it equals the original-space address.
  uint32_t pc = 0;
};

/// Per-instruction trace record for the cycle simulator.
struct StepInfo {
  uint32_t rpc = 0;   // architectural address of this instruction
  uint32_t upc = 0;   // original-space address (== rpc when not randomized)
  isa::Instr instr;
  uint32_t next_rpc = 0;
  uint32_t next_upc = 0;
  bool is_taken_transfer = false;  // control left the sequential path

  bool has_mem = false;  // data-memory access (ld/st/push/pop/call/ret)
  uint32_t mem_addr = 0;
  bool mem_is_store = false;
  /// For calls: the return-address value pushed onto the stack (randomized
  /// when the site is randomized). Consumed by the simulator's RAS model.
  uint32_t call_push_value = 0;

  // VCFR translation events (all false for other layouts):
  bool needs_derand = false;  // target de-randomization, key = derand_key
  uint32_t derand_key = 0;
  bool needs_rand = false;    // return-address randomization, key = rand_key
  uint32_t rand_key = 0;
  bool bitmap_load = false;   // auto-de-randomized load of a marked slot
};

/// Counters the functional model maintains (security-relevant events).
struct EmuStats {
  uint64_t instructions = 0;
  uint64_t calls = 0;
  uint64_t returns = 0;
  uint64_t indirect_transfers = 0;
  uint64_t derand_events = 0;
  uint64_t rand_events = 0;
  uint64_t bitmap_autoderand_loads = 0;
  /// Transfers whose target is an original-space address that had been
  /// randomized away (would trip the paper's "randomized tag" check).
  uint64_t tag_violations = 0;
};

struct RunLimits {
  uint64_t max_instructions = 200'000'000;
  size_t max_output = 1u << 20;
  bool enforce_tags = false;  // see Emulator::set_enforce_tags
};

/// Host-side decoded-instruction cache counters. These are *not*
/// architectural statistics: the cache only skips redundant host work
/// (fetch, decode, translation-map probes) and can never change a
/// simulated result. Deterministic for a deterministic run, so they are
/// safe to register with the stat registry. A fill is valid exactly while
/// the memory's code generation it was filled at is current.
struct DecodeCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Fills evicted because the memory's code generation moved (self-
  /// modifying code, or any re-randomization firing, full or incremental).
  /// Tag-conflict evictions count as plain misses.
  uint64_t invalidations = 0;
};

struct RunResult {
  bool halted = false;          // reached halt/sys-exit
  /// Typed fault record; trap.kind == kNone when the run did not fault.
  fault::Trap trap;
  /// Rendered trap (trap.describe()); kept for callers that print or
  /// byte-compare the legacy string form.
  std::string error;
  EmuStats stats;
  std::vector<uint32_t> output;
  uint64_t mem_checksum = 0;
  ArchState final_state;
};

class Emulator {
 public:
  /// Default decoded-instruction cache size: 4096 lines (160 KB). A
  /// standalone emulator (sim::simulate, the CLI, the BENCH drivers) uses
  /// it, and BENCH_hotpath pins its hit and miss counts.
  static constexpr uint32_t kDefaultDecodeCacheEntries = 4096;

  /// The image must already be loaded into `mem` (binary::load). Both are
  /// referenced, not copied: live re-randomization (emu/rerandomize.hpp)
  /// patches them in place and this emulator keeps running over them.
  /// `decode_cache_entries` sizes the direct-mapped decode cache; it must
  /// be a power of two of at least 2 (std::invalid_argument otherwise).
  /// os::Process sizes each tenant's cache to its program.
  Emulator(const binary::Image& image, binary::Memory& mem,
           uint32_t decode_cache_entries = kDefaultDecodeCacheEntries);

  /// Enables the hardware's randomized-tag enforcement (§IV-A): for VCFR
  /// images, any control transfer into the original code space whose
  /// target is not in the un-randomized failover set faults instead of
  /// executing. Off by default so compatibility studies can count
  /// would-be violations without dying.
  void set_enforce_tags(bool on) { enforce_tags_ = on; }

  /// Toggles the host-side decoded-instruction cache (on by default).
  /// Steady-state step() then skips fetch, decode, and every translation-
  /// map probe on the sequential path for instructions whose (rpc,
  /// code-generation) pair is cached. Architectural results and every
  /// StepInfo record are bit-identical either way — the differential
  /// tests in tests/test_hotpath.cpp pin this.
  void set_decode_cache(bool on) { dcache_on_ = on; }
  [[nodiscard]] const DecodeCacheStats& decode_cache_stats() const {
    return dcache_stats_;
  }
  [[nodiscard]] size_t decode_cache_entries() const { return dcache_.size(); }

  /// Toggles address-taint tracking (off by default; emu/taint.hpp).
  /// Pure shadow state: architectural results, outputs, and simulated
  /// cycles are byte-identical with tracking on or off — the tracker only
  /// *observes* randomized-layout secrets flowing toward program output.
  /// Turning tracking on clears any previous shadow state.
  void set_taint_tracking(bool on) {
    taint_on_ = on;
    if (on) {
      reg_taint_.fill(TaintTag{});
      mem_taint_.clear();
      leaks_.clear();
    }
  }
  /// Stamps subsequently-seeded tags with the owning placement epoch so a
  /// leak's provenance names the placement whose secret escaped.
  void set_taint_epoch(uint64_t epoch) { taint_epoch_ = epoch; }
  [[nodiscard]] const TaintStats& taint_stats() const { return taint_stats_; }
  /// Leak records since the last drain (bounded; see kMaxLeakRecords).
  [[nodiscard]] const std::vector<LeakRecord>& leaks() const { return leaks_; }
  /// Moves the pending leak records out (the kernel drains each
  /// bookkeeping pass and attaches pid/request provenance).
  [[nodiscard]] std::vector<LeakRecord> drain_leaks() {
    std::vector<LeakRecord> out = std::move(leaks_);
    leaks_.clear();
    return out;
  }

  /// Attaches (or detaches, with nullptr) a guest profiler. The functional
  /// model has no clock, so each retired instruction is reported as one
  /// cycle of issue time; cycle-level attribution comes from sim::CpuCore.
  /// Costs one pointer test per step when detached; the decode-cache fast
  /// path is unaffected.
  void set_profiler(profile::Profiler* profiler) { prof_ = profiler; }

  /// Executes one instruction. Returns false when execution has ended
  /// (halted or faulted) and no instruction was executed. When `info` is
  /// non-null it receives the step's trace record.
  bool step(StepInfo* info = nullptr);

  /// Runs to completion (halt, fault, or instruction limit).
  RunResult run(const RunLimits& limits = {});

  [[nodiscard]] bool halted() const { return halted_; }
  /// True when execution ended on a typed fault.
  [[nodiscard]] bool faulted() const { return !trap_.ok(); }
  /// The typed fault record (kind == kNone while execution is clean).
  [[nodiscard]] const fault::Trap& trap() const { return trap_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const ArchState& state() const { return state_; }
  [[nodiscard]] ArchState& state() { return state_; }
  [[nodiscard]] const EmuStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<uint32_t>& output() const { return output_; }
  [[nodiscard]] const binary::Image& image() const { return image_; }

  /// Stack slots currently holding randomized return addresses — the
  /// architectural bitmap (§IV-C). Live re-randomization uses this to
  /// locate exactly the words that must be re-translated.
  [[nodiscard]] const binary::FlatSet32& ret_bitmap() const {
    return ret_bitmap_;
  }

  /// Checkpoint support: full architectural state (registers, flags, PC,
  /// stats, output, ret bitmap, halt/trap state). The decoded-instruction
  /// cache is host-only and never serialized; loading empties it so
  /// a reused emulator cannot serve pre-restore decodings.
  void state(binary::StateIo& io);

  // ---- fault-injection hooks (src/fault/) --------------------------------
  /// Flips the architectural ret-bitmap state of `addr`: a marked slot
  /// loses its mark (its randomized return address will no longer be
  /// auto-de-randomized), an unmarked slot gains one. Returns true when
  /// the slot was marked before the flip. This models a bit flip in the
  /// hardware bitmap storage and is only meaningful for kVcfr images.
  bool corrupt_ret_bitmap(uint32_t addr) {
    if (ret_bitmap_.erase(addr)) return true;
    ret_bitmap_.insert(addr);
    return false;
  }

  /// Raises an externally-decided fault (kernel watchdog kill, injected
  /// kill). Execution refuses further steps exactly as for an
  /// architectural fault.
  void raise_external(fault::FaultKind kind, uint32_t detail = 0) {
    raise(kind, detail);
  }

 private:
  /// One direct-mapped decoded-instruction cache line: everything the
  /// fetch/decode/translate front half of step() produces for an rpc.
  struct DecodedEntry {
    uint32_t rpc = 0xffffffffu;  // tag; 0xffffffff = empty
    uint32_t upc = 0;
    uint32_t seq_next = 0;  // sequential_next() result for this rpc
    uint32_t seq_upc = 0;   // to_upc(seq_next): next_upc off a transfer
    uint64_t gen = 0;       // Memory::code_version() at fill time
    isa::Instr instr{};
  };
  // Every emulator value-initializes its whole cache (a fleet tenant's is
  // 256-4096 lines, sized to its program): keep the line at 40 bytes.
  static_assert(sizeof(DecodedEntry) == 40);

  /// Leak-record ring bound: stats keep exact counts past the cap, only
  /// the per-record provenance is dropped (fleet callers drain every
  /// bookkeeping pass, far below this).
  static constexpr size_t kMaxLeakRecords = 1u << 16;

  void raise(fault::FaultKind kind, uint32_t detail);
  /// Shadow-state bookkeeping for one retired instruction; called from
  /// the execute half of step() only when taint_on_ (the decode-cache
  /// front half is untouched either way).
  void track_taint(const StepInfo& si, const isa::Instr& in);
  void taint_sink(LeakSink sink, const TaintTag& tag, uint32_t sink_rpc);
  [[nodiscard]] uint32_t to_upc(uint32_t rpc) const;
  [[nodiscard]] uint32_t sequential_next(uint32_t rpc, uint32_t upc,
                                         uint8_t len) const;
  void set_flags_logic(uint32_t result);
  void set_flags_sub(uint32_t a, uint32_t b);
  [[nodiscard]] bool eval_cond(isa::Cond cond) const;
  void push32(uint32_t value);
  uint32_t pop32();

  const binary::Image& image_;
  binary::Memory& mem_;
  ArchState state_;
  EmuStats stats_;
  std::vector<uint32_t> output_;
  /// Stack slots currently holding randomized return addresses (§IV-C
  /// bitmap). Keyed by address; only meaningful for kVcfr.
  binary::FlatSet32 ret_bitmap_;
  bool halted_ = false;
  bool enforce_tags_ = false;
  /// Typed fault state; error_ caches trap_.describe() so error() can
  /// keep returning a reference.
  fault::Trap trap_;
  std::string error_;
  uint64_t max_output_ = 1u << 20;

  std::vector<DecodedEntry> dcache_;
  /// Index shift: 32 - log2(dcache_.size()).
  uint32_t dcache_shift_ = 0;
  /// Decode target when the cache is off (never tagged, never hit).
  DecodedEntry uncached_;
  bool dcache_on_ = true;
  DecodeCacheStats dcache_stats_;
  profile::Profiler* prof_ = nullptr;

  // ---- address-taint shadow state (emu/taint.hpp) -----------------------
  bool taint_on_ = false;
  uint64_t taint_epoch_ = 0;
  std::array<TaintTag, isa::kNumRegs> reg_taint_{};
  /// Tracked memory words, keyed by word-aligned address (addr & ~3).
  std::unordered_map<uint32_t, TaintTag> mem_taint_;
  TaintStats taint_stats_;
  std::vector<LeakRecord> leaks_;
};

/// Convenience: load + run an image on a fresh memory.
[[nodiscard]] RunResult run_image(const binary::Image& image,
                                  const RunLimits& limits = {});

}  // namespace vcfr::emu
