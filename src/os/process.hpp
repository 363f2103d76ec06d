// A VCFR process as the simulated kernel sees it (§IV-B / §V-C).
//
// Each process owns an independently randomized image of its workload —
// its own placement seed, translation tables, loaded memory, and
// architectural state — exactly the per-process context the paper says the
// kernel must carry ("the main impact is to extend application context to
// include the de-randomization/randomization tables"). The original binary
// and its seed-independent analysis are not per-process: every process of
// one (workload, scale) shares its kernel's immutable rewriter::Program and
// only places it under its own seeds. The scheduler
// time-slices processes onto cores; on every slice boundary the kernel
// decides whether the DRC/bitmap flush of a context switch is due and
// whether the process's re-randomization policy fires.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "binary/image.hpp"
#include "binary/loader.hpp"
#include "core/context.hpp"
#include "core/translation.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "rewriter/randomizer.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::os {

/// When and how to re-randomize the process (§V-C + continuous re-rand).
/// Defaults reproduce the legacy behavior bit-exactly: periodic-only
/// trigger, full rebuild, eager flush, unlimited deferrals.
struct RerandomizePolicy {
  /// Periodic trigger: fire every N slices. 0 = never.
  uint32_t every_slices = 0;

  /// How a firing rebuilds the placement.
  enum class Rebuild : uint8_t {
    /// Legacy: a fresh full placement, every table entry rewritten.
    kFull = 0,
    /// Continuous (MARDU-style): re-place only a deterministic selection
    /// of code pages against the previous placement.
    kIncremental = 1,
  };
  Rebuild rebuild = Rebuild::kFull;

  /// Incremental only: percent of movable code pages re-placed per
  /// periodic firing (>= 100 = all). Trap-triggered firings always
  /// re-place everything.
  uint32_t region_percent = 25;

  /// Keep warm micro-architectural state across a firing: DRC lines and
  /// decode-cache entries carry a re-rand epoch tag and revalidate lazily
  /// on lookup instead of being flushed eagerly. Off = legacy full flush.
  bool epoch_tags = false;

  /// Re-rand-on-trap: an attack-signal fault (kBadOpcode, kUnmappedFetch,
  /// kTranslationMismatch) schedules an immediate fresh placement for the
  /// victim's next life/slice.
  bool on_trap = false;

  /// Re-rand-on-leak: a taint sink firing (a randomized-layout secret
  /// reached program output — the disclosure that precedes a
  /// derandomization attack) schedules a fresh placement exactly as a
  /// trap does, re-keying the disclosed layout before it can be used.
  /// Requires taint tracking (ProcessConfig.taint); scope is honored.
  bool on_leak = false;

  /// Who re-randomizes when a trap fires.
  enum class Scope : uint8_t {
    kProc = 0,   // the victim only
    kFleet = 1,  // the victim plus every live co-tenant
  };
  Scope scope = Scope::kProc;

  /// Deferral cap: after K consecutive quiescence deferrals the next
  /// firing forces the swap, keeping register-held randomized addresses
  /// alive as derand aliases. 0 = defer forever (legacy starvation).
  uint32_t max_defer = 0;
};

/// Work accounting for the most recent successful re-randomization.
struct RerandWork {
  uint32_t regions = 0;  // code pages re-placed
  uint64_t entries = 0;  // table/code/data/stack entries patched
  bool forced = false;   // deferral cap forced quiescence via aliases
  bool incremental = false;
};

/// What the kernel does when a process leaves the fleet (MARDU-style
/// re-randomize-on-crash): a restarted process re-images from scratch
/// with a *fresh* placement seed, so the attacker's knowledge of the
/// crashed layout is worthless against the replacement.
struct RestartPolicy {
  enum class Mode : uint8_t {
    kNever = 0,    // crashed processes stay down (default)
    kOnFault = 1,  // restart after a typed fault or watchdog kill
    kAlways = 2,   // also restart clean halts (a resident service)
  };
  Mode mode = Mode::kNever;
  /// Lifetime cap on restarts per process.
  uint32_t max_restarts = 3;
  /// Scheduler rounds before the first restart; doubles per restart
  /// (exponential backoff). 0 = restart on the next round.
  uint64_t backoff_rounds = 8;
};

struct ProcessConfig {
  std::string workload = "gcc";
  int scale = 1;
  uint64_t seed = 1;
  /// Architectural instruction budget *per life*; the process parks as
  /// finished when it halts, faults, or exhausts this.
  uint64_t max_instructions = 200'000'000;
  RerandomizePolicy rerandomize{};
  /// Randomized-tag enforcement (§IV-A) — on, as a production kernel would
  /// run it.
  bool enforce_tags = true;
  RestartPolicy restart{};
  /// Kernel watchdog: kill (typed kWatchdog) once a life retires this many
  /// instructions without halting. 0 = off. Must be < max_instructions to
  /// ever fire before the budget parks the process.
  uint64_t watchdog_instructions = 0;
  /// Armed fault injection (fires once, at inject.at_instruction retired
  /// instructions of the first life).
  fault::FaultPlan inject{};
  bool inject_enabled = false;
  /// Address-taint tracking (emu/taint.hpp): observer-neutral shadow
  /// state over every emulator this process creates; leaks surface
  /// through the kernel's per-pass drain. Off by default (zero cost).
  bool taint = false;
};

struct ProcessStats {
  uint64_t slices = 0;
  uint64_t instructions = 0;
  /// Slice dispatches that required a real context switch (DRC + bitmap
  /// flush) because another address space ran on the core in between.
  uint64_t context_switches = 0;
  /// Translations this process lost to those flushes (cold-start cost it
  /// pays on re-entry).
  uint64_t drc_entries_flushed = 0;
  uint64_t bitmap_entries_flushed = 0;
  uint64_t rerandomizations = 0;
  /// Policy firings skipped because a register held a randomized-space
  /// code pointer (not a quiescent point — retried next slice).
  uint64_t rerandomizations_deferred = 0;
  /// Firings that hit the deferral cap and forced quiescence by keeping
  /// the register-held addresses alive as derand aliases.
  uint64_t rerandomizations_forced = 0;
  /// Core clock at the moment the process finished (for slowdown vs an
  /// isolated run).
  uint64_t finish_cycles = 0;
};

/// One spawned workload: placement, tables, memory, and architectural
/// state over a shared analyzed program. The kernel owns Process objects; a
/// process is bound to one core for its whole life (static shard) and
/// `bind()` builds its table walker over that core's memory hierarchy.
class Process {
 public:
  /// `program` must be config.workload at config.scale, prepared under the
  /// default return policy; every placement of this process draws from it.
  Process(uint32_t pid, const ProcessConfig& config,
          std::shared_ptr<const rewriter::Program> program);

  /// Builds the translation walker against the bound core's memory
  /// hierarchy. Must be called before the first slice. The walker reads
  /// the process's one image in place, which every firing, restart and
  /// restore patches or assigns into, so it is never rebuilt.
  void bind(uint32_t core, cache::MemHier& mem);

  /// The kernel-side context record handed to core::ContextManager.
  [[nodiscard]] core::ProcessContext context() const;

  /// Attempts the §V-C live re-randomization at the current point. Returns
  /// false (and counts a deferral) when any general-purpose register holds
  /// a randomized-space address — not a quiescent point — unless the
  /// policy's deferral cap forces the swap (the held addresses survive as
  /// derand aliases). On success the epoch bumps; either rebuild mode
  /// patches image, tables, and memory in place and the same emulator
  /// keeps running (emu/rerandomize.hpp). Calling this before
  /// bind() is kernel misuse and surfaces as a typed kRerandFailure fault
  /// on the process (never an exception).
  bool try_rerandomize();

  /// Schedules an immediate fresh placement (re-rand-on-trap): the next
  /// policy evaluation fires regardless of the periodic counter, and an
  /// incremental rebuild re-places every movable page. `from_trap` marks
  /// the victim itself (drives restart-backoff expediting) as opposed to a
  /// fleet-scope co-tenant.
  void schedule_rerand(bool from_trap) {
    rerand_pending_ = true;
    if (from_trap) ++trap_rerands_;
  }
  [[nodiscard]] bool rerand_pending() const { return rerand_pending_; }
  /// Attack-signal traps this process has answered with a re-randomization
  /// schedule (restart backoff shrinks as evidence of attack mounts).
  [[nodiscard]] uint32_t trap_rerands() const { return trap_rerands_; }
  /// Work done by the most recent successful re-randomization.
  [[nodiscard]] const RerandWork& last_rerand_work() const {
    return last_work_;
  }
  /// Stale derand aliases currently kept alive for register-held
  /// addresses (forced-quiescence residue; dropped once unreferenced).
  [[nodiscard]] const std::vector<uint32_t>& rerand_aliases() const {
    return aliases_;
  }

  /// Marks the process finished with a typed exit and records the core
  /// clock.
  void finish(uint64_t core_cycles, fault::ExitStatus status);

  /// Re-arms the process for the next request of a serving workload
  /// (src/serve/): memory is re-imaged and the emulator reset against the
  /// *same* randomization epoch — tables, placement, and walker are
  /// untouched, so the core's warm DRC/bitmap state stays valid and no
  /// context switch is due. `payload` is written at `payload_base` before
  /// the life starts (the request bytes a server reads). Resets the
  /// per-life budget/watchdog clock and the finished flag.
  void rearm(const std::vector<uint8_t>& payload, uint32_t payload_base);

  /// Re-images the process from scratch with a fresh placement seed
  /// (restart-with-rerandomize): new randomization, memory, and emulator;
  /// the epoch bumps so every cached translation of the dead layout is
  /// flushed at the next dispatch. Cumulative stats survive; the
  /// per-life instruction budget and watchdog clock reset.
  void restart();

  [[nodiscard]] uint32_t pid() const { return pid_; }
  [[nodiscard]] int core() const { return core_; }
  [[nodiscard]] const ProcessConfig& config() const { return config_; }
  [[nodiscard]] uint64_t epoch() const { return epoch_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const fault::ExitStatus& exit_status() const {
    return exit_status_;
  }
  [[nodiscard]] uint32_t restarts() const { return restarts_; }
  /// Instructions retired by the current life (restart resets it; the
  /// watchdog and the per-life budget run on this clock).
  [[nodiscard]] uint64_t life_instructions() const {
    return stats_.instructions - life_base_;
  }
  /// Instructions still within the current life's budget.
  [[nodiscard]] uint64_t remaining() const {
    const uint64_t life = life_instructions();
    return config_.max_instructions > life ? config_.max_instructions - life
                                           : 0;
  }

  // ---- request attribution (src/serve/) ----------------------------------
  // While a serving workload has a request in flight, the kernel accrues
  // the cycles it spends *running* it (slice durations + context-switch
  // overhead) and *stalled on round commit* into the process, so the
  // serve driver can decompose end-to-end latency exactly:
  //   latency == queue + run + restart_loss + commit_stall.
  // restart() and rearm() leave these fields alone — the driver owns the
  // request lifecycle and reads them post-mortem after a crash.
  void begin_request(uint64_t id) {
    req_active_ = true;
    req_id_ = id;
    req_run_cycles_ = 0;
    req_commit_cycles_ = 0;
    req_leaks_ = 0;
    req_leak_depth_ = 0;
  }
  void end_request() { req_active_ = false; }
  [[nodiscard]] bool request_active() const { return req_active_; }
  [[nodiscard]] uint64_t request_id() const { return req_id_; }
  [[nodiscard]] uint64_t request_run_cycles() const { return req_run_cycles_; }
  [[nodiscard]] uint64_t request_commit_cycles() const {
    return req_commit_cycles_;
  }
  void add_request_run(uint64_t cycles) { req_run_cycles_ += cycles; }
  void add_request_commit(uint64_t cycles) { req_commit_cycles_ += cycles; }
  /// Leak attribution: the kernel calls this per drained leak record while
  /// a request is in flight, so the serve CSV can name the request that
  /// disclosed the layout.
  void note_request_leak(uint32_t depth) {
    ++req_leaks_;
    if (depth > req_leak_depth_) req_leak_depth_ = depth;
  }
  [[nodiscard]] uint64_t request_leaks() const { return req_leaks_; }
  [[nodiscard]] uint32_t request_leak_depth() const { return req_leak_depth_; }

  // ---- fault injection (config.inject) -----------------------------------
  [[nodiscard]] const fault::FaultInjector* injector() const {
    return injector_.get();
  }
  /// True when the armed plan should fire now (bookkeeping applies it).
  [[nodiscard]] bool injection_due() const {
    return injector_ != nullptr && injector_->due(life_instructions());
  }
  /// Instructions until the armed plan fires — the kernel truncates the
  /// slice budget with this so the corruption lands on the exact boundary.
  /// UINT64_MAX when nothing is pending.
  [[nodiscard]] uint64_t injection_gap() const;
  /// Applies the armed corruption against the live image/memory/emulator.
  /// Returns whether it took effect (idempotent).
  bool apply_injection();

  /// Checkpoint support. Saving serializes the *current* randomized
  /// image verbatim (not just the epoch seed) so injection-corrupted code
  /// bytes and table entries survive the round trip; loading assigns the
  /// serialized image (its tables are the placement) into the live one,
  /// restores memory and loads the architectural state into the existing
  /// emulator; the walker keeps reading the same tables. The caller must
  /// have bind()-ed the process first (spawn order reproduces that).
  void state(binary::StateIo& io);

  [[nodiscard]] emu::Emulator& emulator() { return *emu_; }
  [[nodiscard]] const emu::Emulator& emulator() const { return *emu_; }
  [[nodiscard]] core::TranslationWalker* walker() { return walker_.get(); }
  /// The shared original-layout image every epoch places.
  [[nodiscard]] const binary::Image& original() const {
    return program_->image;
  }
  [[nodiscard]] const rewriter::Program& program() const { return *program_; }
  /// The live VCFR image; its tables.rand is the current placement.
  [[nodiscard]] const binary::Image& randomization() const { return image_; }
  [[nodiscard]] const binary::Memory& memory() const { return mem_; }
  [[nodiscard]] ProcessStats& stats() { return stats_; }
  [[nodiscard]] const ProcessStats& stats() const { return stats_; }

 private:
  [[nodiscard]] rewriter::RandomizeOptions options_for_epoch(
      uint64_t epoch) const;
  /// Starts a life over the current image: fresh memory loaded from it
  /// (with `payload` written at `payload_base`), a fresh emulator under
  /// config_.enforce_tags and config_.taint, and a clean exit status; the
  /// per-life instruction clock restarts.
  void start_life(const std::vector<uint8_t>& payload = {},
                  uint32_t payload_base = 0);

  uint32_t pid_;
  ProcessConfig config_;
  /// Original image + CFG + analysis, shared with every process of the same
  /// (workload, scale); every epoch places this.
  std::shared_ptr<const rewriter::Program> program_;
  /// The live VCFR image, one object for the whole process: firings patch
  /// it in place and restart/restore assign into it, so the emulator, the
  /// walker and the kernel's context record never need re-pointing.
  binary::Image image_;
  binary::Memory mem_;
  std::unique_ptr<emu::Emulator> emu_;
  std::unique_ptr<core::TranslationWalker> walker_;
  cache::MemHier* bound_mem_ = nullptr;
  int core_ = -1;
  uint64_t epoch_ = 0;
  bool finished_ = false;
  fault::ExitStatus exit_status_;
  uint32_t restarts_ = 0;
  /// stats_.instructions at the start of the current life.
  uint64_t life_base_ = 0;
  /// Restart salt mixed into options_for_epoch — a restarted process must
  /// not land on any placement of the crashed lineage.
  uint64_t reseed_ = 0;
  // In-flight request attribution (see begin_request above).
  bool req_active_ = false;
  uint64_t req_id_ = 0;
  uint64_t req_run_cycles_ = 0;
  uint64_t req_commit_cycles_ = 0;
  uint64_t req_leaks_ = 0;
  uint32_t req_leak_depth_ = 0;
  std::unique_ptr<fault::FaultInjector> injector_;
  ProcessStats stats_;
  // Continuous re-randomization state.
  uint32_t defer_streak_ = 0;   // consecutive quiescence deferrals
  bool rerand_pending_ = false; // trap-scheduled fresh placement due
  uint32_t trap_rerands_ = 0;   // attack-signal traps answered
  /// Derand aliases kept alive for register-held addresses across forced
  /// swaps; retired at later successful re-randomizations.
  std::vector<uint32_t> aliases_;
  RerandWork last_work_;
};

}  // namespace vcfr::os
