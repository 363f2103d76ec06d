#include "os/process.hpp"

#include <algorithm>
#include <bit>

#include "binary/state_io.hpp"
#include "emu/rerandomize.hpp"

namespace vcfr::os {

namespace {
// Same golden-ratio mixer the examples use for per-instance seeds; here it
// advances a process's seed across re-randomization epochs.
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

// A tenant's decode cache holds the next power of two at or above its
// program's static instruction count, between 256 and 4096 lines: a
// tenant never needs more lines than it has instructions, while below
// 256 the direct-mapped conflicts of a hot loop cost more than the
// memory saved (a 64-line floor cut libquantum's hit rate from 99.5 % to
// 83 % under serving).
uint32_t decode_cache_entries(const rewriter::Program& program) {
  const size_t instrs =
      std::clamp<size_t>(program.cfg.instrs.size(), 256,
                         emu::Emulator::kDefaultDecodeCacheEntries);
  return static_cast<uint32_t>(std::bit_ceil(instrs));
}
}  // namespace

Process::Process(uint32_t pid, const ProcessConfig& config,
                 std::shared_ptr<const rewriter::Program> program)
    : pid_(pid), config_(config), program_(std::move(program)) {
  image_ = rewriter::place(*program_, options_for_epoch(0));
  start_life();
  if (config_.inject_enabled) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.inject);
  }
}

void Process::start_life(const std::vector<uint8_t>& payload,
                         uint32_t payload_base) {
  mem_ = binary::Memory();
  binary::load(image_, mem_);
  mem_.write_block(payload_base, payload.data(),
                   static_cast<uint32_t>(payload.size()));
  emu_ = std::make_unique<emu::Emulator>(image_, mem_,
                                         decode_cache_entries(*program_));
  emu_->set_enforce_tags(config_.enforce_tags);
  if (config_.taint) {
    emu_->set_taint_tracking(true);
    emu_->set_taint_epoch(epoch_);
  }
  finished_ = false;
  exit_status_ = fault::ExitStatus{};
  life_base_ = stats_.instructions;
}

rewriter::RandomizeOptions Process::options_for_epoch(uint64_t epoch) const {
  rewriter::RandomizeOptions options;
  options.seed = config_.seed + kSeedMix * epoch + reseed_;
  return options;
}

void Process::bind(uint32_t core, cache::MemHier& mem) {
  core_ = static_cast<int>(core);
  bound_mem_ = &mem;
  walker_ = std::make_unique<core::TranslationWalker>(image_.tables, mem);
}

core::ProcessContext Process::context() const {
  core::ProcessContext ctx;
  ctx.pid = pid_;
  ctx.name = config_.workload;
  ctx.tables = &image_.tables;
  ctx.epoch = epoch_;
  return ctx;
}

bool Process::try_rerandomize() {
  if (bound_mem_ == nullptr) {
    // Kernel misuse (rerandomize before bind()) used to throw a bare
    // logic_error through the scheduler; surface it as a typed fault the
    // containment machinery handles like any other crash.
    emu_->raise_external(fault::FaultKind::kRerandFailure);
    exit_status_.code = fault::ExitCode::kFaulted;
    exit_status_.trap = emu_->trap();
    return false;
  }
  // Quiescence check (§V-C): the swap re-translates the PC and every
  // bitmap-marked stack slot, but a randomized code pointer sitting in a
  // general-purpose register would silently go stale. A preemption point is
  // an arbitrary instruction boundary, so defer until the registers are
  // clean of randomized-space addresses — unless the deferral cap says the
  // policy has starved long enough, in which case the held addresses are
  // pinned as derand aliases and the swap proceeds (forced quiescence).
  std::vector<uint32_t> pinned;
  for (const uint32_t reg : emu_->state().regs) {
    if (image_.tables.is_randomized_addr(reg)) pinned.push_back(reg);
  }
  bool force = false;
  if (!pinned.empty()) {
    const uint32_t cap = config_.rerandomize.max_defer;
    if (cap == 0 || defer_streak_ + 1 < cap) {
      ++stats_.rerandomizations_deferred;
      ++defer_streak_;
      return false;
    }
    force = true;
    std::sort(pinned.begin(), pinned.end());
    pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  }

  const bool incremental = config_.rerandomize.rebuild ==
                           RerandomizePolicy::Rebuild::kIncremental;
  // Incremental: retire aliases from earlier forced swaps that no register
  // holds any more. (Reaching here with an alias still register-held
  // implies it is in `pinned` — a held alias fails the quiescence check.)
  // A full firing re-places every table entry, so its old aliases simply
  // do not carry over.
  if (incremental) {
    auto& tables = image_.tables;
    for (const uint32_t a : aliases_) {
      if (std::binary_search(pinned.begin(), pinned.end(), a)) continue;
      const uint32_t* orig = tables.derand.lookup(a);
      if (orig == nullptr) continue;
      const uint32_t* ra = tables.rand.lookup(*orig);
      if (ra != nullptr && *ra != a) tables.derand.erase(a);
    }
  }
  emu::RerandOptions opt;
  opt.placement = options_for_epoch(epoch_ + 1);
  opt.region_percent = config_.rerandomize.region_percent;
  // A trap-scheduled firing is a fresh placement: the attacker proved
  // knowledge of the current layout, so every movable page moves.
  opt.all_regions = rerand_pending_;
  opt.pinned = std::move(pinned);
  emu::RerandStats st;
  const bool ok =
      incremental
          ? emu::rerandomize_incremental(*program_, image_, mem_, *emu_, opt,
                                         &st)
          : emu::rerandomize_full(*program_, image_, mem_, *emu_, opt, &st);
  if (!ok) {
    // Slot pool exhausted, or the fresh placement took a pinned address:
    // defer; the next epoch draws different slots.
    ++stats_.rerandomizations_deferred;
    return false;
  }
  if (!incremental && config_.taint) {
    // The re-keyed layout has no old secrets: start the shadow state
    // clean. The incremental path keeps its taint — partially-moved
    // layouts still leak partially-valid addresses.
    emu_->set_taint_tracking(true);
  }
  aliases_ = std::move(st.alias_keys);
  last_work_ = RerandWork{st.regions, st.entries, force, incremental};
  ++epoch_;
  // Re-stamp the taint epoch so secrets seeded from here on carry the new
  // placement's identity.
  if (config_.taint) emu_->set_taint_epoch(epoch_);
  ++stats_.rerandomizations;
  if (force) ++stats_.rerandomizations_forced;
  defer_streak_ = 0;
  rerand_pending_ = false;
  return true;
}

void Process::finish(uint64_t core_cycles, fault::ExitStatus status) {
  finished_ = true;
  exit_status_ = status;
  stats_.finish_cycles = core_cycles;
}

void Process::restart() {
  ++restarts_;
  // Fresh placement lineage: the salt shifts every future epoch seed away
  // from anything the crashed lineage used (or would have re-randomized
  // into), so a layout leak from the old life says nothing about the new.
  reseed_ = kSeedMix * (0xbadc0ffeull + restarts_);
  ++epoch_;
  image_ = rewriter::place(*program_, options_for_epoch(epoch_));
  start_life();
  // The restart *is* a fresh placement: a pending trap-scheduled re-rand
  // is satisfied, the deferral streak resets, and the old layout's
  // forced-quiescence aliases died with its tables.
  rerand_pending_ = false;
  defer_streak_ = 0;
  aliases_.clear();
  // An already-fired injection stays consumed: the replacement runs clean.
}

void Process::rearm(const std::vector<uint8_t>& payload,
                    uint32_t payload_base) {
  start_life(payload, payload_base);
}

uint64_t Process::injection_gap() const {
  if (injector_ == nullptr || injector_->attempted()) return UINT64_MAX;
  const uint64_t life = life_instructions();
  const uint64_t at = injector_->plan().at_instruction;
  return at > life ? at - life : 0;
}

bool Process::apply_injection() {
  if (injector_ == nullptr) return false;
  return injector_->apply(image_, mem_, *emu_, &program_->image);
}

void Process::state(binary::StateIo& io) {
  uint32_t pid = pid_;
  io.u32(pid);
  io.require(pid == pid_, "checkpoint pid mismatch");
  io.u64(epoch_);
  io.u64(reseed_);
  io.u32(restarts_);
  // The live randomized image, bytes and tables included. An armed
  // injection may have rewritten either — the checkpoint must carry the
  // corruption, not the pristine re-derivation, so the serialized image
  // is the ground truth on load.
  image_.state(io);
  mem_.state(io);
  emu_->state(io);
  bool has_injector = injector_ != nullptr;
  io.b(has_injector);
  io.require(has_injector == (injector_ != nullptr),
             "checkpoint injector presence mismatch");
  if (injector_) injector_->state(io);
  io.b(finished_);
  io.enum8(exit_status_.code);
  io.enum8(exit_status_.trap.kind);
  io.u32(exit_status_.trap.pc);
  io.u32(exit_status_.trap.detail);
  io.u64(exit_status_.trap.instruction);
  io.u64(life_base_);
  io.b(req_active_);
  io.u64(req_id_);
  io.u64(req_run_cycles_);
  io.u64(req_commit_cycles_);
  io.u64(stats_.slices);
  io.u64(stats_.instructions);
  io.u64(stats_.context_switches);
  io.u64(stats_.drc_entries_flushed);
  io.u64(stats_.bitmap_entries_flushed);
  io.u64(stats_.rerandomizations);
  io.u64(stats_.rerandomizations_deferred);
  io.u64(stats_.finish_cycles);
  // Continuous re-rand state (appended; the checkpoint format is
  // internal-only and versioned by config digest).
  io.u64(stats_.rerandomizations_forced);
  io.u32(defer_streak_);
  io.b(rerand_pending_);
  io.u32(trap_rerands_);
  io.u32s(aliases_, 1u << 20);
  // Leak attribution for an in-flight request (appended; the emulator's
  // own taint shadow state rides inside emu_->state above).
  io.u64(req_leaks_);
  io.u32(req_leak_depth_);
  if (io.loading()) {
    // The serialized image is trusted only as far as the next firing can
    // patch it: a placement outside the slot pool or sharing a slot would
    // make it throw or write out of bounds mid-run. A table value this
    // process's injector flipped is corruption the checkpoint must carry.
    std::optional<uint32_t> flipped;
    if (injector_ != nullptr && injector_->applied() &&
        injector_->record().site == fault::FaultSite::kTranslationEntry) {
      flipped = injector_->record().address;
    }
    const std::string bad = rewriter::check_placement(
        *program_, image_, options_for_epoch(epoch_), flipped);
    io.require(bad.empty(), "checkpoint image of pid " +
                                std::to_string(pid_) + ": " + bad);
  }
}

}  // namespace vcfr::os
