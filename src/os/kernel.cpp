#include "os/kernel.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <stdexcept>

#include "binary/state_io.hpp"
#include "emu/emulator.hpp"
#include "emu/taint.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::os {

namespace {

/// The in-flight request id for a journal entry, or -1 when none.
[[nodiscard]] int64_t journal_req(const Process& p) {
  return p.request_active() ? static_cast<int64_t>(p.request_id()) : -1;
}

/// Journal detail string carrying a leak's full provenance chain:
/// which secret escaped (origin + the randomized address it guarded),
/// the placement generation it belonged to, and the exit door.
[[nodiscard]] std::string leak_detail(const emu::LeakRecord& leak) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "origin=%s rpc=0x%x epoch=%llu sink=%s",
                emu::taint_origin_name(leak.origin), leak.origin_rpc,
                static_cast<unsigned long long>(leak.epoch),
                emu::leak_sink_name(leak.sink));
  return buf;
}

/// FNV-1a accumulator for the checkpoint's configuration digest.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
  }
};

constexpr char kCheckpointMagic[4] = {'V', 'C', 'K', 'P'};
constexpr uint32_t kCheckpointVersion = 4;

}  // namespace

Kernel::Kernel(const KernelConfig& config)
    : config_(config),
      shared_(config.shared_l2, config.cores == 0 ? 1 : config.cores),
      sched_(config.sched, config.cores == 0 ? 1 : config.cores) {
  const uint32_t cores = shared_.cores();
  for (uint32_t c = 0; c < cores; ++c) {
    cores_.push_back(
        std::make_unique<sim::CpuCore>(config_.cpu, &shared_.port(c)));
    ctx_.push_back(std::make_unique<core::ContextManager>(cores_[c]->drc()));
    ctx_[c]->attach_ret_bitmap(&cores_[c]->ret_bitmap_cache());
    installed_.emplace_back(-1, -1);
  }
}

uint32_t Kernel::spawn(const ProcessConfig& config) {
  const uint32_t pid = static_cast<uint32_t>(procs_.size());
  auto& program = programs_[{config.workload, config.scale}];
  if (program == nullptr) {
    program = std::make_shared<const rewriter::Program>(rewriter::prepare(
        workloads::make(config.workload, config.scale)));
  }
  procs_.push_back(std::make_unique<Process>(pid, config, program));
  const uint32_t core = sched_.admit(pid);
  procs_[pid]->bind(core, cores_[core]->mem());
  return pid;
}

void Kernel::dispatch(uint32_t core, Process& proc) {
  auto& ctx = *ctx_[core];
  const uint64_t switches_before = ctx.stats().switches;
  const uint64_t drc_before = ctx.stats().entries_flushed;
  const uint64_t bmp_before = ctx.stats().bitmap_entries_flushed;
  ctx.switch_to(proc.context());
  if (ctx.stats().switches != switches_before) {
    // Real address-space change: the incoming process pays the switch
    // overhead and inherits the cold DRC/bitmap (its own entries were the
    // ones lost when it was last preempted — attribute the losses here,
    // where the cold-start cost is felt).
    proc.stats().context_switches += 1;
    proc.stats().drc_entries_flushed +=
        ctx.stats().entries_flushed - drc_before;
    proc.stats().bitmap_entries_flushed +=
        ctx.stats().bitmap_entries_flushed - bmp_before;
    if (telemetry::TraceLane* l = lane(core)) {
      l->span(telemetry::TraceEventType::kContextSwitch, proc.pid(),
              cores_[core]->now(), config_.context_switch_cycles,
              ctx.stats().entries_flushed - drc_before);
    }
    charge(core, proc, config_.context_switch_cycles);
  }
  const auto want = std::make_pair(static_cast<int64_t>(proc.pid()),
                                   static_cast<int64_t>(proc.epoch()));
  if (installed_[core] != want) {
    cores_[core]->install(binary::Layout::kVcfr, proc.walker(), proc.pid());
    installed_[core] = want;
  }
  // (Re-)anchor the tenant's profiler every dispatch: stall cycles since
  // the core's last retire (switch overhead above, the previous round's
  // commit penalty) were attributed explicitly and must not reappear in
  // the next retire's clock advance.
  if (profiling_) {
    cores_[core]->attach_profiler(profilers_[proc.pid()].get());
  }
}

namespace {

/// Trap kinds that read as an attack / corruption signal (§IV-A): the
/// re-rand-on-trap policy treats these — and only these — as evidence the
/// current placement leaked or was probed.
[[nodiscard]] bool attack_signal(fault::FaultKind kind) {
  return kind == fault::FaultKind::kBadOpcode ||
         kind == fault::FaultKind::kUnmappedFetch ||
         kind == fault::FaultKind::kTranslationMismatch;
}

}  // namespace

void Kernel::consider_restart(const Process& proc) {
  const RestartPolicy& policy = proc.config().restart;
  // Re-rand-on-trap: an attack-signal trap makes the victim eligible for a
  // fresh placement (the restart IS the re-randomization) even when its
  // restart policy alone would leave it down.
  const bool trap_rerand = proc.config().rerandomize.on_trap &&
                           proc.exit_status().crashed() &&
                           attack_signal(proc.exit_status().trap.kind);
  const bool eligible =
      policy.mode == RestartPolicy::Mode::kAlways ||
      (policy.mode == RestartPolicy::Mode::kOnFault &&
       proc.exit_status().crashed()) ||
      trap_rerand;
  if (!eligible || proc.restarts() >= policy.max_restarts) return;
  // Exponential backoff in scheduler rounds, capped well below overflow.
  const uint32_t shift = std::min<uint32_t>(proc.restarts(), 32);
  uint64_t delay = policy.backoff_rounds << shift;
  if (trap_rerand) {
    // Expedite: the first attack signal re-images immediately (a moving
    // target must move *now*), repeated signals back off exponentially on
    // their own schedule so a trap loop cannot thrash the core.
    const uint32_t t = std::min<uint32_t>(proc.trap_rerands(), 32);
    const uint64_t expedited =
        t == 0 ? 0 : (uint64_t{1} << (t - 1)) - 1;
    delay = std::min(delay, expedited);
  }
  pending_restarts_.push_back(PendingRestart{proc.pid(), rounds_ + delay});
}

void Kernel::service_restarts() {
  for (auto it = pending_restarts_.begin(); it != pending_restarts_.end();) {
    if (it->due_round > rounds_) {
      ++it;
      continue;
    }
    Process& p = *procs_[it->pid];
    p.restart();
    ++restarts_;
    const uint32_t core = static_cast<uint32_t>(p.core());
    sched_.requeue(core, p.pid());
    note(core, telemetry::JournalKind::kRestart, p, p.restarts());
    it = pending_restarts_.erase(it);
  }
}

void Kernel::advance_core(uint32_t core, uint64_t cycle) {
  const uint64_t now = cores_[core]->now();
  if (cycle > now) cores_[core]->stall(cycle - now);
}

void Kernel::wake(uint32_t pid) {
  Process& p = *procs_[pid];
  sched_.unblock(static_cast<uint32_t>(p.core()), pid);
}

bool Kernel::restart_pending(uint32_t pid) const {
  for (const PendingRestart& pr : pending_restarts_) {
    if (pr.pid == pid) return true;
  }
  return false;
}

uint64_t Kernel::fleet_now() const {
  uint64_t now = 0;
  for (const auto& core : cores_) now = std::max(now, core->now());
  return now;
}

void Kernel::setup_telemetry() {
  if (telemetry_ == nullptr) return;
  journal_ = telemetry_->journal();
  const uint32_t cores = shared_.cores();
  const telemetry::Scope fleet = telemetry_->root().scope("fleet");

  fleet.counter("rounds", &rounds_);
  fleet.counter_fn("instructions", [this] {
    uint64_t total = 0;
    for (const auto& core : cores_) total += core->retired();
    return total;
  });
  fleet.counter_fn("cycles", [this] { return fleet_now(); });
  fleet.gauge("ipc", [this] {
    const uint64_t cycles = fleet_now();
    uint64_t instr = 0;
    for (const auto& core : cores_) instr += core->retired();
    return cycles == 0 ? 0.0
                       : static_cast<double>(instr) /
                             static_cast<double>(cycles);
  });
  fleet.gauge("drc_miss_rate", [this] {
    uint64_t lookups = 0, misses = 0;
    for (const auto& core : cores_) {
      lookups += core->drc().stats().lookups;
      misses += core->drc().stats().misses;
    }
    return lookups == 0 ? 0.0
                        : static_cast<double>(misses) /
                              static_cast<double>(lookups);
  });

  sched_.register_stats(fleet.scope("sched"));
  shared_.register_stats(fleet.scope("shared_l2"));

  // Host-execution counters (deterministic for a given config, but about
  // how the host ran the fleet, not what the fleet computed — hence their
  // own top-level scope instead of fleet.*).
  const telemetry::Scope kernel = telemetry_->root().scope("kernel");
  const telemetry::Scope pool = kernel.scope("pool");
  pool.counter_fn("rounds", [this] { return pool_rounds(); });
  pool.counter_fn("workers",
                  [this] { return static_cast<uint64_t>(pool_workers()); });
  kernel.counter("restarts", &restarts_);
  kernel.counter("watchdog_kills", &watchdog_kills_);
  kernel.scope("rerand").counter("forced", &rerand_forced_);
  const telemetry::Scope ckpt = kernel.scope("checkpoint");
  ckpt.counter("writes", &checkpoint_writes_);
  ckpt.counter("restores", &checkpoint_restores_);

  // Fault-injection observability (docs/OBSERVABILITY.md): per-site
  // applied-injection counts plus the injection→trap latency histogram.
  const telemetry::Scope fault_scope = telemetry_->root().scope("fault");
  bool any_armed = false;
  for (const fault::FaultSite site :
       {fault::FaultSite::kCodeByte, fault::FaultSite::kTranslationEntry,
        fault::FaultSite::kRetSlot, fault::FaultSite::kRetBitmap,
        fault::FaultSite::kPayload}) {
    bool armed = false;
    for (const auto& proc : procs_) {
      if (proc->config().inject_enabled && proc->config().inject.site == site) {
        armed = true;
        any_armed = true;
      }
    }
    if (!armed) continue;
    fault_scope.counter_fn(
        "injected." + std::string(fault::site_name(site)), [this, site] {
          uint64_t n = 0;
          for (const auto& proc : procs_) {
            const fault::FaultInjector* inj = proc->injector();
            if (inj != nullptr && inj->applied() &&
                inj->plan().site == site) {
              ++n;
            }
          }
          return n;
        });
  }
  if (any_armed) {
    detect_latency_hist_ = fault_scope.histogram("detect_latency");
  }

  // Live re-randomization observability (docs/OBSERVABILITY.md): per-firing
  // cost histograms, created only when some process arms a re-rand policy
  // (periodic or on-trap) so legacy registries stay byte-identical.
  bool any_rerand = false;
  for (const auto& proc : procs_) {
    const RerandomizePolicy& rp = proc->config().rerandomize;
    if (rp.every_slices != 0 || rp.on_trap) any_rerand = true;
  }
  if (any_rerand) {
    const telemetry::Scope rerand = telemetry_->root().scope("rerand");
    rerand_latency_hist_ = rerand.histogram("latency");
    rerand_regions_hist_ = rerand.histogram("regions_patched");
    rerand_entries_hist_ = rerand.histogram("entries_patched");
  }

  // Leak observability (docs/OBSERVABILITY.md): fleet.leak.* exists only
  // when some process arms taint tracking, so untainted registries stay
  // byte-identical (observer neutrality extends to the stats snapshot).
  bool any_taint = false;
  for (const auto& proc : procs_) {
    if (proc->config().taint) any_taint = true;
  }
  if (any_taint) {
    const telemetry::Scope leak = fleet.scope("leak");
    leak.counter("detected", &leaks_detected_);
    leak.counter("rerands", &leak_rerands_);
    leak_depth_hist_ = leak.histogram("depth");
  }

  lanes_.assign(cores, nullptr);
  telemetry::Tracer* tracer = telemetry_->tracer();
  for (uint32_t c = 0; c < cores; ++c) {
    const std::string id = std::to_string(c);
    const telemetry::Scope scope = fleet.scope("core" + id);
    cores_[c]->register_stats(scope);
    const telemetry::Scope ctx = scope.scope("ctx");
    ctx.counter("switches", &ctx_[c]->stats().switches);
    ctx.counter("entries_flushed", &ctx_[c]->stats().entries_flushed);
    ctx.counter("bitmap_entries_flushed",
                &ctx_[c]->stats().bitmap_entries_flushed);
    ctx.counter("rerandomizations", &ctx_[c]->stats().rerandomizations);
    lanes_[c] = telemetry_->lane(c);
    cores_[c]->attach_trace(lanes_[c]);
    if (tracer != nullptr) tracer->name_lane(c, "core " + id);
  }
  kernel_lane_ = telemetry_->lane(cores);
  if (tracer != nullptr) {
    tracer->name_lane(cores, "kernel");
    tracer->name_asid(cores, 0, "scheduler");
  }

  for (const auto& proc : procs_) {
    const Process& p = *proc;
    const telemetry::Scope scope =
        fleet.scope("proc" + std::to_string(p.pid()));
    scope.counter("instructions", &p.stats().instructions);
    scope.counter("slices", &p.stats().slices);
    scope.counter("context_switches", &p.stats().context_switches);
    scope.counter("drc_entries_flushed", &p.stats().drc_entries_flushed);
    scope.counter("bitmap_entries_flushed",
                  &p.stats().bitmap_entries_flushed);
    scope.counter("rerandomizations", &p.stats().rerandomizations);
    scope.counter("rerandomizations_deferred",
                  &p.stats().rerandomizations_deferred);
    scope.counter("rerandomizations_forced",
                  &p.stats().rerandomizations_forced);
    scope.counter_fn("epoch", [&p] { return p.epoch(); });
    if (tracer != nullptr) {
      tracer->name_asid(static_cast<uint32_t>(p.core()), p.pid(),
                        "pid " + std::to_string(p.pid()) + " " +
                            p.config().workload);
      if (service_ != nullptr) {
        // Serving runs also emit request flow endpoints on the kernel
        // lane (arrival/delivery/completion) under the tenant's tid.
        tracer->name_asid(cores, p.pid(),
                          "pid " + std::to_string(p.pid()) + " " +
                              p.config().workload);
      }
    }
    if (journal_ != nullptr) {
      journal_->log({0, telemetry::JournalKind::kSpawn, p.pid(), -1,
                     static_cast<uint64_t>(p.core()), p.config().workload});
    }
  }
  // Every producer's lane now exists (per-core plus kernel); creating one
  // from here on — e.g. lazily from a worker thread mid-execute — is a
  // bug, and the tracer asserts on it.
  if (tracer != nullptr) tracer->seal();
}

uint64_t Kernel::config_digest() const {
  // Everything that shapes simulated state belongs here; the
  // host-parallelism knob pool_workers deliberately does not.
  Fnv d;
  d.mix(shared_.cores());
  d.mix(config_.sched.slice_instructions);
  d.mix(config_.context_switch_cycles);
  d.mix(config_.shared_l2.l2.size_bytes);
  d.mix(config_.shared_l2.l2.assoc);
  d.mix(config_.shared_l2.l2.line_bytes);
  d.mix(config_.shared_l2.l2.hit_latency);
  d.mix(config_.shared_l2.est_miss_latency);
  d.mix(config_.shared_l2.service_cycles);
  d.mix(config_.shared_l2.dram.banks);
  d.mix(config_.cpu.iq_size);
  d.mix(config_.cpu.store_buffer);
  d.mix(config_.cpu.issue_width);
  d.mix(config_.rerand_cost_per_entry);
  d.mix(procs_.size());
  for (const auto& proc : procs_) {
    const ProcessConfig& pc = proc->config();
    d.mix(pc.workload);
    d.mix(static_cast<uint64_t>(pc.scale));
    d.mix(pc.seed);
    d.mix(pc.max_instructions);
    d.mix(pc.rerandomize.every_slices);
    d.mix(static_cast<uint64_t>(pc.rerandomize.rebuild));
    d.mix(pc.rerandomize.region_percent);
    d.mix(pc.rerandomize.epoch_tags ? 1 : 0);
    d.mix(pc.rerandomize.on_trap ? 1 : 0);
    d.mix(static_cast<uint64_t>(pc.rerandomize.scope));
    d.mix(pc.rerandomize.max_defer);
    d.mix(pc.enforce_tags ? 1 : 0);
    d.mix(static_cast<uint64_t>(pc.restart.mode));
    d.mix(pc.restart.max_restarts);
    d.mix(pc.restart.backoff_rounds);
    d.mix(pc.watchdog_instructions);
    d.mix(pc.inject_enabled ? 1 : 0);
    d.mix(pc.inject.at_instruction);
    d.mix(static_cast<uint64_t>(pc.inject.site));
    d.mix(pc.inject.seed);
    d.mix(pc.taint ? 1 : 0);
    d.mix(pc.rerandomize.on_leak ? 1 : 0);
  }
  return d.h;
}

void Kernel::state(binary::StateIo& io) {
  for (const char c : kCheckpointMagic) {
    auto byte = static_cast<uint8_t>(c);
    io.u8(byte);
    if (byte != static_cast<uint8_t>(c)) {
      throw binary::FormatError(binary::FormatFault::kBadMagic,
                                "not a fleet checkpoint");
    }
  }
  uint32_t version = kCheckpointVersion;
  io.u32(version);
  io.require(version == kCheckpointVersion,
             "unsupported checkpoint version " + std::to_string(version));
  uint64_t digest = config_digest();
  io.u64(digest);
  io.require(digest == config_digest(),
             "checkpoint configuration digest mismatch");
  io.u64(rounds_);
  io.u64(restarts_);
  io.u64(watchdog_kills_);
  io.u64(injected_faults_);
  io.u64(rerand_forced_);
  io.u64(rerand_regions_total_);
  io.u64(rerand_entries_total_);
  io.u64(leaks_detected_);
  io.u64(leak_rerands_);
  const auto pids = static_cast<uint32_t>(procs_.size());
  io.vec(pending_restarts_, 1u << 20, [&](PendingRestart& pr) {
    io.u32(pr.pid);
    io.require(pr.pid < pids, "checkpoint pending-restart pid out of range");
    io.u64(pr.due_round);
  });
  sched_.state(io, pids);
  shared_.state(io);
  const uint32_t cores = shared_.cores();
  io.fixed(cores, 1u << 16, "checkpoint core count mismatch");
  for (uint32_t c = 0; c < cores; ++c) {
    cores_[c]->state(io);
    ctx_[c]->state(io);
    io.i64(installed_[c].first);
    io.i64(installed_[c].second);
  }
  io.fixed(pids, 1u << 20, "checkpoint process count mismatch");
  for (const auto& proc : procs_) proc->state(io);
}

void Kernel::write_checkpoint() {
  std::ofstream out(checkpoint_path_, std::ios::binary);
  if (!out) {
    throw binary::FormatError(binary::FormatFault::kIo,
                              "cannot open checkpoint " + checkpoint_path_);
  }
  binary::StateIo io(out);
  state(io);
  out.flush();
  if (!out) {
    throw binary::FormatError(binary::FormatFault::kIo,
                              "checkpoint write failed " + checkpoint_path_);
  }
  ++checkpoint_writes_;
  if (journal_ != nullptr) {
    journal_->log({fleet_now(), telemetry::JournalKind::kCheckpoint, 0, -1,
                   rounds_, checkpoint_path_});
  }
}

void Kernel::restore(std::istream& in) {
  binary::StateIo io(in);
  state(io);
  // Pointers are not serialized: point each core at its installed
  // process's walker and each context record at its process's tables.
  for (uint32_t c = 0; c < shared_.cores(); ++c) {
    const int64_t pid = installed_[c].first;
    if (pid >= 0 && static_cast<size_t>(pid) < procs_.size()) {
      cores_[c]->rebind_walker(procs_[static_cast<size_t>(pid)]->walker());
    }
    // switch_to() only ever installs non-null tables, so switches > 0 is
    // exactly "a context is live on this core". A missed rebind would make
    // the next same-context dispatch flush (timing divergence) — keep the
    // warm no-flush fast path intact.
    if (ctx_[c]->stats().switches != 0) {
      const uint32_t cur = ctx_[c]->current().pid;
      if (cur < procs_.size()) {
        ctx_[c]->rebind_tables(&procs_[cur]->randomization().tables);
      }
    }
  }
  ++checkpoint_restores_;
  restored_ = true;
}

FleetReport Kernel::run() {
  // Profilers and the serving hook hold host-side state the checkpoint
  // does not carry, so a resumed run would silently diverge.
  if ((checkpoint_round_ != 0 || restored_) &&
      (profiling_ || service_ != nullptr)) {
    throw std::logic_error(
        "checkpoint/restore is unsupported with profiling or a serving hook");
  }
  setup_telemetry();
  if (restored_ && journal_ != nullptr) {
    journal_->log({fleet_now(), telemetry::JournalKind::kRestore, 0, -1,
                   rounds_, {}});
  }
  if (profiling_) {
    // One profiler per tenant, keyed off the original image (stable across
    // re-randomization epochs and restarts — symbols and code bytes are
    // original-space for the process's whole lineage).
    profilers_.clear();
    for (const auto& proc : procs_) {
      profilers_.push_back(
          std::make_unique<profile::Profiler>(proc->original()));
    }
  }
  // Per-round state, sized once: the round loop runs tens of thousands of
  // times at smoke scale and must not allocate on its steady path.
  running_.assign(shared_.cores(), -1);
  active_.reserve(shared_.cores());

  while (sched_.any_runnable() || !pending_restarts_.empty() ||
         (service_ != nullptr && service_->active())) {
    ++rounds_;
    if (config_.max_rounds != 0 && rounds_ > config_.max_rounds) break;
    if (!pending_restarts_.empty()) service_restarts();
    // Serving hook: inject request traffic at the round boundary — the
    // only point where every core is parked, so delivery stays
    // bit-deterministic regardless of host thread scheduling.
    if (service_ != nullptr) service_->on_round(rounds_);
    dispatch_round();
    execute_round();
    commit_round();
    for (const uint32_t c : active_) bookkeep(c);
    // End of round: port logs empty, all state is member state, every
    // core parked — the one consistent cut.
    if (checkpoint_round_ != 0 && rounds_ == checkpoint_round_) {
      write_checkpoint();
    }
  }

  FleetReport report = make_report();
  // run() is single-shot: freeze the registry so exports stay valid even
  // if the caller destroys the kernel before writing files.
  if (telemetry_ != nullptr) telemetry_->registry().freeze();
  return report;
}

void Kernel::dispatch_round() {
  active_.clear();
  for (uint32_t c = 0; c < shared_.cores(); ++c) {
    running_[c] = sched_.pick(c);
    if (running_[c] < 0) continue;
    Process& p = *procs_[running_[c]];
    if (p.remaining() == 0 && !p.injection_due()) {
      // Budget exhausted exactly at a slice boundary.
      p.finish(cores_[c]->cycles(),
               fault::ExitStatus{fault::ExitCode::kBudget, {}});
      note(c, telemetry::JournalKind::kBudget, p, p.stats().instructions);
      running_[c] = -1;
      continue;
    }
    dispatch(c, p);
    active_.push_back(c);
  }
}

void Kernel::execute_round() {
  if (active_.size() > 1) {
    // First multi-core round: bring up the persistent workers. The kernel
    // thread and the workers claim active cores from one shared index, so
    // a stalled host thread no longer serializes the round; result order
    // stays deterministic because every simulated core's state is private
    // until commit.
    if (pool_ == nullptr) {
      pool_ = std::make_unique<WorkerPool>(config_.pool_workers != 0
                                               ? config_.pool_workers
                                               : shared_.cores() - 1);
    }
    pool_->run(static_cast<uint32_t>(active_.size()),
               [this](uint32_t i) { run_slice(active_[i]); });
    ++pool_rounds_;
  } else if (active_.size() == 1) {
    run_slice(active_[0]);
  }
}

void Kernel::run_slice(uint32_t c) {
  Process& p = *procs_[running_[c]];
  // The slice stops exactly on an armed injection's instruction boundary
  // (the corruption itself lands in serial bookkeeping — race-free).
  const uint64_t budget =
      std::min({sched_.config().slice_instructions, p.remaining(),
                p.injection_gap()});
  const uint64_t start = cores_[c]->now();
  const uint64_t ran = cores_[c]->run(p.emulator(), budget);
  p.stats().instructions += ran;
  p.stats().slices += 1;
  // Slice cycles executed on behalf of an in-flight request are its
  // "run" component (Process-private field — worker-thread safe).
  if (p.request_active()) p.add_request_run(cores_[c]->now() - start);
  // The lane is this core's own ring, so recording from the worker
  // thread is race-free.
  if (telemetry::TraceLane* l = lane(c)) {
    l->span(telemetry::TraceEventType::kSlice, p.pid(), start,
            cores_[c]->now() - start, ran);
    if (p.request_active()) {
      // Flow step: this slice belongs to the request's chain.
      l->instant(telemetry::TraceEventType::kReqFlowStep, p.pid(), start,
                 telemetry::request_flow_id(p.pid(), p.request_id()));
    }
  }
}

void Kernel::commit_round() {
  const std::vector<uint64_t> penalties =
      shared_.commit_round(profiling_ ? &blame_ : nullptr);
  for (uint32_t c = 0; c < shared_.cores(); ++c) {
    cores_[c]->stall(penalties[c]);
  }
  for (const uint32_t c : active_) {
    Process& p = *procs_[running_[c]];
    // A commit penalty stalls the core while its tenant's request sits
    // finished-but-uncommitted: the request's "commit stall" component.
    if (p.request_active()) p.add_request_commit(penalties[c]);
    if (profiling_) {
      // Charge the penalty to the tenant whose slice logged the requests,
      // broken down by the interfering address space.
      for (const auto& [asid, cyc] : blame_[c]) {
        profilers_[p.pid()]->add_l2_contention(asid, cyc);
      }
    }
  }
  if (kernel_lane_ != nullptr) {
    kernel_lane_->instant(telemetry::TraceEventType::kRoundCommit, 0,
                          fleet_now(), rounds_);
  }
  if (telemetry_ != nullptr) telemetry_->sampler().poll(fleet_now());
}

void Kernel::bookkeep(uint32_t c) {
  Process& p = *procs_[running_[c]];
  // Armed corruption fires here: serial phase, process-private state,
  // and the slice budget already stopped the victim on the boundary.
  if (p.injection_due() && p.apply_injection()) {
    ++injected_faults_;
    if (telemetry::TraceLane* l = lane(c)) {
      l->instant(telemetry::TraceEventType::kFaultInject, p.pid(),
                 cores_[c]->cycles(), p.injector()->record().address);
    }
  }
  // Taint sinks that fired during the slice surface here: attribute each
  // leak to the in-flight request, note it with full provenance, and
  // (under --rerand-on-leak) treat the exfiltration as an attack signal
  // for the moving-target path — same scope semantics as on_trap.
  if (p.config().taint) {
    for (const emu::LeakRecord& leak : p.emulator().drain_leaks()) {
      ++leaks_detected_;
      if (leak_depth_hist_ != nullptr) leak_depth_hist_->record(leak.depth);
      if (p.request_active()) p.note_request_leak(leak.depth);
      note(c, telemetry::JournalKind::kLeak, p, leak.depth,
           leak_detail(leak));
      if (p.config().rerandomize.on_leak && !p.rerand_pending()) {
        ++leak_rerands_;
        schedule_rerand(p);
      }
    }
  }
  const auto& emu = p.emulator();
  fault::ExitStatus exit;
  if (emu.faulted()) {
    // Typed trap: contain — the process leaves, the fleet keeps going.
    exit.code = fault::ExitCode::kFaulted;
    exit.trap = emu.trap();
    note(c, telemetry::JournalKind::kFault, p, exit.trap.pc,
         std::string(fault::kind_name(exit.trap.kind)));
    const fault::FaultInjector* inj = p.injector();
    if (detect_latency_hist_ != nullptr && inj != nullptr &&
        inj->applied() &&
        exit.trap.instruction >= inj->record().at_instruction) {
      detect_latency_hist_->record(exit.trap.instruction -
                                   inj->record().at_instruction);
    }
    // Moving-target trigger: an attack-signal trap schedules a fresh
    // placement. The victim's restart (consider_restart below, expedited)
    // IS its re-randomization.
    if (p.config().rerandomize.on_trap && attack_signal(exit.trap.kind)) {
      schedule_rerand(p);
    }
  } else if (emu.halted()) {
    if (service_ != nullptr) {
      // Leak-triggered re-randomization fires at the victim's halt
      // boundary — the request just finished, so the fresh placement
      // lands before the tenant rearms for its next request ("re-key
      // within one round") and the swap cannot invalidate an in-flight
      // rearm payload. Gated on on_leak so the on_trap / periodic paths
      // keep their existing slice-boundary timing.
      if (p.config().rerandomize.on_leak && p.rerand_pending() &&
          p.try_rerandomize()) {
        fire_rerand(c, p);
      }
      // A serving tenant's halt is a request boundary, not an exit: the
      // hook records the completion and either delivers the next queued
      // request (rearm happened inside on_halt) or parks the tenant until
      // traffic arrives.
      switch (service_->on_halt(p.pid(), cores_[c]->cycles())) {
        case ServiceHook::HaltAction::kRunnable:
          sched_.requeue(c, p.pid());
          return;
        case ServiceHook::HaltAction::kBlocked:
          sched_.block(p.pid());
          return;
        case ServiceHook::HaltAction::kFinish:
          break;
      }
    }
    exit.code = fault::ExitCode::kHalted;
  } else if (p.config().watchdog_instructions != 0 &&
             p.life_instructions() >= p.config().watchdog_instructions) {
    // Livelocked / runaway (e.g. a looping ROP chain): kill it.
    p.emulator().raise_external(fault::FaultKind::kWatchdog);
    exit.code = fault::ExitCode::kWatchdogKill;
    exit.trap = p.emulator().trap();
    ++watchdog_kills_;
    note(c, telemetry::JournalKind::kWatchdog, p, p.life_instructions());
  } else if (p.remaining() == 0) {
    exit.code = fault::ExitCode::kBudget;
    note(c, telemetry::JournalKind::kBudget, p, p.stats().instructions);
  }
  if (exit.code != fault::ExitCode::kRunning) {
    p.finish(cores_[c]->cycles(), exit);
    consider_restart(p);
    return;
  }
  const RerandomizePolicy& rp = p.config().rerandomize;
  const bool rerand_due =
      (rp.every_slices != 0 && p.stats().slices % rp.every_slices == 0) ||
      p.rerand_pending();
  if (rerand_due && p.try_rerandomize()) fire_rerand(c, p);
  sched_.requeue(c, p.pid());
}

void Kernel::fire_rerand(uint32_t c, Process& p) {
  const RerandomizePolicy& rp = p.config().rerandomize;
  const RerandWork& work = p.last_rerand_work();
  if (rp.epoch_tags) {
    // Epoch-tagged invalidation: warm DRC/bitmap state survives the swap;
    // stale lines revalidate lazily against the patched tables on their
    // next lookup. (The host-only decode cache is outside this policy: the
    // firing's code-generation bump retires all of its entries.)
    ctx_[c]->rerandomize_current(true);
  } else {
    // Epoch bump: every cached translation of the old placement is dead
    // (§V-C). ContextManager records the flush; the pipeline re-installs
    // the walker at the next dispatch (the installed (pid, epoch) pair no
    // longer matches).
    const uint64_t drc_before = ctx_[c]->stats().entries_flushed;
    const uint64_t bmp_before = ctx_[c]->stats().bitmap_entries_flushed;
    ctx_[c]->rerandomize_current();
    p.stats().drc_entries_flushed +=
        ctx_[c]->stats().entries_flushed - drc_before;
    p.stats().bitmap_entries_flushed +=
        ctx_[c]->stats().bitmap_entries_flushed - bmp_before;
  }
  // The rewrite itself stalls the victim core in proportion to the entries
  // it patched — the lever that makes an incremental rebuild cheaper than
  // a full one. 0 (default) keeps the legacy free-rerand timing bit-exactly.
  const uint64_t cost = config_.rerand_cost_per_entry * work.entries;
  if (cost != 0) charge(c, p, cost);
  rerand_regions_total_ += work.regions;
  rerand_entries_total_ += work.entries;
  if (rerand_latency_hist_ != nullptr) {
    rerand_latency_hist_->record(cost);
    rerand_regions_hist_->record(work.regions);
    rerand_entries_hist_->record(work.entries);
  }
  if (work.forced) {
    ++rerand_forced_;
    note(c, telemetry::JournalKind::kRerandForced, p, rp.max_defer);
  }
  note(c, telemetry::JournalKind::kRerandEpoch, p, work.regions);
}

void Kernel::schedule_rerand(Process& p) {
  p.schedule_rerand(true);
  // Fleet scope also marks every live co-tenant, whose pending re-rand
  // fires at its next slice boundary.
  if (p.config().rerandomize.scope != RerandomizePolicy::Scope::kFleet) {
    return;
  }
  for (const auto& other : procs_) {
    if (other->pid() != p.pid() && !other->finished()) {
      other->schedule_rerand(false);
    }
  }
}

void Kernel::note(uint32_t core, telemetry::JournalKind kind,
                  const Process& p, uint64_t arg, std::string detail) {
  const uint64_t cycle = cores_[core]->cycles();
  if (journal_ != nullptr) {
    journal_->log({cycle, kind, p.pid(), journal_req(p), arg,
                   std::move(detail)});
  }
  telemetry::TraceLane* l = lane(core);
  if (l == nullptr) return;
  switch (kind) {
    case telemetry::JournalKind::kRestart:
      l->instant(telemetry::TraceEventType::kRestart, p.pid(), cycle, arg);
      break;
    case telemetry::JournalKind::kRerandEpoch:
      l->instant(telemetry::TraceEventType::kRerandEpoch, p.pid(), cycle,
                 arg);
      break;
    case telemetry::JournalKind::kLeak:
      l->instant(telemetry::TraceEventType::kLeak, p.pid(), cycle, arg);
      break;
    default:
      break;
  }
}

void Kernel::charge(uint32_t core, Process& p, uint64_t cycles) {
  cores_[core]->stall(cycles);
  if (profiling_) {
    profilers_[p.pid()]->add_external(profile::Cause::kContextSwitch, cycles);
  }
  // Kernel work spent on an in-flight request's tenant counts as part of
  // *running* the request (not queueing — the scheduler had already
  // picked it).
  if (p.request_active()) p.add_request_run(cycles);
}

FleetReport Kernel::make_report() const {
  FleetReport report;
  report.rounds = rounds_;
  report.preemptions = sched_.preemptions();
  report.restarts = restarts_;
  report.watchdog_kills = watchdog_kills_;
  report.injected_faults = injected_faults_;
  report.rerand_forced = rerand_forced_;
  report.rerand_regions_patched = rerand_regions_total_;
  report.rerand_entries_patched = rerand_entries_total_;
  for (uint32_t c = 0; c < shared_.cores(); ++c) {
    const auto& cs = ctx_[c]->stats();
    report.context_switches += cs.switches;
    report.drc_entries_flushed += cs.entries_flushed;
    report.bitmap_entries_flushed += cs.bitmap_entries_flushed;
    report.rerandomizations += cs.rerandomizations;

    CoreReport cr;
    cr.core = c;
    cr.cycles = cores_[c]->cycles();
    cr.instructions = cores_[c]->retired();
    cr.ipc = cr.cycles == 0 ? 0.0
                            : static_cast<double>(cr.instructions) /
                                  static_cast<double>(cr.cycles);
    cr.il1 = cores_[c]->mem().il1().stats();
    cr.dl1 = cores_[c]->mem().dl1().stats();
    cr.l2_pressure = cores_[c]->mem().l2_pressure();
    cr.drc = cores_[c]->drc().stats();
    report.cores.push_back(cr);
    report.fleet_cycles = std::max(report.fleet_cycles, cr.cycles);
    report.fleet_instructions += cr.instructions;
  }
  report.fleet_ipc = report.fleet_cycles == 0
                         ? 0.0
                         : static_cast<double>(report.fleet_instructions) /
                               static_cast<double>(report.fleet_cycles);
  report.shared_l2 = shared_.stats();
  report.l2_reads_by_pid = shared_.reads_by_asid();

  for (const auto& proc : procs_) {
    const Process& p = *proc;
    ProcessReport pr;
    pr.pid = p.pid();
    pr.workload = p.config().workload;
    pr.seed = p.config().seed;
    pr.core = static_cast<uint32_t>(p.core());
    pr.instructions = p.stats().instructions;
    pr.slices = p.stats().slices;
    pr.context_switches = p.stats().context_switches;
    pr.drc_flush_losses = p.stats().drc_entries_flushed;
    pr.bitmap_flush_losses = p.stats().bitmap_entries_flushed;
    pr.rerandomizations = p.stats().rerandomizations;
    pr.rerandomizations_deferred = p.stats().rerandomizations_deferred;
    pr.epoch = p.epoch();
    pr.halted = p.emulator().halted();
    pr.error = p.emulator().error();
    pr.exit = std::string(fault::exit_name(p.exit_status().code));
    pr.fault_kind = std::string(fault::kind_name(p.exit_status().trap.kind));
    pr.trap_pc = p.exit_status().trap.pc;
    pr.restarts = p.restarts();
    pr.injected = p.injector() != nullptr && p.injector()->applied();
    pr.finish_cycles = p.stats().finish_cycles;
    // A perturbed process (injected, watchdogged, or restarted onto a new
    // lineage) has no meaningful clean baseline to compare against.
    const bool perturbed = pr.injected || pr.restarts != 0 ||
                           p.exit_status().code ==
                               fault::ExitCode::kWatchdogKill;
    if (config_.measure_isolated && !perturbed) {
      measure_isolated(pr, p);
    }
    report.processes.push_back(pr);
  }
  return report;
}

void Kernel::measure_isolated(ProcessReport& report,
                              const Process& proc) const {
  // Re-derive the process's epoch-0 image from its config — the live
  // process may have re-randomized past it.
  rewriter::RandomizeOptions options;
  options.seed = proc.config().seed;
  const binary::Image image = rewriter::place(proc.program(), options);

  emu::RunLimits limits;
  limits.max_instructions = proc.config().max_instructions;
  limits.enforce_tags = proc.config().enforce_tags;
  const emu::RunResult isolated = emu::run_image(image, limits);

  report.arch_match =
      proc.finished() && isolated.halted == proc.emulator().halted() &&
      isolated.trap.kind == proc.emulator().trap().kind &&
      isolated.trap.pc == proc.emulator().trap().pc &&
      isolated.output == proc.emulator().output() &&
      isolated.stats.instructions == proc.stats().instructions;
  if (proc.epoch() == 0) {
    // Memory images are only comparable when the process never swapped
    // placements (re-randomization rewrites code bytes and tables).
    report.arch_match = report.arch_match &&
                        isolated.mem_checksum == proc.memory().checksum();
  }

  // Timing baseline: the same image alone on one core, with a private L2
  // of the shared cache's geometry (so the slowdown isolates *contention
  // and switching*, not capacity differences).
  sim::CpuConfig solo = config_.cpu;
  solo.mem.l2.size_bytes = config_.shared_l2.l2.size_bytes;
  solo.mem.l2.assoc = config_.shared_l2.l2.assoc;
  solo.mem.l2.line_bytes = config_.shared_l2.l2.line_bytes;
  solo.mem.l2.hit_latency = config_.shared_l2.l2.hit_latency;
  const sim::SimResult res =
      sim::simulate(image, proc.config().max_instructions, solo);
  report.isolated_cycles = res.cycles;
  report.slowdown = res.cycles == 0
                        ? 0.0
                        : static_cast<double>(report.finish_cycles) /
                              static_cast<double>(res.cycles);
}

}  // namespace vcfr::os
