// The simulated OS kernel for a fleet of VCFR processes (§IV-B / §IV-D).
//
// Owns the process table, the per-core pipelines (sim::CpuCore) with their
// private IL1/DL1/DRC/bitmap caches, the shared L2 + DRAM they contend on
// (cache::SharedL2), and the round-robin scheduler. `run()` loops over
// scheduler rounds, one private method per phase:
//
//   1. dispatch_round: each core picks its queue head; an address-space
//      change (pid or epoch) flushes the DRC and return-bitmap cache via
//      core::ContextManager and charges the switch overhead;
//   2. execute_round: each active core runs one slice (run_slice), in
//      parallel across host threads, probing the frozen shared-L2 state;
//   3. commit_round: the shared L2 replays the logged requests in
//      deterministic order; each core's clock absorbs its penalty;
//   4. bookkeep (per active core): exits, restarts, re-randomization
//      firings (deferred at non-quiescent points), requeues.
//
// Per-process events go through note() (journal entry, plus the trace
// instant for restart / rerand_epoch / leak) and tenant-charged kernel
// stalls through charge(). make_report() optionally re-runs each process
// in isolation to verify arch results and compute its slowdown.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/shared_l2.hpp"
#include "core/context.hpp"
#include "os/fleet_stats.hpp"
#include "os/process.hpp"
#include "os/scheduler.hpp"
#include "os/worker_pool.hpp"
#include "profile/profiler.hpp"
#include "sim/cpu.hpp"
#include "telemetry/telemetry.hpp"

namespace vcfr::os {

struct KernelConfig {
  uint32_t cores = 1;
  SchedulerConfig sched{};
  /// Per-core config. Cores build no L2 or DRAM of their own (their L2
  /// traffic goes to shared_l2), so cpu.mem.l2 is unused: the isolated
  /// baseline takes its L2 geometry from shared_l2 too.
  sim::CpuConfig cpu{};
  cache::SharedL2Config shared_l2{};
  /// Pipeline cycles charged for a context switch (kernel entry, table
  /// install, state save/restore) on top of the flush cold-misses.
  uint64_t context_switch_cycles = 100;
  /// Re-simulate each process alone after the fleet run (arch_match +
  /// slowdown). Doubles the work; tests that only need scheduling
  /// semantics turn it off.
  bool measure_isolated = true;
  /// Safety valve for driver loops; 0 = run until every process finishes.
  uint64_t max_rounds = 0;
  /// Host threads in the execute-phase worker pool. 0 = auto (cores - 1:
  /// the kernel thread drives one task, each worker another). Purely a
  /// host-parallelism knob — simulated results are bit-identical for any
  /// value (results are collected in deterministic order; see
  /// os/worker_pool.hpp).
  uint32_t pool_workers = 0;
  /// Victim-core stall cycles charged per translation/code/stack entry a
  /// re-randomization patched (the simulated cost of the rewrite itself —
  /// what makes incremental rebuild cheaper than a full one). 0 keeps the
  /// legacy free-rerand timing model bit-exactly.
  uint64_t rerand_cost_per_entry = 0;
};

/// Event-driven serving extension point (src/serve/). A hook turns the
/// batch round loop into a request server: it injects work at round
/// boundaries (the only deterministic point — every core is parked
/// between slices), decides what a halt means (request completed vs
/// process exit), and keeps the loop alive while traffic remains even
/// when every tenant is blocked. All callbacks run on the kernel thread
/// in the serial phases, so a hook may freely touch processes and the
/// scheduler through the kernel's service API below.
class ServiceHook {
 public:
  /// What a clean halt of a process means to the service.
  enum class HaltAction : uint8_t {
    kFinish = 0,    // real exit: the kernel parks the process as finished
    kRunnable = 1,  // next request already delivered: requeue immediately
    kBlocked = 2,   // no pending work: park until Kernel::wake()
  };
  virtual ~ServiceHook() = default;
  /// Start of every scheduler round (serial, after queued restarts were
  /// serviced, before dispatch): generate/deliver requests, fast-forward
  /// idle cores, poll for crashed tenants.
  virtual void on_round(uint64_t round) = 0;
  /// A dispatched process halted this round (serial bookkeeping phase).
  /// `core_cycles` is its home core's clock — the completion timestamp.
  virtual HaltAction on_halt(uint32_t pid, uint64_t core_cycles) = 0;
  /// Keeps the round loop alive while true (e.g. future arrivals exist
  /// even though every queue is empty and every tenant is blocked).
  [[nodiscard]] virtual bool active() const = 0;
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config);

  /// Creates a process, shards it onto its home core, and returns its pid
  /// (pids are dense, starting at 0).
  uint32_t spawn(const ProcessConfig& config);

  /// Attaches a telemetry session. Must be called before `run()` (every
  /// process spawned so far and later is registered when the run
  /// starts). The session must outlive the kernel's run. Registry scope
  /// layout: fleet.coreN.*, fleet.procN.*, fleet.shared_l2.*,
  /// fleet.sched.*; trace lanes: one per core plus a kernel lane; the
  /// sampler is polled once per scheduler round at the fleet clock.
  void attach_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }

  /// Enables per-tenant guest profiling. Must be called before `run()`:
  /// one Profiler per process is created at run start and fed by whatever
  /// core the process is dispatched on. Kernel-caused cycles are
  /// attributed explicitly — context-switch overhead as an external cost
  /// and shared-L2 commit penalties per interfering asid — so each core's
  /// tenant profiles sum exactly to that core's cycle count.
  void enable_profiling() { profiling_ = true; }
  /// The pid's profile after `run()`; null when profiling was not enabled.
  [[nodiscard]] const profile::Profiler* profiler(uint32_t pid) const {
    return pid < profilers_.size() ? profilers_[pid].get() : nullptr;
  }

  /// Attaches the serving hook (src/serve/). Must be called before
  /// `run()`; the hook must outlive the run. Null detaches.
  void set_service(ServiceHook* service) { service_ = service; }

  // ---- service API (valid from ServiceHook callbacks) --------------------
  /// `core`'s pipeline clock — the time base for request timestamps of
  /// tenants homed on that core.
  [[nodiscard]] uint64_t core_now(uint32_t core) const {
    return cores_[core]->now();
  }
  /// Fast-forwards an *idle* core's clock to `cycle` (no-op when already
  /// past it). Without this an all-blocked core's clock would stand still
  /// and arrivals scheduled on it would never come due.
  void advance_core(uint32_t core, uint64_t cycle);
  /// Unparks a blocked tenant onto its home core's run queue (the hook
  /// delivers a request via Process::rearm first).
  void wake(uint32_t pid);
  /// Mutable process access for request delivery (Process::rearm).
  [[nodiscard]] Process& process_mut(uint32_t pid) { return *procs_[pid]; }
  /// True when `pid` sits in the restart backoff queue (crashed, but the
  /// kernel will re-image it — the hook should hold its queued requests).
  [[nodiscard]] bool restart_pending(uint32_t pid) const;

  /// Runs the fleet to completion and returns the report. Single-shot.
  FleetReport run();

  // ---- checkpoint / restore ----------------------------------------------
  /// Arms a checkpoint: at the end of scheduler round `round` the full
  /// fleet state (kernel counters, scheduler queues, shared L2 + DRAM,
  /// every core pipeline, every process) is serialized to `path`. Round
  /// boundaries are the only consistent cut — every port log is empty,
  /// every core is parked, all state is member state. 0 disarms.
  /// Unsupported in combination with profiling or a serving hook (both
  /// hold host-side state outside the checkpoint's closure): run() throws
  /// std::logic_error when either is combined with a checkpoint or a
  /// restore.
  void set_checkpoint(uint64_t round, std::string path) {
    checkpoint_round_ = round;
    checkpoint_path_ = std::move(path);
  }
  /// Restores a checkpoint written by set_checkpoint. Must be called
  /// after every spawn() (the process table re-derives images from the
  /// same configs) and before run(); the continued run's final stats are
  /// bit-identical to the uninterrupted run's. Throws binary::FormatError
  /// on a corrupt stream or a configuration mismatch (the checkpoint
  /// carries a digest of the fleet configuration — worker-pool sizing
  /// excluded, since it cannot affect simulated state).
  void restore(std::istream& in);
  /// Checkpoints written / restored by this kernel (kernel.checkpoint.*).
  [[nodiscard]] uint64_t checkpoint_writes() const {
    return checkpoint_writes_;
  }
  [[nodiscard]] uint64_t checkpoint_restores() const {
    return checkpoint_restores_;
  }

  [[nodiscard]] size_t process_count() const { return procs_.size(); }
  [[nodiscard]] const Process& process(uint32_t pid) const {
    return *procs_[pid];
  }
  /// The pid's current randomization (its VCFR image; tables.rand is the
  /// placement) — lets diversity studies inspect the fleet without
  /// running it.
  [[nodiscard]] const binary::Image& randomization(uint32_t pid) const {
    return procs_[pid]->randomization();
  }
  [[nodiscard]] const cache::SharedL2& shared_l2() const { return shared_; }
  [[nodiscard]] const KernelConfig& config() const { return config_; }

  /// Execute-phase rounds dispatched through the persistent worker pool
  /// (0 when the run never had more than one active core — everything ran
  /// inline).
  [[nodiscard]] uint64_t pool_rounds() const { return pool_rounds_; }
  /// Host threads the pool owns (0 until run() first needs it).
  [[nodiscard]] uint32_t pool_workers() const {
    return pool_ == nullptr ? 0 : pool_->workers();
  }

  /// Processes the kernel restarted (re-randomize-on-crash firings).
  [[nodiscard]] uint64_t restarts() const { return restarts_; }
  /// Processes killed for exceeding their watchdog instruction budget.
  [[nodiscard]] uint64_t watchdog_kills() const { return watchdog_kills_; }
  /// Forced-quiescence re-randomizations (deferral cap expired and the
  /// placement swap proceeded around pinned registers; kernel.rerand.forced).
  [[nodiscard]] uint64_t rerand_forced() const { return rerand_forced_; }
  /// Taint-sink firings drained from tainted tenants (fleet.leak.detected).
  [[nodiscard]] uint64_t leaks_detected() const { return leaks_detected_; }
  /// Re-randomizations scheduled because a leak fired (fleet.leak.rerands;
  /// the victim only — fleet-scope co-tenant re-keys are not counted).
  [[nodiscard]] uint64_t leak_rerands() const { return leak_rerands_; }

 private:
  /// A crashed (or, under kAlways, halted) process waiting out its
  /// exponential backoff before the kernel re-images it.
  struct PendingRestart {
    uint32_t pid = 0;
    uint64_t due_round = 0;
  };

  // One scheduler round, phase by phase (see the file comment).
  void dispatch_round();
  void execute_round();
  /// Worker-thread safe: touches only `core`, its process and its lane.
  void run_slice(uint32_t core);
  void commit_round();
  void bookkeep(uint32_t core);
  [[nodiscard]] FleetReport make_report() const;

  /// Dispatches `pid` on `core`: context switch (flush + overhead) when
  /// the address space changed, then pipeline install.
  void dispatch(uint32_t core, Process& proc);
  /// Applies a re-randomization `p.try_rerandomize()` just performed.
  void fire_rerand(uint32_t core, Process& p);
  /// Marks `p` for a fresh placement; fleet scope also marks every live
  /// co-tenant.
  void schedule_rerand(Process& p);
  /// Journals a per-process event at `core`'s cycle; restart,
  /// rerand_epoch and leak also land as an instant on `core`'s lane.
  void note(uint32_t core, telemetry::JournalKind kind, const Process& p,
            uint64_t arg, std::string detail = {});
  /// A tenant-charged kernel stall (context switch, re-rand rewrite):
  /// the core stall, the profiler external and the request's run time.
  void charge(uint32_t core, Process& p, uint64_t cycles);
  /// `core`'s trace lane, or null when tracing is off.
  [[nodiscard]] telemetry::TraceLane* lane(uint32_t core) const {
    return lanes_.empty() ? nullptr : lanes_[core];
  }
  /// Containment decision for a finished process: queue a restart when its
  /// policy says so and the cap allows (backoff doubles per restart).
  void consider_restart(const Process& proc);
  /// Restarts every queued process whose backoff elapsed and requeues it
  /// on its home core.
  void service_restarts();
  /// Isolated re-run of one finished process (arch_match + slowdown).
  void measure_isolated(ProcessReport& report, const Process& proc) const;
  /// Registers every core/process/shared structure with the attached
  /// telemetry session and creates the trace lanes (run() entry).
  void setup_telemetry();
  /// The checkpoint field list (format v2): magic, version, config
  /// digest, kernel counters, pending restarts, scheduler queues, shared
  /// L2, every core and its context, every process. Saving or loading
  /// per the direction of `io`.
  void state(binary::StateIo& io);
  /// Serializes the full fleet state to checkpoint_path_ (end of round).
  void write_checkpoint();
  /// FNV-1a over the simulation-relevant configuration (kernel + every
  /// process). pool_workers is excluded: restoring under a different
  /// worker count is allowed and bit-identical.
  [[nodiscard]] uint64_t config_digest() const;
  /// The fleet-wide clock: the slowest core's cycle horizon.
  [[nodiscard]] uint64_t fleet_now() const;

  KernelConfig config_;
  cache::SharedL2 shared_;
  Scheduler sched_;
  std::vector<std::unique_ptr<sim::CpuCore>> cores_;
  std::vector<std::unique_ptr<core::ContextManager>> ctx_;
  /// (pid, epoch) currently installed in each core's pipeline, or -1.
  std::vector<std::pair<int64_t, int64_t>> installed_;
  std::vector<std::unique_ptr<Process>> procs_;
  /// One prepared program per (workload, scale) spawned: every process of
  /// it shares the image and its analysis and only places it per seed.
  std::map<std::pair<std::string, int>,
           std::shared_ptr<const rewriter::Program>>
      programs_;
  uint64_t rounds_ = 0;
  uint64_t restarts_ = 0;
  uint64_t watchdog_kills_ = 0;
  uint64_t rerand_forced_ = 0;
  /// Leak observability (emu/taint.hpp): sink firings drained and the
  /// re-rands they scheduled under RerandomizePolicy::on_leak.
  uint64_t leaks_detected_ = 0;
  uint64_t leak_rerands_ = 0;
  /// Total regions / entries live re-randomizations patched (fleet-wide;
  /// the per-firing distribution is in the rerand.* histograms).
  uint64_t rerand_regions_total_ = 0;
  uint64_t rerand_entries_total_ = 0;
  /// Injections that took effect (fault.injected.* counts by site).
  uint64_t injected_faults_ = 0;
  std::vector<PendingRestart> pending_restarts_;
  /// Per-round state: each core's dispatched pid (-1 = idle), the cores
  /// running a slice, and (profiling only) commit penalty by asid.
  std::vector<int> running_;
  std::vector<uint32_t> active_;
  std::vector<std::map<uint32_t, uint64_t>> blame_;
  /// fault.detect_latency (injection → trap, in instructions); null when
  /// telemetry is not attached.
  telemetry::Histogram* detect_latency_hist_ = nullptr;
  /// rerand.{latency,regions_patched,entries_patched} — per-firing cost of
  /// live re-randomization (null unless telemetry is attached and some
  /// process has a re-rand policy armed).
  telemetry::Histogram* rerand_latency_hist_ = nullptr;
  telemetry::Histogram* rerand_regions_hist_ = nullptr;
  telemetry::Histogram* rerand_entries_hist_ = nullptr;
  /// fleet.leak.depth — propagation depth of each drained leak (null
  /// unless telemetry is attached and some process has taint armed).
  telemetry::Histogram* leak_depth_hist_ = nullptr;
  /// Persistent execute-phase workers, created lazily on the first round
  /// that has two or more active cores. Replaces per-round thread
  /// spawn/join; see os/worker_pool.hpp for the determinism argument.
  std::unique_ptr<WorkerPool> pool_;
  /// Execute-phase pool dispatches.
  uint64_t pool_rounds_ = 0;

  // Checkpoint / restore (see set_checkpoint).
  uint64_t checkpoint_round_ = 0;
  std::string checkpoint_path_;
  uint64_t checkpoint_writes_ = 0;
  uint64_t checkpoint_restores_ = 0;
  /// Set by restore(); run() journals the resumption.
  bool restored_ = false;

  ServiceHook* service_ = nullptr;

  telemetry::Telemetry* telemetry_ = nullptr;
  /// Per-core trace lanes plus one kernel lane (null when tracing is off).
  std::vector<telemetry::TraceLane*> lanes_;
  telemetry::TraceLane* kernel_lane_ = nullptr;
  /// Flight recorder (null when the telemetry session has none): the
  /// kernel journals spawns, faults, watchdog/budget kills, restarts,
  /// and re-rand epochs with the in-flight request id when one exists.
  telemetry::Journal* journal_ = nullptr;

  /// Per-tenant profilers, indexed by pid (empty unless enable_profiling).
  bool profiling_ = false;
  std::vector<std::unique_ptr<profile::Profiler>> profilers_;
};

}  // namespace vcfr::os
