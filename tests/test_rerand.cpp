// Continuous re-randomization under load (ARCHITECTURE.md §15).
//
// The incremental rebuild and epoch-tagged invalidation are *timing*
// reorganizations of the §V-C live re-randomization: they may change
// when cycles are spent, but never what the programs compute. These
// differentials pin that down — incremental vs full rebuild, epoch tags
// vs eager flush, across seeds and under fault injection — and verify
// the trap-triggered and forced-quiescence paths through the journal.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "os/kernel.hpp"
#include "rewriter/randomizer.hpp"
#include "telemetry/telemetry.hpp"

namespace vcfr::os {
namespace {

constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

KernelConfig small_fleet(uint32_t cores) {
  KernelConfig kc;
  kc.cores = cores;
  kc.sched.slice_instructions = 2'000;
  kc.measure_isolated = true;  // every proc self-checks vs its solo run
  return kc;
}

ProcessConfig tenant(const char* workload, uint64_t seed,
                     const RerandomizePolicy& rp) {
  ProcessConfig pc;
  pc.workload = workload;
  pc.scale = 0;
  pc.seed = seed;
  pc.max_instructions = 20'000;
  pc.rerandomize = rp;
  return pc;
}

void spawn_mix(Kernel& kernel, uint32_t procs, uint64_t seed,
               const RerandomizePolicy& rp, bool inject_pid1 = false) {
  const char* mix[] = {"bzip2", "gcc", "mcf", "hmmer"};
  for (uint32_t i = 0; i < procs; ++i) {
    ProcessConfig pc = tenant(mix[i % 4], seed ^ (kSeedMix * (i + 1)), rp);
    if (inject_pid1) {
      pc.restart.mode = RestartPolicy::Mode::kOnFault;
      pc.restart.backoff_rounds = 2;
      if (i == 1) {
        pc.inject.site = fault::FaultSite::kPayload;
        pc.inject.at_instruction = 5'000;
        pc.inject.seed = 3;
        pc.inject_enabled = true;
      }
    }
    kernel.spawn(pc);
  }
}

RerandomizePolicy periodic(uint32_t every,
                           RerandomizePolicy::Rebuild rebuild,
                           bool epoch_tags = false) {
  RerandomizePolicy rp;
  rp.every_slices = every;
  rp.rebuild = rebuild;
  rp.epoch_tags = epoch_tags;
  rp.max_defer = 4;
  return rp;
}

/// The architectural outcome of a fleet run, one line per process —
/// everything a rebuild-mode change must NOT move. Timing-dependent
/// fields (cycles, flush losses, deferral counts) are deliberately
/// absent; placement-dependent ones (trap pc) too.
std::string arch_signature(const FleetReport& report) {
  std::ostringstream out;
  for (const ProcessReport& p : report.processes) {
    out << p.pid << ' ' << p.workload << ' ' << p.instructions << ' '
        << p.exit << ' ' << p.fault_kind << ' ' << p.halted << ' '
        << p.restarts << ' ' << p.arch_match << '\n';
  }
  return out.str();
}

/// The referring sites of a tenant's memory against its placement; a code
/// byte the tenant's own injector flipped is exempt.
std::string check_sites(const Process& p) {
  std::optional<uint32_t> flipped;
  const fault::FaultInjector* inj = p.injector();
  if (inj != nullptr && inj->applied() &&
      inj->record().site == fault::FaultSite::kCodeByte) {
    flipped = inj->record().address;
  }
  return rewriter::check_referring_sites(p.program(), p.randomization(),
                                         p.memory(), flipped);
}

FleetReport run_mix(const RerandomizePolicy& rp, uint64_t seed,
                    bool inject_pid1 = false, uint32_t cores = 2) {
  Kernel kernel(small_fleet(cores));
  spawn_mix(kernel, 4, seed, rp, inject_pid1);
  FleetReport report = kernel.run();
  // After the last firing, every tenant's code refers to its placement.
  for (uint32_t pid = 0; pid < kernel.process_count(); ++pid) {
    EXPECT_EQ(check_sites(kernel.process(pid)), "")
        << "pid " << pid << " seed " << seed;
  }
  return report;
}

// ------------------------------------------ incremental differentials --

// Incremental rebuild patches a subset of pages against the previous
// placement instead of swapping the whole image; the architectural
// results must be byte-identical to the full rebuild across seeds, and
// every process must still match its isolated solo run.
TEST(RerandDifferentialTest, IncrementalMatchesFullArchResults) {
  using Rebuild = RerandomizePolicy::Rebuild;
  for (const uint64_t seed : {7ull, 1234ull}) {
    const FleetReport full = run_mix(periodic(4, Rebuild::kFull), seed);
    const FleetReport inc =
        run_mix(periodic(4, Rebuild::kIncremental, true), seed);
    EXPECT_EQ(arch_signature(full), arch_signature(inc)) << "seed " << seed;
    EXPECT_GT(inc.rerandomizations, 0u);
    EXPECT_GT(inc.rerand_entries_patched, 0u);
    for (const ProcessReport& p : inc.processes) {
      EXPECT_TRUE(p.arch_match) << "pid " << p.pid << " seed " << seed;
    }
  }
}

// Same with a live corruption + restart in the mix: the injected trap,
// the re-imaged replacement, and the post-restart firings must land on
// identical architectural outcomes in both modes.
TEST(RerandDifferentialTest, IncrementalMatchesFullUnderInjection) {
  using Rebuild = RerandomizePolicy::Rebuild;
  const FleetReport full = run_mix(periodic(4, Rebuild::kFull), 7, true);
  const FleetReport inc =
      run_mix(periodic(4, Rebuild::kIncremental, true), 7, true);
  EXPECT_EQ(arch_signature(full), arch_signature(inc));
  EXPECT_EQ(full.injected_faults, 1u);
  EXPECT_EQ(inc.injected_faults, 1u);
  EXPECT_GT(inc.restarts, 0u);
}

// Epoch tags keep warm DRC/decode state across a firing instead of
// flushing it eagerly: cheaper, never different. The tagged run must
// produce the same architectural results while flushing strictly fewer
// translations. One proc per core — with time-slicing the next context
// switch would flush the same entries anyway and merely re-attribute
// the loss, so the pinned shape is where the tags actually pay.
TEST(RerandDifferentialTest, EpochTagsPreserveArchAndSkipFlushes) {
  using Rebuild = RerandomizePolicy::Rebuild;
  const FleetReport flushed =
      run_mix(periodic(4, Rebuild::kIncremental, false), 7, false, 4);
  const FleetReport tagged =
      run_mix(periodic(4, Rebuild::kIncremental, true), 7, false, 4);
  EXPECT_EQ(arch_signature(flushed), arch_signature(tagged));
  EXPECT_GT(flushed.rerandomizations, 0u);
  EXPECT_GT(flushed.drc_entries_flushed, 0u)
      << "eager-flush control must actually flush";
  EXPECT_LT(tagged.drc_entries_flushed, flushed.drc_entries_flushed);
}

// The simulated rewrite cost (rerand_cost_per_entry) stalls the victim
// core but is invisible architecturally.
TEST(RerandDifferentialTest, RerandCostChargesCyclesNotSemantics) {
  using Rebuild = RerandomizePolicy::Rebuild;
  const RerandomizePolicy rp = periodic(4, Rebuild::kIncremental, true);
  KernelConfig kc = small_fleet(2);
  Kernel free_kernel(kc);
  spawn_mix(free_kernel, 4, 7, rp);
  const FleetReport free_run = free_kernel.run();

  kc.rerand_cost_per_entry = 8;
  Kernel paid_kernel(kc);
  spawn_mix(paid_kernel, 4, 7, rp);
  const FleetReport paid_run = paid_kernel.run();

  EXPECT_EQ(arch_signature(free_run), arch_signature(paid_run));
  EXPECT_GT(paid_run.fleet_cycles, free_run.fleet_cycles)
      << "patching " << paid_run.rerand_entries_patched
      << " entries must cost cycles";
}

// --------------------------------------------------- forced quiescence --

// With max_defer set, a firing that keeps hitting non-quiescent points
// (a register holding a randomized-space address) eventually proceeds
// anyway, keeping the held addresses alive as derand aliases — and the
// kernel journals every forced swap.
TEST(RerandForcedTest, DeferralCapForcesQuiescence) {
  telemetry::TelemetryConfig tc;
  tc.journal = true;
  telemetry::Telemetry tel(tc);

  RerandomizePolicy rp =
      periodic(1, RerandomizePolicy::Rebuild::kIncremental, true);
  rp.max_defer = 2;  // one deferral allowed, a second consecutive forces
  KernelConfig kc = small_fleet(2);
  // Short slices sample many mid-call boundaries, so firings frequently
  // land on a register-held randomized address (a non-quiescent point).
  kc.sched.slice_instructions = 513;
  Kernel kernel(kc);
  kernel.attach_telemetry(&tel);
  spawn_mix(kernel, 4, 7, rp);
  const FleetReport report = kernel.run();

  uint64_t deferred = 0;
  for (const ProcessReport& p : report.processes) {
    deferred += p.rerandomizations_deferred;
  }
  ASSERT_GT(deferred, 0u) << "mix never hit a non-quiescent point; the "
                             "forced path was not exercised";
  EXPECT_GT(kernel.rerand_forced(), 0u);
  EXPECT_EQ(report.rerand_forced, kernel.rerand_forced());

  uint64_t journaled = 0;
  for (const telemetry::JournalEntry& e : tel.journal()->entries()) {
    if (e.kind == telemetry::JournalKind::kRerandForced) ++journaled;
  }
  EXPECT_EQ(journaled, kernel.rerand_forced());

  // Every tenant's final placement, forced aliases included, passes the
  // structural verifier under the geometry os::Process places with; at
  // least one tenant ends with an alias still live.
  size_t live_aliases = 0;
  for (uint32_t pid = 0; pid < kernel.process_count(); ++pid) {
    const Process& p = kernel.process(pid);
    EXPECT_EQ(rewriter::check_placement(p.program(), p.randomization(),
                                        rewriter::RandomizeOptions{}),
              "")
        << "pid " << pid;
    EXPECT_EQ(check_sites(p), "") << "pid " << pid;
    live_aliases += p.rerand_aliases().size();
  }
  EXPECT_GT(live_aliases, 0u);
}

// ------------------------------------------------- one emulator per life --

// A full firing patches the running process in place, so the emulator —
// and with it the instruction count an injection record and a trap are
// stamped with — lives for the whole life. Forcing a firing every slice
// puts several between the start of the life and the injection at 5000,
// and the payload traps on its first step: both clocks must read the life
// clock, not the count since the last firing.
TEST(RerandFullTest, InjectionAndTrapCountFromLifeStart) {
  KernelConfig kc;
  kc.cores = 1;
  kc.sched.slice_instructions = 2'000;
  Kernel kernel(kc);
  RerandomizePolicy rp;
  rp.every_slices = 1;
  rp.max_defer = 1;
  ProcessConfig pc = tenant("bzip2", 7, rp);
  pc.inject.site = fault::FaultSite::kPayload;
  pc.inject.at_instruction = 5'000;
  pc.inject.seed = 3;
  pc.inject_enabled = true;
  kernel.spawn(pc);
  const FleetReport report = kernel.run();

  const Process& victim = kernel.process(0);
  EXPECT_GE(report.rerandomizations, 2u);
  ASSERT_NE(victim.injector(), nullptr);
  ASSERT_TRUE(victim.injector()->applied());
  ASSERT_TRUE(victim.exit_status().crashed());
  EXPECT_EQ(victim.injector()->record().at_instruction,
            pc.inject.at_instruction);
  EXPECT_EQ(victim.exit_status().trap.instruction,
            victim.life_instructions());
}

// ------------------------------------------------------ re-rand-on-trap --

struct TrapTrial {
  FleetReport report;
  std::vector<telemetry::JournalEntry> journal;
};

TrapTrial trap_trial(bool on_trap, RerandomizePolicy::Scope scope) {
  telemetry::TelemetryConfig tc;
  tc.journal = true;
  telemetry::Telemetry tel(tc);

  Kernel kernel(small_fleet(2));
  kernel.attach_telemetry(&tel);
  // gcc halts well inside the budget, so a recovered victim finishes;
  // the payload pivot trips the §IV-A detector (translation mismatch)
  // the moment it fires.
  const char* mix[] = {"gcc", "bzip2"};
  for (uint32_t i = 0; i < 2; ++i) {
    ProcessConfig pc;
    pc.workload = mix[i];
    pc.scale = 0;
    pc.seed = 7 ^ (kSeedMix * (i + 1));
    pc.max_instructions = 40'000;
    pc.rerandomize.rebuild = RerandomizePolicy::Rebuild::kIncremental;
    pc.rerandomize.epoch_tags = true;
    pc.rerandomize.on_trap = on_trap;
    pc.rerandomize.scope = scope;
    pc.rerandomize.max_defer = 4;
    // No restart policy of its own: only the trap-triggered fresh
    // placement can bring the victim back.
    if (i == 0) {
      pc.inject.site = fault::FaultSite::kPayload;
      pc.inject.at_instruction = 5'000;
      pc.inject.seed = 3;
      pc.inject_enabled = true;
    }
    kernel.spawn(pc);
  }
  TrapTrial out;
  out.report = kernel.run();
  out.journal = tel.journal()->entries();
  return out;
}

// Without --rerand-on-trap a victim with no restart policy stays down
// after the attack-signal trap. With it, the trap itself schedules a
// fresh placement: the journal must show the kFault immediately answered
// by a kRestart for the same pid, and the victim must finish its work.
TEST(RerandOnTrapTest, TrapIsAnsweredByFreshPlacement) {
  const TrapTrial off = trap_trial(false, RerandomizePolicy::Scope::kProc);
  ASSERT_EQ(off.report.processes[0].exit, "faulted")
      << "injection must down the victim in the control run";
  EXPECT_EQ(off.report.processes[0].restarts, 0u);

  const TrapTrial on = trap_trial(true, RerandomizePolicy::Scope::kProc);
  EXPECT_EQ(on.report.processes[0].exit, "halted")
      << "on-trap re-rand must recover the victim";
  EXPECT_GE(on.report.processes[0].restarts, 1u);

  // Journal ordering: every attack-signal kFault for pid 0 is followed
  // by a kRestart for pid 0 (the fresh placement) before the run ends.
  bool fault_seen = false;
  bool answered = false;
  for (const telemetry::JournalEntry& e : on.journal) {
    if (e.pid != 0) continue;
    if (e.kind == telemetry::JournalKind::kFault) {
      fault_seen = true;
      answered = false;
    } else if (fault_seen && e.kind == telemetry::JournalKind::kRestart) {
      answered = true;
    }
  }
  EXPECT_TRUE(fault_seen);
  EXPECT_TRUE(answered) << "a trap was never answered by a restart";
}

// Fleet scope: the victim's trap also schedules a swap for every live
// co-tenant, even one with no periodic policy of its own.
TEST(RerandOnTrapTest, FleetScopeMovesCoTenants) {
  const TrapTrial proc = trap_trial(true, RerandomizePolicy::Scope::kProc);
  EXPECT_EQ(proc.report.processes[1].rerandomizations, 0u)
      << "proc scope must leave the co-tenant's placement alone";

  const TrapTrial fleet = trap_trial(true, RerandomizePolicy::Scope::kFleet);
  EXPECT_GE(fleet.report.processes[1].rerandomizations, 1u)
      << "fleet scope must move the co-tenant too";
  EXPECT_EQ(fleet.report.processes[0].exit, "halted")
      << "the fleet-wide swap must not cost the victim its recovery";
}

}  // namespace
}  // namespace vcfr::os
