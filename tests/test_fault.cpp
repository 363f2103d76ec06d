// Fault-injection subsystem tests: the typed trap model, the seeded
// injector, kernel containment (restart-with-rerandomize, watchdog), and
// the dependability campaign.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "binary/flat_set.hpp"
#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "isa/assembler.hpp"
#include "os/kernel.hpp"
#include "os/process.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::fault {
namespace {

// ---------------------------------------------------------------- model --

TEST(FaultModelTest, KindNamesAreStableAndDistinct) {
  const FaultKind kinds[] = {
      FaultKind::kNone,          FaultKind::kBadOpcode,
      FaultKind::kUnmappedFetch, FaultKind::kTranslationMismatch,
      FaultKind::kDivideByZero,  FaultKind::kBadSyscall,
      FaultKind::kWatchdog,      FaultKind::kRerandFailure,
  };
  std::unordered_map<std::string, int> seen;
  for (const FaultKind k : kinds) {
    const std::string name(kind_name(k));
    EXPECT_FALSE(name.empty());
    ++seen[name];
  }
  EXPECT_EQ(seen.size(), std::size(kinds)) << "kind names must be unique";
}

TEST(FaultModelTest, ExitCodesClassifyCrashes) {
  ExitStatus s;
  EXPECT_FALSE(s.crashed());
  s.code = ExitCode::kHalted;
  EXPECT_FALSE(s.crashed());
  s.code = ExitCode::kFaulted;
  EXPECT_TRUE(s.crashed());
  s.code = ExitCode::kWatchdogKill;
  EXPECT_TRUE(s.crashed());
  s.code = ExitCode::kBudget;
  EXPECT_FALSE(s.crashed());
  EXPECT_EQ(exit_name(ExitCode::kHalted), "halted");
  EXPECT_EQ(exit_name(ExitCode::kWatchdogKill), "watchdog_kill");
}

TEST(FaultModelTest, TrapDescribeIsByteStable) {
  Trap ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.describe(), "");

  Trap t;
  t.kind = FaultKind::kTranslationMismatch;
  t.pc = 0x40001234;
  t.detail = 0x1040;
  EXPECT_EQ(t.describe(),
            "randomized-tag violation: transfer to 0x1040 (pc=0x40001234)");
}

TEST(FaultSiteTest, SiteNamesRoundTrip) {
  for (const FaultSite site :
       {FaultSite::kCodeByte, FaultSite::kTranslationEntry,
        FaultSite::kRetSlot, FaultSite::kRetBitmap, FaultSite::kPayload}) {
    const auto back = parse_site(site_name(site));
    ASSERT_TRUE(back.has_value()) << site_name(site);
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(parse_site("alpha_particle").has_value());
}

// ------------------------------------------------------------- injector --

TEST(InjectorTest, DueFiresOnceAtTheBoundary) {
  FaultPlan plan;
  plan.at_instruction = 500;
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.due(499));
  EXPECT_TRUE(inj.due(500));
  EXPECT_TRUE(inj.due(501));
}

/// Runs a fresh bzip2/VCFR emulator to `steps` retired instructions and
/// applies `plan`, returning the injection record.
InjectionRecord inject_once(const FaultPlan& plan, uint64_t steps) {
  const binary::Image original = workloads::make("bzip2", 0);
  rewriter::RandomizeOptions opts;
  opts.seed = 9;
  const auto rr = rewriter::randomize(original, opts);
  binary::Image image = rr.vcfr;  // mutable: table corruption rewrites it
  binary::Memory mem;
  binary::load(image, mem);
  emu::Emulator emu(image, mem);
  emu.set_enforce_tags(true);
  for (uint64_t i = 0; i < steps; ++i) {
    if (!emu.step()) break;
  }
  FaultInjector inj(plan);
  inj.apply(image, mem, emu, &original);
  EXPECT_TRUE(inj.attempted());
  return inj.record();
}

TEST(InjectorTest, SelectionIsDeterministic) {
  for (const FaultSite site :
       {FaultSite::kCodeByte, FaultSite::kTranslationEntry,
        FaultSite::kRetSlot, FaultSite::kPayload}) {
    FaultPlan plan;
    plan.at_instruction = 1000;
    plan.site = site;
    plan.seed = 77;
    const InjectionRecord a = inject_once(plan, 1000);
    const InjectionRecord b = inject_once(plan, 1000);
    if (site != FaultSite::kRetSlot) {
      // ret_slot legitimately finds no target when the victim happens to
      // have no live call frame at the injection instant.
      EXPECT_TRUE(a.applied) << site_name(site);
    }
    EXPECT_EQ(a.applied, b.applied) << site_name(site);
    EXPECT_EQ(a.address, b.address) << site_name(site);
    EXPECT_EQ(a.bit, b.bit) << site_name(site);
    EXPECT_EQ(a.note, b.note) << site_name(site);
  }
}

TEST(InjectorTest, SeedSelectsDifferentTargets) {
  // Not a tautology for every pair of seeds, but these two must differ for
  // the campaign's per-trial seeding to mean anything.
  FaultPlan a;
  a.at_instruction = 1000;
  a.site = FaultSite::kCodeByte;
  a.seed = 1;
  FaultPlan b = a;
  b.seed = 2;
  const InjectionRecord ra = inject_once(a, 1000);
  const InjectionRecord rb = inject_once(b, 1000);
  EXPECT_TRUE(ra.applied);
  EXPECT_TRUE(rb.applied);
  EXPECT_TRUE(ra.address != rb.address || ra.bit != rb.bit);
}

// ---------------------------------------------- satellite: Process::bind --

TEST(ProcessTest, RerandomizeBeforeBindIsTypedFaultNotThrow) {
  os::ProcessConfig config;
  config.workload = "bzip2";
  config.scale = 0;
  os::Process proc(0, config,
                   std::make_shared<const rewriter::Program>(
                       rewriter::prepare(workloads::make("bzip2", 0))));
  bool ok = true;
  EXPECT_NO_THROW(ok = proc.try_rerandomize());
  EXPECT_FALSE(ok);
  EXPECT_EQ(proc.exit_status().code, ExitCode::kFaulted);
  EXPECT_EQ(proc.exit_status().trap.kind, FaultKind::kRerandFailure);
  EXPECT_TRUE(proc.exit_status().crashed());
}

// ------------------------------------- satellite: ret-bitmap corruption --

// A PIC-style callee that *reads* its return address through the §IV-C
// bitmap path. The clean run sees the original-space return address on
// every layout (auto-de-randomization on VCFR, the plain value on native)
// and takes the `fin` path. When the slot's bitmap mark is dropped, the
// VCFR load yields the raw randomized address (high half nonzero), and the
// victim forges an original-space in-code target from it — exactly the
// transfer the randomized-tag check (§IV-A) must refuse. Native has no
// architectural bitmap, so the same corruption changes nothing: the run
// completes with clean output — the silent case.
//
// The forged base is built as 0x800+0x800 on purpose: a literal 0x1000 is
// an instruction-start constant, which the static analysis would treat as
// a computed-dispatch base and pessimistically un-randomize the enclosing
// window, destroying the bitmap mark this test is about.
constexpr const char* kBitmapVictim = R"(
  .name bitmapvic
  .entry main
  .func main
  main:
    mov r1, 6
    call f
    out r1
    halt
  .func f
  f:
    mul r1, r1
    ld r2, [sp]      ; auto-de-randomized when the slot is marked (s IV-C)
    shr r2, 16
    cmp r2, 0
    jeq fin          ; original-space return address -> high half is zero
    ld r2, [sp]      ; mark lost: the raw randomized return address
    and r2, 0x1f
    add r2, 0x800
    add r2, 0x800    ; forge an original-space in-code target
    jmpr r2          ; VCFR must trap; native never reaches this path
  fin:
    ret
)";

struct BitmapRun {
  emu::RunResult result;
  bool mark_was_present = false;
};

/// Steps past `call f; mul` (3 instructions), optionally flips the bitmap
/// state of the return slot, and runs to completion.
BitmapRun run_bitmap_victim(const binary::Image& image, bool corrupt) {
  binary::Memory mem;
  binary::load(image, mem);
  emu::Emulator emu(image, mem);
  emu.set_enforce_tags(true);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(emu.step());
  BitmapRun out;
  if (corrupt) {
    const uint32_t slot = emu.state().regs[isa::kSp];
    out.mark_was_present = emu.corrupt_ret_bitmap(slot);
  }
  out.result = emu.run();
  return out;
}

TEST(RetBitmapTest, DroppedMarkTrapsOnVcfrAndIsSilentOnNative) {
  const binary::Image original = isa::assemble(kBitmapVictim);
  // The forged target range [0x1000, 0x101f] must stay inside the code.
  ASSERT_GE(original.code.size(), 0x20u);

  rewriter::RandomizeOptions opts;
  opts.seed = 2015;
  const auto rr = rewriter::randomize(original, opts);
  // The design depends on nothing leaking into the failover set: the
  // return site after `call f` must be randomized so the call leaves a
  // bitmap mark, and the forged target must not be exempt from the tag
  // check.
  ASSERT_TRUE(rr.vcfr.tables.unrandomized.empty());

  // Clean runs agree on every layout.
  const BitmapRun native_clean = run_bitmap_victim(original, false);
  const BitmapRun vcfr_clean = run_bitmap_victim(rr.vcfr, false);
  ASSERT_TRUE(native_clean.result.halted) << native_clean.result.error;
  ASSERT_TRUE(vcfr_clean.result.halted) << vcfr_clean.result.error;
  EXPECT_EQ(native_clean.result.output, std::vector<uint32_t>{36});
  EXPECT_EQ(vcfr_clean.result.output, native_clean.result.output);
  EXPECT_GE(vcfr_clean.result.stats.bitmap_autoderand_loads, 1u);

  // Same corruption, same instant, both layouts.
  const BitmapRun vcfr_bad = run_bitmap_victim(rr.vcfr, true);
  EXPECT_TRUE(vcfr_bad.mark_was_present)
      << "the call must have marked the return slot";
  EXPECT_FALSE(vcfr_bad.result.halted);
  EXPECT_EQ(vcfr_bad.result.trap.kind, FaultKind::kTranslationMismatch)
      << vcfr_bad.result.error;
  EXPECT_TRUE(rr.vcfr.in_code(vcfr_bad.result.trap.detail));

  const BitmapRun native_bad = run_bitmap_victim(original, true);
  EXPECT_FALSE(native_bad.mark_was_present) << "native has no marks to drop";
  ASSERT_TRUE(native_bad.result.halted) << native_bad.result.error;
  EXPECT_TRUE(native_bad.result.trap.ok());
  EXPECT_EQ(native_bad.result.output, native_clean.result.output)
      << "the corruption must pass silently on native";
}

// ------------------------------------------------- kernel containment --

os::ProcessConfig fleet_proc(const std::string& workload, uint64_t seed) {
  os::ProcessConfig pc;
  pc.workload = workload;
  pc.scale = 0;
  pc.seed = seed;
  return pc;
}

TEST(FleetContainmentTest, InjectedFaultRestartsVictimOthersBitIdentical) {
  const std::vector<std::string> workloads = {"bzip2", "libquantum", "hmmer",
                                              "sjeng"};
  os::KernelConfig kc;
  kc.cores = 4;
  kc.measure_isolated = false;

  // Baseline: the uninjected fleet.
  os::Kernel base(kc);
  for (size_t i = 0; i < workloads.size(); ++i) {
    base.spawn(fleet_proc(workloads[i], 11 * (i + 1)));
  }
  const os::FleetReport base_report = base.run();
  ASSERT_EQ(base_report.injected_faults, 0u);
  ASSERT_EQ(base_report.restarts, 0u);

  // Same fleet, pid 1 armed with a payload injection and a
  // restart-on-fault policy.
  os::Kernel kernel(kc);
  for (size_t i = 0; i < workloads.size(); ++i) {
    os::ProcessConfig pc = fleet_proc(workloads[i], 11 * (i + 1));
    pc.restart.mode = os::RestartPolicy::Mode::kOnFault;
    pc.restart.backoff_rounds = 2;
    if (i == 1) {
      pc.inject.site = FaultSite::kPayload;
      pc.inject.at_instruction = 5000;
      pc.inject.seed = 3;
      pc.inject_enabled = true;
    }
    kernel.spawn(pc);
  }
  // Snapshot the victim's first-life placement before running.
  const binary::DerandTable first_life_derand =
      kernel.randomization(1).tables.derand;

  const os::FleetReport report = kernel.run();

  // Containment: exactly one injection took effect, the victim crashed on
  // the tag check and came back once, nobody else was touched.
  EXPECT_EQ(report.injected_faults, 1u);
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_EQ(report.watchdog_kills, 0u);
  const os::ProcessReport& victim = report.processes[1];
  EXPECT_TRUE(victim.injected);
  EXPECT_EQ(victim.restarts, 1u);
  EXPECT_EQ(victim.exit, "halted") << "the restarted life must complete";
  EXPECT_GE(kernel.process(1).epoch(), 1u);

  // Restart-with-rerandomize: the replacement runs a fresh placement.
  EXPECT_FALSE(kernel.randomization(1).tables.derand ==
               first_life_derand);

  // The other tenants' architectural results are bit-identical to the
  // uninjected fleet — the fault never leaked across processes. The
  // restarted victim also converges to the clean result.
  for (const uint32_t pid : {0u, 1u, 2u, 3u}) {
    EXPECT_EQ(kernel.process(pid).emulator().output(),
              base.process(pid).emulator().output())
        << "pid " << pid;
    EXPECT_EQ(report.processes[pid].exit, "halted") << "pid " << pid;
  }
  for (const uint32_t pid : {0u, 2u, 3u}) {
    EXPECT_EQ(report.processes[pid].instructions,
              base_report.processes[pid].instructions)
        << "pid " << pid;
    EXPECT_FALSE(report.processes[pid].injected) << "pid " << pid;
    EXPECT_EQ(report.processes[pid].restarts, 0u) << "pid " << pid;
  }
}

TEST(FleetContainmentTest, WatchdogKillsRunawayProcess) {
  os::KernelConfig kc;
  kc.cores = 1;
  kc.measure_isolated = false;
  // The watchdog is checked at slice boundaries; a short slice pins the
  // kill near the budget instead of at the default 50k granularity.
  kc.sched.slice_instructions = 5'000;
  os::Kernel kernel(kc);
  os::ProcessConfig pc = fleet_proc("bzip2", 5);
  pc.watchdog_instructions = 10'000;  // far below bzip2's clean runtime
  kernel.spawn(pc);
  const os::FleetReport report = kernel.run();

  EXPECT_EQ(report.watchdog_kills, 1u);
  EXPECT_EQ(kernel.watchdog_kills(), 1u);
  const os::ProcessReport& proc = report.processes[0];
  EXPECT_EQ(proc.exit, "watchdog_kill");
  EXPECT_EQ(proc.fault_kind, "watchdog");
  EXPECT_EQ(kernel.process(0).exit_status().trap.kind, FaultKind::kWatchdog);
  // The kill lands within one slice of the watchdog boundary, not merely
  // "eventually".
  EXPECT_GE(proc.instructions, 10'000u);
  EXPECT_LT(proc.instructions, 15'000u);
}

TEST(FleetContainmentTest, WatchdogKillRestartsUnderOnFaultPolicy) {
  os::KernelConfig kc;
  kc.cores = 1;
  kc.measure_isolated = false;
  kc.sched.slice_instructions = 5'000;
  os::Kernel kernel(kc);
  os::ProcessConfig pc = fleet_proc("bzip2", 5);
  pc.watchdog_instructions = 10'000;
  pc.restart.mode = os::RestartPolicy::Mode::kOnFault;
  pc.restart.max_restarts = 2;
  pc.restart.backoff_rounds = 1;
  kernel.spawn(pc);
  const os::FleetReport report = kernel.run();

  // Every life trips the same watchdog, so the cap must stop the cycle.
  EXPECT_EQ(report.restarts, 2u);
  EXPECT_EQ(report.watchdog_kills, 3u);
  EXPECT_EQ(report.processes[0].exit, "watchdog_kill");
}

// ------------------------------------------------------------ campaign --

TEST(CampaignTest, ReportIsDeterministicAndVcfrDetectsMore) {
  CampaignConfig config;
  config.workloads = {"bzip2", "libquantum"};
  config.scale = 0;
  config.trials = 2;
  config.seed = 7;
  config.max_instructions = 2'000'000;

  const CampaignReport a = run_campaign(config);
  const CampaignReport b = run_campaign(config);
  EXPECT_EQ(a.to_json(), b.to_json());

  ASSERT_GT(a.total.trials, 0u);
  ASSERT_GT(a.total.applied, 0u);
  const OutcomeCounts* native = a.layout_counts("native");
  const OutcomeCounts* vcfr = a.layout_counts("vcfr");
  ASSERT_NE(native, nullptr);
  ASSERT_NE(vcfr, nullptr);
  // The paper's dependability claim, quantitatively: randomization turns
  // corruption into detected crashes native lets slide.
  EXPECT_GT(vcfr->detection_rate(), native->detection_rate());
  EXPECT_GT(vcfr->containment_rate(), native->containment_rate());

  // Detection-latency histogram is populated and consistent.
  EXPECT_GT(a.latency_count, 0u);
  uint64_t bucket_total = 0;
  for (const uint64_t n : a.latency_buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, a.latency_count);
  EXPECT_GE(a.latency_max, 1u);
  EXPECT_GE(a.latency_sum, a.latency_max);

  // Per-trial records survive into the report (keep_trials default).
  EXPECT_EQ(a.trials.size(), a.total.trials);
}

}  // namespace
}  // namespace vcfr::fault
