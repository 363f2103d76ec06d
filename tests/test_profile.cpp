// Tests for the guest-level profiler (src/profile/): the cycle
// conservation invariant (cause buckets sum exactly to the core's cycle
// count) across the whole workload suite, UPC fold-back resolution on a
// large randomized binary, shadow-stack call attribution, observer
// neutrality, byte-identical same-seed exports, and fleet per-tenant
// profiles (per-core conservation + shared-L2 contention blame).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "isa/assembler.hpp"
#include "os/kernel.hpp"
#include "profile/profiler.hpp"
#include "rewriter/randomizer.hpp"
#include "sim/cpu.hpp"
#include "workloads/suite.hpp"

namespace vcfr::profile {
namespace {

sim::CpuConfig quiet() {
  sim::CpuConfig c;
  c.mem.dram.t_refi = 0;
  return c;
}

uint64_t cause_sum(const Profiler& prof) {
  uint64_t sum = 0;
  for (size_t c = 0; c < kNumCauses; ++c) {
    sum += prof.cause_cycles(static_cast<Cause>(c));
  }
  return sum;
}

// Every simulated cycle lands in exactly one cause bucket: for every
// workload in the suite, both native and randomized, the attributed total
// and the bucket sum equal the simulator's cycle count exactly.
TEST(ProfilerConservationTest, BucketsSumToCoreCyclesAcrossSuite) {
  for (const std::string& name : workloads::spec_names()) {
    const binary::Image orig = workloads::make(name, 0);

    Profiler native(orig);
    const auto nr = sim::simulate(orig, 5'000'000, quiet(), nullptr, &native);
    ASSERT_TRUE(nr.halted) << name;
    EXPECT_EQ(native.attributed_cycles(), nr.cycles) << name << " native";
    EXPECT_EQ(cause_sum(native), nr.cycles) << name << " native";
    EXPECT_EQ(native.instructions(), nr.instructions) << name << " native";

    rewriter::RandomizeOptions opts;
    opts.seed = 7;
    const auto rr = rewriter::randomize(orig, opts);
    Profiler vcfr(rr.vcfr);
    const auto vr =
        sim::simulate(rr.vcfr, 5'000'000, quiet(), nullptr, &vcfr);
    ASSERT_TRUE(vr.halted) << name;
    EXPECT_EQ(vcfr.attributed_cycles(), vr.cycles) << name << " vcfr";
    EXPECT_EQ(cause_sum(vcfr), vr.cycles) << name << " vcfr";
    EXPECT_EQ(vcfr.instructions(), vr.instructions) << name << " vcfr";
    // Randomized runs exercise the VCFR-specific buckets somewhere in the
    // suite; native runs must never touch them.
    EXPECT_EQ(native.cause_cycles(Cause::kDrcMiss) +
                  native.cause_cycles(Cause::kTableWalk) +
                  native.cause_cycles(Cause::kRetBitmap),
              0u)
        << name << " native must have no DRC activity";
  }
}

// Fold-back through the translation tables: on the big branchy workload,
// nearly every cycle resolves to a named original-space function even
// though execution runs in the randomized space.
TEST(ProfilerResolutionTest, GccScale2ResolvesAtLeast95Percent) {
  const binary::Image orig = workloads::make("gcc", 2);
  rewriter::RandomizeOptions opts;
  opts.seed = 7;
  const auto rr = rewriter::randomize(orig, opts);
  Profiler prof(rr.vcfr);
  const auto r = sim::simulate(rr.vcfr, 50'000'000, quiet(), nullptr, &prof);
  ASSERT_TRUE(r.halted);
  EXPECT_GE(prof.resolved_fraction(), 0.95);
  EXPECT_EQ(prof.attributed_cycles(), r.cycles);
}

// A naive-ILR image runs at its randomized addresses; the profiler folds
// every pc (and every call's target) back through the derand table, so
// each function retires exactly the instructions it retires under the
// VCFR image of the same placement.
TEST(ProfilerResolutionTest, NaiveImageFoldsBackLikeItsVcfrPlacement) {
  for (const std::string name : {"gcc", "xalan", "sjeng"}) {
    rewriter::RandomizeOptions opts;
    opts.seed = 7;
    const auto rr = rewriter::randomize(workloads::make(name, 0), opts);
    const binary::Image naive = rewriter::naive_ilr(rr.vcfr);
    Profiler vcfr_prof(rr.vcfr);
    Profiler naive_prof(naive);
    const auto vr =
        sim::simulate(rr.vcfr, 5'000'000, quiet(), nullptr, &vcfr_prof);
    const auto nr =
        sim::simulate(naive, 5'000'000, quiet(), nullptr, &naive_prof);
    ASSERT_TRUE(vr.halted) << name;
    ASSERT_TRUE(nr.halted) << name;
    EXPECT_GE(naive_prof.resolved_fraction(), 0.95) << name;
    const auto instrs = [](const Profiler& prof) {
      std::map<std::string, uint64_t> by_name;
      for (const auto& f : prof.functions()) by_name[f.name] = f.instructions;
      return by_name;
    };
    EXPECT_EQ(instrs(naive_prof), instrs(vcfr_prof)) << name;
  }
}

// Attaching a profiler must not perturb the simulation (pure observation).
TEST(ProfilerObserverTest, ProfiledRunMatchesUnprofiledRun) {
  const binary::Image orig = workloads::make("sjeng", 0);
  rewriter::RandomizeOptions opts;
  opts.seed = 11;
  const auto rr = rewriter::randomize(orig, opts);
  const auto bare = sim::simulate(rr.vcfr, 5'000'000, quiet());
  Profiler prof(rr.vcfr);
  const auto obs = sim::simulate(rr.vcfr, 5'000'000, quiet(), nullptr, &prof);
  EXPECT_EQ(bare.cycles, obs.cycles);
  EXPECT_EQ(bare.instructions, obs.instructions);
  EXPECT_EQ(bare.drc.misses, obs.drc.misses);
}

TEST(ProfilerDeterminismTest, SameSeedExportsAreByteIdentical) {
  const auto run = [] {
    const binary::Image orig = workloads::make("gcc", 0);
    rewriter::RandomizeOptions opts;
    opts.seed = 5;
    const auto rr = rewriter::randomize(orig, opts);
    Profiler prof(rr.vcfr);
    const auto r = sim::simulate(rr.vcfr, 5'000'000, quiet(), nullptr, &prof);
    ProfileMeta meta;
    meta.app = orig.name;
    meta.layout = "vcfr";
    meta.seed = 5;
    meta.expected_cycles = r.cycles;
    return prof.to_json(meta, 10) + "\x1e" + prof.to_collapsed() + "\x1e" +
           prof.to_hot_blocks(meta, 10);
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"conserved\": true"), std::string::npos);
}

// Shadow-stack semantics on a handcrafted program: callee cycles attribute
// to the callee under its caller's path, and the flame tree records the
// call path in collapsed form.
TEST(ProfilerShadowStackTest, CallPathsFoldToCollapsedStacks) {
  const binary::Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      mov r1, 0
    l:
      call leaf
      add r1, 1
      cmp r1, 50
      jlt l
      halt
    .func leaf
    leaf:
      add r2, 3
      ret
  )");
  rewriter::RandomizeOptions opts;
  opts.seed = 3;
  const auto rr = rewriter::randomize(img, opts);
  Profiler prof(rr.vcfr);
  const auto r = sim::simulate(rr.vcfr, 100'000, quiet(), nullptr, &prof);
  ASSERT_TRUE(r.halted);

  const auto funcs = prof.functions();
  uint64_t leaf_instr = 0;
  for (const auto& f : funcs) {
    if (f.name == "leaf") leaf_instr = f.instructions;
  }
  EXPECT_EQ(leaf_instr, 100u) << "50 calls x (add + ret)";
  EXPECT_EQ(prof.resolved_fraction(), 1.0);

  const std::string collapsed = prof.to_collapsed();
  EXPECT_NE(collapsed.find("main;leaf "), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("main "), std::string::npos) << collapsed;

  // Block hotness: the loop body leader executes once per iteration, so
  // the hot-block report names main's loop.
  ProfileMeta meta;
  meta.app = "handcrafted";
  meta.layout = "vcfr";
  meta.expected_cycles = r.cycles;
  const std::string blocks = prof.to_hot_blocks(meta, 3);
  EXPECT_NE(blocks.find("main"), std::string::npos) << blocks;
  EXPECT_NE(blocks.find("call"), std::string::npos) << blocks;
}

// The golden model has no clock: the functional profile charges exactly
// one cycle per retired instruction.
TEST(ProfilerEmulatorTest, FunctionalProfileCountsOneCyclePerInstruction) {
  const binary::Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      mov r1, 0
    l:
      call leaf
      add r1, 1
      cmp r1, 10
      jlt l
      halt
    .func leaf
    leaf:
      ret
  )");
  binary::Memory mem;
  binary::load(img, mem);
  emu::Emulator emulator(img, mem);
  Profiler prof(img);
  emulator.set_profiler(&prof);
  emu::StepInfo info;
  while (emulator.step(&info)) {
  }
  ASSERT_TRUE(emulator.halted());
  EXPECT_GT(prof.instructions(), 0u);
  EXPECT_EQ(prof.attributed_cycles(), prof.instructions());
  EXPECT_EQ(prof.cause_cycles(Cause::kIssue), prof.instructions());
  EXPECT_EQ(prof.resolved_fraction(), 1.0);
}

// Fleet profiling: each core's tenant profiles plus kernel-attributed
// externals account for every cycle of that core's clock, and shared-L2
// contention carries a per-aggressor breakdown.
TEST(ProfilerFleetTest, PerTenantProfilesConservePerCoreCycles) {
  os::KernelConfig kc;
  kc.cores = 2;
  kc.sched.slice_instructions = 1000;
  kc.measure_isolated = false;
  os::Kernel kernel(kc);
  const char* names[] = {"bzip2", "libquantum", "sjeng", "mcf"};
  for (int i = 0; i < 4; ++i) {
    os::ProcessConfig pc;
    pc.workload = names[i];
    pc.scale = 0;
    pc.seed = 7u + i;
    kernel.spawn(pc);
  }
  kernel.enable_profiling();
  const os::FleetReport report = kernel.run();

  std::map<uint32_t, uint64_t> per_core_attributed;
  uint64_t contention_total = 0;
  for (const os::ProcessReport& pr : report.processes) {
    const Profiler* prof = kernel.profiler(pr.pid);
    ASSERT_NE(prof, nullptr);
    EXPECT_TRUE(pr.halted) << pr.workload;
    EXPECT_EQ(prof->instructions(), pr.instructions) << pr.workload;
    per_core_attributed[pr.core] += prof->attributed_cycles();
    EXPECT_EQ(cause_sum(*prof), prof->attributed_cycles()) << pr.workload;
    uint64_t by_asid = 0;
    for (const auto& [asid, cyc] : prof->l2_contention_by_asid()) {
      by_asid += cyc;
    }
    EXPECT_EQ(by_asid, prof->cause_cycles(Cause::kL2Contention))
        << pr.workload;
    contention_total += by_asid;
  }
  for (const os::CoreReport& core : report.cores) {
    EXPECT_EQ(per_core_attributed[core.core], core.cycles)
        << "core " << core.core
        << ": tenant profiles + externals must cover the core clock";
  }
  EXPECT_GT(contention_total, 0u)
      << "four tenants on two cores must contend on the shared L2";
}

// Profiling a fleet must not change any simulated outcome.
TEST(ProfilerFleetTest, FleetProfilingHasNoObserverEffect) {
  const auto run = [](bool profiled) {
    os::KernelConfig kc;
    kc.cores = 2;
    kc.sched.slice_instructions = 500;
    kc.measure_isolated = false;
    os::Kernel kernel(kc);
    for (int i = 0; i < 3; ++i) {
      os::ProcessConfig pc;
      pc.workload = "bzip2";
      pc.scale = 0;
      pc.seed = 20u + i;
      kernel.spawn(pc);
    }
    if (profiled) kernel.enable_profiling();
    return kernel.run().to_json();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace vcfr::profile
