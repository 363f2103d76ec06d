// Integration tests: each synthetic workload must exhibit the
// micro-architectural character of the SPEC application it substitutes
// (DESIGN.md §2's substitution argument, checked end-to-end through the
// cycle simulator).
#include <gtest/gtest.h>

#include "rewriter/randomizer.hpp"
#include "sim/cpu.hpp"
#include "workloads/suite.hpp"

namespace vcfr {
namespace {

sim::SimResult run_base(const char* name) {
  return sim::simulate(workloads::make(name, 1), 3'000'000);
}

TEST(WorkloadCharacterTest, McfIsDataCacheBound) {
  const auto r = run_base("mcf");
  EXPECT_GT(r.dl1.miss_rate(), 0.05) << "pointer chasing must thrash DL1";
  EXPECT_GT(r.dram.reads, 1000u) << "the node heap exceeds the L2";
}

TEST(WorkloadCharacterTest, HmmerIsHighIpcRegular) {
  const auto r = run_base("hmmer");
  EXPECT_GT(r.ipc(), 0.9);
  EXPECT_GT(r.bpred.cond_accuracy(), 0.97);
}

TEST(WorkloadCharacterTest, SjengExercisesDeepCallReturn) {
  const auto r = run_base("sjeng");
  EXPECT_GT(r.bpred.ras_pops, 1000u);
  // Well-nested recursion: the 16-deep RAS almost never mispredicts.
  EXPECT_LT(static_cast<double>(r.bpred.ras_mispredicts) /
                static_cast<double>(r.bpred.ras_pops),
            0.02);
}

TEST(WorkloadCharacterTest, LibquantumHasTinyHotLoop) {
  const auto r = run_base("libquantum");
  EXPECT_LT(r.il1.miss_rate(), 0.001);
  EXPECT_GT(r.dl1.accesses, 10000u) << "streams the state vector";
}

TEST(WorkloadCharacterTest, XalanIsIndirectCallHeavy) {
  const auto r = run_base("xalan");
  EXPECT_GT(r.bpred.btb_lookups, 10000u);
  // Polymorphic dispatch: a visible fraction of taken transfers mispredict.
  const auto rr = rewriter::randomize(workloads::make("xalan", 1), {});
  const auto v = sim::simulate(rr.vcfr, 3'000'000);
  EXPECT_GT(v.drc.lookups * 1000 / v.instructions, 100u)
      << "xalan is the suite's heaviest DRC client";
}

TEST(WorkloadCharacterTest, NamdIsDivideHeavy) {
  const auto base = run_base("namd");
  // The force kernel's divide keeps IPC below the regular kernels'.
  EXPECT_LT(base.ipc(), 0.95);
  EXPECT_GT(base.ipc(), 0.6);
}

TEST(WorkloadCharacterTest, Fig2AppsCompleteUnderCap) {
  for (const auto& name : workloads::fig2_names()) {
    const auto r = sim::simulate(workloads::make(name, 0), 20'000'000);
    EXPECT_TRUE(r.halted) << name << ": " << r.error;
  }
}

TEST(WorkloadCharacterTest, PythonComputedDispatchIsFailover) {
  const auto rr = rewriter::randomize(workloads::make("python", 0), {});
  // The interpreter's handler cluster cannot be randomized (computed
  // goto), so python carries a sizeable failover set.
  EXPECT_GT(rr.program.analysis.unrandomized.size(), 30u);
}

TEST(EndToEndTest, FullPipelineOnEverySpecAppAtScale0) {
  // assemble-from-generator -> randomize -> simulate VCFR to completion,
  // agreeing with the baseline's retired-instruction count.
  for (const auto& name : workloads::spec_names()) {
    const auto img = workloads::make(name, 0);
    const auto base = sim::simulate(img, 30'000'000);
    ASSERT_TRUE(base.halted) << name;
    rewriter::RandomizeOptions opts;
    opts.seed = 99;
    const auto rr = rewriter::randomize(img, opts);
    const auto v = sim::simulate(rr.vcfr, 30'000'000);
    ASSERT_TRUE(v.halted) << name << ": " << v.error;
    EXPECT_EQ(v.instructions, base.instructions) << name;
    EXPECT_GT(v.ipc(), 0.5 * base.ipc()) << name;
  }
}

}  // namespace
}  // namespace vcfr
