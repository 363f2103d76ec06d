// Tests for the OS/fleet runtime (src/os/): round-robin scheduling,
// context-switch flush semantics, architectural equivalence of
// time-sliced execution with isolated runs, mid-run re-randomization,
// determinism of the multi-core fleet, and tenants sharing one prepared
// program per (workload, scale).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "binary/serialize.hpp"
#include "core/ret_bitmap.hpp"
#include "emu/emulator.hpp"
#include "os/kernel.hpp"
#include "os/scheduler.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::os {
namespace {

ProcessConfig tiny(const std::string& workload, uint64_t seed) {
  ProcessConfig pc;
  pc.workload = workload;
  pc.scale = 0;
  pc.seed = seed;
  return pc;
}

TEST(SchedulerTest, RoundRobinShardsAndRotates) {
  Scheduler sched({.slice_instructions = 100}, 2);
  EXPECT_EQ(sched.admit(0), 0u);
  EXPECT_EQ(sched.admit(1), 1u);
  EXPECT_EQ(sched.admit(2), 0u);
  EXPECT_TRUE(sched.any_runnable());

  EXPECT_EQ(sched.pick(0), 0);
  sched.requeue(0, 0);
  EXPECT_EQ(sched.pick(0), 2) << "preempted pid 0 goes behind pid 2";
  EXPECT_EQ(sched.pick(1), 1);
  EXPECT_EQ(sched.pick(1), -1) << "core 1's queue is drained";
  EXPECT_TRUE(sched.any_runnable()) << "pid 0 still queued on core 0";
  EXPECT_EQ(sched.preemptions(), 1u);
}

// (a) The DRC and return-bitmap cache flush when the address space
// changes — and survive a self-switch (same pid and epoch).
TEST(SchedulerTest, SwitchFlushesDrcAndBitmapButNotOnSelfSwitch) {
  KernelConfig kc;
  kc.cores = 1;
  kc.sched.slice_instructions = 500;
  kc.measure_isolated = false;
  kc.max_rounds = 6;  // a few interleavings, then inspect live state

  {
    Kernel kernel(kc);
    kernel.spawn(tiny("bzip2", 3));
    kernel.spawn(tiny("libquantum", 4));
    const FleetReport r = kernel.run();
    // Two processes alternating on one core: every dispatch after the
    // first is a real switch, each flushing whatever the outgoing slice
    // cached.
    EXPECT_GE(r.context_switches, 5u);
    EXPECT_GT(r.drc_entries_flushed, 0u)
        << "process A's translations must not survive into process B";
    EXPECT_EQ(r.processes[0].context_switches +
                  r.processes[1].context_switches,
              r.context_switches);
  }

  {
    // One process alone on the core: after the initial install, every
    // slice boundary is a self-switch — pid and epoch unchanged — so the
    // warm DRC must survive and no flush losses accrue.
    Kernel solo(kc);
    solo.spawn(tiny("bzip2", 3));
    const FleetReport r = solo.run();
    EXPECT_EQ(r.context_switches, 1u) << "only the initial install";
    EXPECT_EQ(r.drc_entries_flushed, 0u);
    EXPECT_EQ(r.bitmap_entries_flushed, 0u);
    EXPECT_GE(r.rounds, 2u) << "the run did span several slices";
  }
}

// (b) Time-sliced execution is architecturally invisible: outputs,
// instruction counts, final memory images, halt status all bit-match the
// same seed's isolated single-process run.
TEST(SchedulerTest, TimeSlicedResultsBitIdenticalToIsolated) {
  KernelConfig kc;
  kc.cores = 2;
  kc.sched.slice_instructions = 700;  // force many interleavings
  kc.measure_isolated = false;

  Kernel kernel(kc);
  const char* mix[] = {"bzip2", "libquantum", "sjeng", "hmmer"};
  for (uint32_t i = 0; i < 4; ++i) {
    kernel.spawn(tiny(mix[i], 100 + i));
  }
  const FleetReport r = kernel.run();
  EXPECT_GT(r.context_switches, 4u);

  for (uint32_t pid = 0; pid < 4; ++pid) {
    const Process& p = kernel.process(pid);
    ASSERT_TRUE(p.finished());

    rewriter::RandomizeOptions opts;
    opts.seed = p.config().seed;
    const auto rr = rewriter::randomize(p.original(), opts);
    emu::RunLimits limits;
    limits.enforce_tags = p.config().enforce_tags;
    const emu::RunResult isolated = emu::run_image(rr.vcfr, limits);

    EXPECT_TRUE(isolated.halted);
    EXPECT_TRUE(p.emulator().halted()) << mix[pid];
    EXPECT_EQ(isolated.output, p.emulator().output()) << mix[pid];
    EXPECT_EQ(isolated.stats.instructions, p.stats().instructions)
        << mix[pid];
    EXPECT_EQ(isolated.mem_checksum, p.memory().checksum())
        << mix[pid] << ": final memory image diverged under time-slicing";
    EXPECT_EQ(isolated.final_state.regs, p.emulator().state().regs)
        << mix[pid];
  }
}

// (c) The re-randomization policy fires mid-run: epochs advance, the
// flush invalidates every cached translation, and the program still
// computes the same answer.
TEST(SchedulerTest, MidRunRerandomizationBumpsEpochAndStaysCorrect) {
  KernelConfig kc;
  kc.cores = 1;
  kc.sched.slice_instructions = 400;
  kc.measure_isolated = false;

  Kernel kernel(kc);
  ProcessConfig pc = tiny("bzip2", 11);
  pc.rerandomize.every_slices = 2;
  kernel.spawn(pc);
  const FleetReport r = kernel.run();

  const Process& p = kernel.process(0);
  ASSERT_TRUE(p.finished());
  EXPECT_TRUE(p.emulator().halted());
  ASSERT_GT(r.rerandomizations, 0u)
      << "policy every-2-slices over many slices must fire at least once "
         "(deferred: "
      << r.processes[0].rerandomizations_deferred << ")";
  EXPECT_EQ(p.epoch(), r.processes[0].rerandomizations);
  EXPECT_GT(r.drc_entries_flushed, 0u)
      << "an epoch swap kills every cached translation";

  // Same workload and seed without the policy: identical architectural
  // result — re-randomization must be semantically invisible.
  Kernel control(kc);
  control.spawn(tiny("bzip2", 11));
  control.run();
  const Process& c = control.process(0);
  EXPECT_EQ(c.emulator().output(), p.emulator().output());
  EXPECT_EQ(c.stats().instructions, p.stats().instructions);
  // Placements differ across epochs, so the translation tables must too.
  EXPECT_NE(kernel.randomization(0).tables.rand,
            control.randomization(0).tables.rand);
}

std::string saved(const binary::Image& image) {
  std::ostringstream out;
  binary::save(image, out);
  return out.str();
}

// The tenant's live VCFR image is exactly what a standalone randomize() of
// its workload produces under the seed the image records.
void expect_matches_randomize(const Process& p) {
  rewriter::RandomizeOptions opts;
  opts.seed = p.randomization().seed;
  const rewriter::RandomizeResult rr = rewriter::randomize(
      workloads::make(p.config().workload, p.config().scale), opts);
  EXPECT_EQ(saved(p.randomization()), saved(rr.vcfr))
      << "pid " << p.pid() << " epoch " << p.epoch();
  EXPECT_EQ(p.randomization().tables.rand, rr.vcfr.tables.rand)
      << "pid " << p.pid();
}

// The kernel prepares each (workload, scale) once; its tenants share that
// program and place it per seed, with images byte-identical to a full
// randomize() at every epoch.
TEST(SharedProgramTest, TenantsShareOneProgramAndPlaceLikeRandomize) {
  KernelConfig kc;
  kc.cores = 2;
  kc.measure_isolated = false;
  Kernel kernel(kc);
  const char* mix[] = {"bzip2", "libquantum"};
  for (uint32_t i = 0; i < 8; ++i) kernel.spawn(tiny(mix[i % 2], 40 + i));

  for (uint32_t pid = 0; pid < 8; ++pid) {
    const Process& p = kernel.process(pid);
    const Process& first = kernel.process(pid % 2);
    EXPECT_EQ(&p.original(), &first.original()) << "pid " << pid;
    EXPECT_NE(&p.original(), &kernel.process(1 - pid % 2).original());
    EXPECT_EQ(p.randomization().seed, p.config().seed);
    expect_matches_randomize(p);
  }

  // Full re-randomization (every tenant is quiescent before its first
  // slice) and restart both draw fresh seeds from the shared program.
  for (uint32_t pid = 0; pid < 8; ++pid) {
    Process& p = kernel.process_mut(pid);
    if (pid < 4) {
      ASSERT_TRUE(p.try_rerandomize()) << "pid " << pid;
    } else {
      p.restart();
    }
    EXPECT_EQ(p.epoch(), 1u);
    EXPECT_NE(p.randomization().seed, p.config().seed);
    expect_matches_randomize(p);
  }

  // The re-placed tenants still run to completion.
  const FleetReport r = kernel.run();
  for (const ProcessReport& pr : r.processes) {
    EXPECT_EQ(pr.exit, "halted") << "pid " << pr.pid;
  }
}

// Each tenant's decode cache is sized to its program, suite and serving
// workloads alike: the next power of two at or above its static
// instruction count, between 256 and 4096 lines, in every life. A
// standalone emulator keeps 4096 lines.
TEST(SharedProgramTest, TenantDecodeCacheSizedToProgram) {
  std::vector<std::string> names = workloads::spec_names();
  names.insert(names.end(), {"server", "leaky"});
  std::map<std::string, size_t> scale0;
  for (const int scale : {0, 1}) {
    for (const std::string& name : names) {
      auto program = std::make_shared<const rewriter::Program>(
          rewriter::prepare(workloads::make(name, scale)));
      size_t want = 256;
      while (want < program->cfg.instrs.size() && want < 4096) want *= 2;
      ProcessConfig pc = tiny(name, 3);
      pc.scale = scale;
      Process p(0, pc, program);
      const std::string what = name + "@" + std::to_string(scale);
      EXPECT_EQ(p.emulator().decode_cache_entries(), want) << what;
      p.restart();
      EXPECT_EQ(p.emulator().decode_cache_entries(), want) << what;
      if (scale == 0) scale0[name] = want;
    }
  }
  EXPECT_EQ(scale0["server"], 256u);
  EXPECT_EQ(scale0["libquantum"], 256u);
  EXPECT_EQ(scale0["bzip2"], 512u);
  EXPECT_EQ(scale0["mcf"], 2048u);
  EXPECT_EQ(scale0["hmmer"], 2048u);
  EXPECT_EQ(scale0["gcc"], 4096u);

  const binary::Image image = workloads::make("libquantum", 0);
  binary::Memory mem;
  binary::load(image, mem);
  EXPECT_EQ(emu::Emulator(image, mem).decode_cache_entries(), 4096u);
  EXPECT_THROW(emu::Emulator(image, mem, 300), std::invalid_argument);
  EXPECT_THROW(emu::Emulator(image, mem, 1), std::invalid_argument);
}

// The flushed return-bitmap cache refuses stale entries outright.
TEST(SchedulerTest, RetBitmapFlushDropsAllEntries) {
  cache::MemHier mem({});
  core::RetBitmapCache bitmap({}, mem);
  EXPECT_GT(bitmap.access(0x00100000, 0), 0u) << "cold miss walks memory";
  EXPECT_EQ(bitmap.access(0x00100000, 10), 0u) << "now cached";
  EXPECT_EQ(bitmap.flush(), 1u);
  EXPECT_GT(bitmap.access(0x00100000, 20), 0u) << "flush emptied the cache";
}

// Two identical multi-core fleet runs — host threads and all — must
// render byte-identical JSON reports.
TEST(SchedulerTest, FleetJsonIsDeterministicAcrossRuns) {
  auto run_once = []() {
    KernelConfig kc;
    kc.cores = 2;
    kc.sched.slice_instructions = 900;
    kc.measure_isolated = false;
    Kernel kernel(kc);
    const char* mix[] = {"libquantum", "bzip2", "hmmer"};
    for (uint32_t i = 0; i < 3; ++i) kernel.spawn(tiny(mix[i], 40 + i));
    return kernel.run().to_json();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"context_switches\""), std::string::npos);
}

// The shared L2 sees demand traffic from every source the paper charges
// against it — including DRC table walks — and attributes reads per
// tenant.
TEST(SchedulerTest, SharedL2PressureBrokenDownBySourceAndTenant) {
  KernelConfig kc;
  kc.cores = 2;
  kc.sched.slice_instructions = 600;
  kc.measure_isolated = false;
  Kernel kernel(kc);
  kernel.spawn(tiny("bzip2", 9));
  kernel.spawn(tiny("libquantum", 10));
  const FleetReport r = kernel.run();

  EXPECT_GT(r.shared_l2.l2.accesses, 0u);
  EXPECT_GT(r.shared_l2.pressure.reads_from_drc, 0u)
      << "DRC table walks must contend on the shared L2 (SIV-B)";
  EXPECT_EQ(r.l2_reads_by_pid.size(), 2u);
  for (const auto& [pid, reads] : r.l2_reads_by_pid) {
    EXPECT_LT(pid, 2u);
    EXPECT_GT(reads, 0u);
  }
}

}  // namespace
}  // namespace vcfr::os
