// Cycle-simulator tests: functional agreement with the golden model,
// predictor behaviour, and first-order timing sanity across the three
// execution modes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "binary/state_io.hpp"
#include "emu/emulator.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"
#include "sim/bpred.hpp"
#include "sim/cpu.hpp"

namespace vcfr::sim {
namespace {

using binary::Image;

CpuConfig quiet() {
  CpuConfig c;
  c.mem.dram.t_refi = 0;
  return c;
}

TEST(GshareTest, LearnsStronglyBiasedBranch) {
  Gshare g(BpredConfig{});
  for (int i = 0; i < 64; ++i) g.update(0x1000, true);
  EXPECT_TRUE(g.predict(0x1000));
  for (int i = 0; i < 64; ++i) g.update(0x1000, false);
  EXPECT_FALSE(g.predict(0x1000));
}

TEST(GshareTest, LearnsAlternatingPatternThroughHistory) {
  Gshare g(BpredConfig{});
  // Alternating taken/not-taken: with global history the pattern is
  // perfectly predictable after warmup.
  bool taken = false;
  int correct = 0;
  for (int i = 0; i < 2000; ++i) {
    taken = !taken;
    if (i > 1000 && g.predict(0x2000) == taken) ++correct;
    g.update(0x2000, taken);
  }
  EXPECT_GT(correct, 950);
}

TEST(BtbTest, StoresAddressPairs) {
  Btb btb(BpredConfig{});
  EXPECT_FALSE(btb.lookup(0x1000).has_value());
  btb.update(0x1000, {0x40000100, 0x1040});
  const auto hit = btb.lookup(0x1000);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rand, 0x40000100u);
  EXPECT_EQ(hit->orig, 0x1040u);
}

TEST(RasTest, LifoOrderAndOverflow) {
  BpredConfig cfg;
  cfg.ras_entries = 2;
  Ras ras(cfg);
  ras.push({1, 10});
  ras.push({2, 20});
  ras.push({3, 30});  // drops {1,10}
  EXPECT_EQ(ras.pop()->rand, 3u);
  EXPECT_EQ(ras.pop()->rand, 2u);
  EXPECT_FALSE(ras.pop().has_value());
}

/// A predictor structure's checkpoint bytes, and a restore from them.
template <typename T>
std::string save_state(T& t) {
  std::ostringstream out;
  binary::StateIo io(out);
  t.state(io);
  return out.str();
}

template <typename T>
void load_state(T& t, const std::string& bytes) {
  std::istringstream in(bytes);
  binary::StateIo io(in);
  t.state(io);
}

std::string le32(uint32_t v) {
  std::string s(4, '\0');
  for (int i = 0; i < 4; ++i) s[i] = static_cast<char>(v >> (8 * i));
  return s;
}

// update() keeps every counter in 0..3 and the history inside its mask: a
// checkpoint holding anything else is refused, not resumed into a run no
// stream produces.
TEST(GshareTest, RestoreRejectsStatesNoStreamProduces) {
  const BpredConfig cfg{.gshare_history_bits = 4, .gshare_table_bits = 3};
  const auto bytes = [](uint32_t history, const std::string& counters) {
    return le32(history) + le32(8) + counters;
  };
  const std::string good = bytes(0xa, std::string("\0\1\2\3\3\2\1\0", 8));
  Gshare g(cfg);
  load_state(g, good);
  EXPECT_EQ(save_state(g), good);
  EXPECT_THROW(load_state(g, bytes(0x1a, std::string(8, '\2'))),
               binary::FormatError);
  EXPECT_THROW(load_state(g, bytes(0xa, std::string("\0\1\2\4\3\2\1\0", 8))),
               binary::FormatError);
}

// push() drops the oldest frame at capacity, so no stream leaves a return
// stack deeper than ras_entries.
TEST(RasTest, RestoreRejectsStatesNoStreamProduces) {
  BpredConfig cfg;
  cfg.ras_entries = 4;
  Ras ras(cfg);
  for (uint32_t i = 1; i <= 6; ++i) ras.push({i, i * 10});
  const std::string full = save_state(ras);
  EXPECT_EQ(full.size(), 4u + 4 * 8);
  Ras restored(cfg);
  load_state(restored, full);
  EXPECT_EQ(restored.pop()->rand, 6u);
  std::string deep = le32(5);
  for (uint32_t i = 1; i <= 5; ++i) deep += le32(i) + le32(i * 10);
  EXPECT_THROW(load_state(restored, deep), binary::FormatError);
}

struct RefBtbEntry {
  bool valid = false;
  uint32_t pc = 0;
  uint64_t lru = 0;
};

/// A BTB checkpoint in Btb::state's layout; each entry's target is
/// {pc + 1, pc}.
std::string btb_bytes(uint64_t tick, std::vector<RefBtbEntry> entries) {
  std::ostringstream out;
  binary::StateIo io(out);
  io.u64(tick);
  io.fixed(entries.size(), 1u << 24, "");
  for (RefBtbEntry& e : entries) {
    uint32_t rand = e.pc + 1;
    io.b(e.valid);
    io.u32(e.pc);
    io.u32(rand);
    io.u32(e.pc);
    io.u64(e.lru);
  }
  return out.str();
}

// update() stamps every entry from the BTB's own clock and holds a pc at
// most once, in set (pc >> 1) & (sets - 1): 0x10 and 0x18 in set 0, 0x12
// in set 1 of a two-set BTB.
TEST(BtbTest, RestoreRejectsStatesNoStreamProduces) {
  const BpredConfig cfg{.btb_sets = 2, .btb_assoc = 2};
  const auto rejects = [&](const std::string& bytes) {
    Btb btb(cfg);
    EXPECT_THROW(load_state(btb, bytes), binary::FormatError);
  };
  const RefBtbEntry none{};
  const std::string good =
      btb_bytes(3, {{true, 0x10, 1}, {true, 0x18, 3}, {true, 0x12, 2}, none});
  Btb btb(cfg);
  load_state(btb, good);
  EXPECT_EQ(save_state(btb), good);
  const auto hit = btb.lookup(0x12);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->rand, 0x13u);
  EXPECT_EQ(hit->orig, 0x12u);

  rejects(btb_bytes(3, {{true, 0x10, 1}, {true, 0x18, 4}, {true, 0x12, 2},
                        none}));
  rejects(btb_bytes(3, {{true, 0x10, 1}, {true, 0x10, 3}, {true, 0x12, 2},
                        none}));
  rejects(btb_bytes(3, {{true, 0x10, 1}, {true, 0x18, 3}, {true, 0x14, 2},
                        none}));
}

// ---- whole-pipeline tests ---------------------------------------------------

constexpr const char* kLoopProgram = R"(
  .name loop
  .entry main
  .func main
  main:
    mov r1, 0
    mov r2, 0
  loop:
    add r1, 3
    add r2, 1
    cmp r2, 2000
    jlt loop
    out r1
    halt
)";

TEST(SimulatorTest, MatchesGoldenModelFunctionally) {
  const Image img = isa::assemble(kLoopProgram);
  const auto golden = emu::run_image(img);
  const auto sim = simulate(img, 1'000'000, quiet());
  EXPECT_TRUE(sim.halted);
  EXPECT_EQ(sim.error, "");
  EXPECT_EQ(sim.instructions, golden.stats.instructions);
}

TEST(SimulatorTest, TightLoopReachesNearSingleIssueIpc) {
  const Image img = isa::assemble(kLoopProgram);
  const auto sim = simulate(img, 1'000'000, quiet());
  // 4-instruction loop body, well-predicted branch, all IL1 hits:
  // IPC should approach 1.0 for a single-issue machine.
  EXPECT_GT(sim.ipc(), 0.8) << "cycles=" << sim.cycles
                            << " instrs=" << sim.instructions;
  EXPECT_LE(sim.ipc(), 1.0 + 1e-9);
  EXPECT_LT(sim.il1.misses, 10u);  // cold misses only
  EXPECT_GT(sim.bpred.cond_accuracy(), 0.99);
}

TEST(SimulatorTest, MispredictsCostCycles) {
  // Data-dependent unpredictable-ish branch (LCG parity).
  const Image img = isa::assemble(R"(
    .entry main
    main:
      mov r1, 12345
      mov r2, 0
      mov r5, 0
    loop:
      mul r1, 1103515245
      add r1, 12347
      mov r3, r1
      shr r3, 16
      and r3, 1
      cmp r3, 0
      jeq even
      add r5, 1
    even:
      add r2, 1
      cmp r2, 3000
      jlt loop
      out r5
      halt
  )");
  const auto sim = simulate(img, 1'000'000, quiet());
  EXPECT_TRUE(sim.halted);
  EXPECT_LT(sim.bpred.cond_accuracy(), 0.95);
  EXPECT_LT(sim.ipc(), 0.9);
}

TEST(SimulatorTest, DataCacheMissesSlowExecution) {
  // Stride through 1 MiB repeatedly: DL1 (32 KiB) and L2 (512 KiB) thrash.
  const Image img = isa::assemble(R"(
    .entry main
    .data 0x10000000
    buf:
      .space 1048576
    .text
    main:
      mov r4, 0
    outer:
      mov r1, @buf
      mov r2, 0
    scan:
      ld r3, [r1]
      add r1, 64
      add r2, 1
      cmp r2, 16384
      jlt scan
      add r4, 1
      cmp r4, 2
      jlt outer
      halt
  )");
  const auto sim = simulate(img, 1'000'000, quiet());
  EXPECT_TRUE(sim.halted);
  EXPECT_GT(sim.dl1.miss_rate(), 0.5);
  EXPECT_GT(sim.dram.reads, 1000u);
  EXPECT_LT(sim.ipc(), 0.5);
}

// ---- three-mode comparison (the paper's core performance claims) -----------

struct ModeResults {
  SimResult base;
  SimResult naive;
  SimResult vcfr;
};

ModeResults run_modes(const Image& img, uint32_t drc_entries = 128) {
  rewriter::RandomizeOptions opts;
  opts.seed = 7;
  const auto rr = rewriter::randomize(img, opts);
  CpuConfig cfg = quiet();
  cfg.drc.entries = drc_entries;
  return {simulate(img, 2'000'000, cfg),
          simulate(rewriter::naive_ilr(rr.vcfr), 2'000'000, cfg),
          simulate(rr.vcfr, 2'000'000, cfg)};
}

// A loop large enough (few thousand static instructions) that the
// randomized layout thrashes IL1 while the original layout fits easily.
std::string big_loop_program() {
  std::string src = ".name bigloop\n.entry main\n.func main\nmain:\n"
                    "  mov r1, 0\n  mov r2, 0\nloop:\n";
  for (int i = 0; i < 3000; ++i) src += "  add r1, " + std::to_string(i % 7 + 1) + "\n";
  src += "  add r2, 1\n  cmp r2, 40\n  jlt loop\n  out r1\n  halt\n";
  return src;
}

TEST(SimulatorModesTest, AllModesAgreeFunctionally) {
  const Image img = isa::assemble(big_loop_program());
  const auto m = run_modes(img);
  ASSERT_TRUE(m.base.halted);
  ASSERT_TRUE(m.naive.halted) << m.naive.error;
  ASSERT_TRUE(m.vcfr.halted) << m.vcfr.error;
  EXPECT_EQ(m.base.instructions, m.naive.instructions);
  EXPECT_EQ(m.base.instructions, m.vcfr.instructions);
}

TEST(SimulatorModesTest, NaiveIlrDestroysFetchLocality) {
  const Image img = isa::assemble(big_loop_program());
  const auto m = run_modes(img);
  // Figure 3's effects: IL1 miss rate explodes, prefetching becomes
  // useless, L2 sees far more reads from the instruction side.
  EXPECT_GT(m.naive.il1.miss_rate(), 10.0 * std::max(1e-6, m.base.il1.miss_rate()));
  EXPECT_GT(m.naive.il1.prefetch_useless_rate(),
            m.base.il1.prefetch_useless_rate());
  EXPECT_GT(m.naive.l2_pressure.reads_from_il1 +
                m.naive.l2_pressure.reads_from_il1_prefetch,
            2 * (m.base.l2_pressure.reads_from_il1 +
                 m.base.l2_pressure.reads_from_il1_prefetch));
  // Figure 4: IPC drops substantially.
  EXPECT_LT(m.naive.ipc(), 0.8 * m.base.ipc());
}

TEST(SimulatorModesTest, VcfrPreservesBaselinePerformance) {
  const Image img = isa::assemble(big_loop_program());
  const auto m = run_modes(img);
  // Figure 13: VCFR stays within a few percent of baseline IPC...
  EXPECT_GT(m.vcfr.ipc(), 0.93 * m.base.ipc());
  // ...and Figure 12: far faster than the naive implementation.
  EXPECT_GT(m.vcfr.ipc(), 1.2 * m.naive.ipc());
  // DRC was actually exercised.
  EXPECT_GT(m.vcfr.drc.lookups, 0u);
}

TEST(SimulatorModesTest, LargerDrcLowersMissRate) {
  // Many distinct call/branch targets to pressure a small DRC.
  std::string src = ".name drcstress\n.entry main\n.func main\nmain:\n  mov r9, 0\nouter:\n";
  for (int i = 0; i < 200; ++i) src += "  call f" + std::to_string(i) + "\n";
  src += "  add r9, 1\n  cmp r9, 30\n  jlt outer\n  halt\n";
  for (int i = 0; i < 200; ++i) {
    src += ".func f" + std::to_string(i) + "\nf" + std::to_string(i) +
           ":\n  add r1, 1\n  ret\n";
  }
  const Image img = isa::assemble(src);
  rewriter::RandomizeOptions opts;
  opts.seed = 3;
  const auto rr = rewriter::randomize(img, opts);

  CpuConfig small = quiet();
  small.drc.entries = 64;
  CpuConfig large = quiet();
  large.drc.entries = 512;
  const auto rs = simulate(rr.vcfr, 2'000'000, small);
  const auto rl = simulate(rr.vcfr, 2'000'000, large);
  ASSERT_TRUE(rs.halted);
  EXPECT_GT(rs.drc.miss_rate(), rl.drc.miss_rate());
}

TEST(SimulatorModesTest, PowerAccountingIsPopulated) {
  const Image img = isa::assemble(kLoopProgram);
  rewriter::RandomizeOptions opts;
  const auto rr = rewriter::randomize(img, opts);
  const auto r = simulate(rr.vcfr, 1'000'000, quiet());
  EXPECT_GT(r.power.core, 0.0);
  EXPECT_GT(r.power.il1, 0.0);
  EXPECT_GT(r.power.drc, 0.0);
  // Figure 15's headline: DRC dynamic power is a tiny fraction of the CPU.
  EXPECT_LT(r.power.drc_overhead_percent(), 2.0);
  EXPECT_FALSE(r.power.report().empty());
}

}  // namespace
}  // namespace vcfr::sim
