// Tests for the out-of-order core model (§IX future work).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"
#include "emu/emulator.hpp"
#include "sim/ooo.hpp"

namespace vcfr::sim {
namespace {

using binary::Image;

OooConfig quiet() {
  OooConfig c;
  c.mem.dram.t_refi = 0;
  return c;
}

TEST(RegUseTest, CoversImplicitOperands) {
  using isa::Instr;
  using isa::Op;
  const auto push = isa::reg_use(Instr{.op = Op::kPushR, .rd = 3});
  EXPECT_TRUE(push.reads & (1u << 3));
  EXPECT_TRUE(push.reads & (1u << isa::kSp));
  EXPECT_TRUE(push.writes & (1u << isa::kSp));

  const auto cmp = isa::reg_use(Instr{.op = Op::kCmpRR, .rd = 1, .rs = 2});
  EXPECT_TRUE(cmp.writes & isa::kFlagsBit);
  EXPECT_FALSE(cmp.writes & (1u << 1)) << "cmp must not write its operand";

  const auto jcc = isa::reg_use(Instr{.op = Op::kJcc});
  EXPECT_TRUE(jcc.reads & isa::kFlagsBit);

  const auto sys1 = isa::reg_use(Instr{.op = Op::kSys, .imm = 1});
  EXPECT_TRUE(sys1.reads & (1u << 0));
}

// Independent operations: the OOO core must exceed IPC 1.
TEST(OooTest, IndependentOpsExploitIlp) {
  std::string src = ".entry main\nmain:\n  mov r9, 0\nloop:\n";
  for (int i = 1; i <= 6; ++i) {
    src += "  add r" + std::to_string(i) + ", " + std::to_string(i) + "\n";
  }
  src += "  add r9, 1\n  cmp r9, 3000\n  jlt loop\n  halt\n";
  const Image img = isa::assemble(src);
  const auto r = simulate_ooo(img, 1'000'000, quiet());
  ASSERT_TRUE(r.halted) << r.error;
  EXPECT_GT(r.ipc(), 1.5) << "independent adds must issue in parallel";
  EXPECT_LE(r.ipc(), 4.0 + 1e-9);
}

// A serial dependency chain caps IPC near 1 regardless of width.
TEST(OooTest, DependencyChainSerializes) {
  std::string src = ".entry main\nmain:\n  mov r9, 0\nloop:\n";
  for (int i = 0; i < 6; ++i) src += "  add r1, r1\n";
  src += "  add r9, 1\n  cmp r9, 3000\n  jlt loop\n  halt\n";
  const Image img = isa::assemble(src);
  const auto r = simulate_ooo(img, 1'000'000, quiet());
  ASSERT_TRUE(r.halted);
  // Six chained adds serialize to one per cycle; only the three loop
  // control ops can overlap, capping IPC at 9 instrs / 6 cycles = 1.5.
  EXPECT_LT(r.ipc(), 1.55) << "chained adds cannot run in parallel";
  EXPECT_GT(r.ipc(), 1.2) << "loop control should still overlap the chain";
}

TEST(OooTest, RobSizeLimitsRunahead) {
  // Long-latency divides plus independent work: a tiny ROB stalls.
  std::string src = ".entry main\nmain:\n  mov r9, 0\n  mov r2, 3\nloop:\n"
                    "  or r2, 1\n  mov r1, 1000000\n  div r1, r2\n";
  for (int i = 3; i <= 7; ++i) {
    src += "  add r" + std::to_string(i) + ", 1\n";
  }
  src += "  add r9, 1\n  cmp r9, 1000\n  jlt loop\n  halt\n";
  const Image img = isa::assemble(src);
  OooConfig small = quiet();
  small.rob_size = 4;
  OooConfig big = quiet();
  big.rob_size = 128;
  const auto r_small = simulate_ooo(img, 1'000'000, small);
  const auto r_big = simulate_ooo(img, 1'000'000, big);
  EXPECT_GT(r_big.ipc(), r_small.ipc() * 1.1);
}

TEST(OooTest, StoreToLoadDependencyHonored) {
  // A load that reads a just-stored word must wait for the store.
  const Image img = isa::assemble(R"(
    .entry main
    .data
    v:
      .word 0
    .text
    main:
      mov r8, @v
      mov r9, 0
    loop:
      add r1, 1
      st r1, [r8]
      ld r2, [r8]
      add r3, r2
      add r9, 1
      cmp r9, 2000
      jlt loop
      out r3
      halt
  )");
  const auto r = simulate_ooo(img, 1'000'000, quiet());
  ASSERT_TRUE(r.halted);
  // The st->ld->add chain plus loop control bounds IPC well below width.
  EXPECT_LT(r.ipc(), 2.5);
}

TEST(OooTest, MatchesGoldenModelFunctionally) {
  const Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      mov r1, 5
      call fact
      out r2
      halt
    .func fact
    fact:
      cmp r1, 1
      jgt rec
      mov r2, 1
      ret
    rec:
      push r1
      sub r1, 1
      call fact
      pop r1
      mul r2, r1
      ret
  )");
  const auto r = simulate_ooo(img, 100000, quiet());
  ASSERT_TRUE(r.halted) << r.error;
  const auto golden = emu::run_image(img);
  EXPECT_EQ(r.instructions, golden.stats.instructions);
}

TEST(OooTest, VcfrRunsAndStaysReasonable) {
  const Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      mov r9, 0
    loop:
      call leaf
      add r9, 1
      cmp r9, 2000
      jlt loop
      halt
    .func leaf
    leaf:
      add r1, 1
      ret
  )");
  rewriter::RandomizeOptions opts;
  opts.seed = 3;
  const auto rr = rewriter::randomize(img, opts);
  const auto base = simulate_ooo(img, 1'000'000, quiet());
  const auto v = simulate_ooo(rr.vcfr, 1'000'000, quiet());
  ASSERT_TRUE(v.halted) << v.error;
  EXPECT_EQ(v.instructions, base.instructions);
  EXPECT_GT(v.ipc(), 0.7 * base.ipc());
  EXPECT_GT(v.drc.lookups, 0u);
}

TEST(OooTest, NaiveIlrStillSlowerThanVcfrOnOoo) {
  // The paper's headline ordering must survive the OOO core too.
  std::string src = ".entry main\nmain:\n  mov r9, 0\nloop:\n";
  for (int i = 0; i < 2000; ++i) {
    src += "  add r1, " + std::to_string(i % 7 + 1) + "\n";
  }
  src += "  add r9, 1\n  cmp r9, 30\n  jlt loop\n  halt\n";
  const Image img = isa::assemble(src);
  rewriter::RandomizeOptions opts;
  opts.seed = 8;
  const auto rr = rewriter::randomize(img, opts);
  const auto base = simulate_ooo(img, 2'000'000, quiet());
  const auto naive = simulate_ooo(rewriter::naive_ilr(rr.vcfr),
                                  2'000'000, quiet());
  const auto vcfr = simulate_ooo(rr.vcfr, 2'000'000, quiet());
  ASSERT_TRUE(base.halted);
  ASSERT_TRUE(naive.halted);
  ASSERT_TRUE(vcfr.halted);
  EXPECT_GT(vcfr.ipc(), 1.5 * naive.ipc());
  EXPECT_GT(vcfr.ipc(), 0.85 * base.ipc());
}

TEST(OooTest, WiderThanInOrder) {
  // Sanity: on ILP-rich code the OOO core beats the 1-wide in-order model.
  std::string src = ".entry main\nmain:\n  mov r9, 0\nloop:\n";
  for (int i = 1; i <= 5; ++i) {
    src += "  add r" + std::to_string(i) + ", 7\n  xor r" +
           std::to_string(i) + ", 3\n";
  }
  src += "  add r9, 1\n  cmp r9, 2000\n  jlt loop\n  halt\n";
  const Image img = isa::assemble(src);
  CpuConfig in_order;
  in_order.mem.dram.t_refi = 0;
  const auto io = simulate(img, 1'000'000, in_order);
  const auto ooo = simulate_ooo(img, 1'000'000, quiet());
  EXPECT_GT(ooo.ipc(), 1.3 * io.ipc());
}

// The out-of-order core builds no dedicated L2 DRC, so asking for one is
// an error rather than a silently ignored setting.
TEST(OooTest, RejectsAnL2Drc) {
  const Image img = isa::assemble(".entry main\nmain:\n  halt\n");
  OooConfig c = quiet();
  c.drc.l2_entries = 256;
  try {
    (void)simulate_ooo(img, 1000, c);
    FAIL() << "an L2 DRC configuration was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("drc.l2_entries"), std::string::npos)
        << e.what();
  }
  c.drc.l2_entries = 0;
  EXPECT_TRUE(simulate_ooo(img, 1000, c).halted);
}

}  // namespace
}  // namespace vcfr::sim
