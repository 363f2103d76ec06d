// Tests for the Figure-2 software-emulator cost model.
#include <gtest/gtest.h>

#include "emu/ilr_emulator.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::emu {
namespace {

binary::Image loop_program(int body_adds) {
  std::string src = ".entry main\nmain:\n  mov r1, 0\n  mov r2, 0\nloop:\n";
  for (int i = 0; i < body_adds; ++i) src += "  add r1, 1\n";
  src += "  add r2, 1\n  cmp r2, 500\n  jlt loop\n  halt\n";
  return isa::assemble(src);
}

TEST(IlrEmulatorTest, SlowdownIsHundredsOfTimes) {
  const auto rr = rewriter::randomize(loop_program(8), {});
  const auto r =
      emulate_ilr(rewriter::naive_ilr(rr.vcfr), /*native_cpi=*/1.0);
  EXPECT_GT(r.guest_instructions, 1000u);
  EXPECT_GT(r.slowdown_vs_native, 50.0);
  EXPECT_LT(r.slowdown_vs_native, 2000.0);
}

TEST(IlrEmulatorTest, CostScalesWithGuestInstructionCount) {
  const auto rr = rewriter::randomize(loop_program(8), {});
  RunLimits half;
  half.max_instructions = 2000;
  RunLimits full;
  full.max_instructions = 4000;
  const auto naive = rewriter::naive_ilr(rr.vcfr);
  const auto a = emulate_ilr(naive, 1.0, half);
  const auto b = emulate_ilr(naive, 1.0, full);
  EXPECT_EQ(a.guest_instructions, 2000u);
  EXPECT_EQ(b.guest_instructions, 4000u);
  EXPECT_NEAR(b.host_cycles / a.host_cycles, 2.0, 0.1);
}

TEST(IlrEmulatorTest, ControlHeavyGuestCostsMorePerInstruction) {
  // A guest that is almost all taken transfers pays the target-mapping
  // cost on nearly every instruction.
  const auto straight = rewriter::randomize(loop_program(64), {});
  const binary::Image ping = isa::assemble(R"(
    .entry main
    main:
      mov r2, 0
    a:
      add r2, 1
      cmp r2, 2000
      jge end
      jmp b
    b:
      jmp a
    end:
      halt
  )");
  const auto branchy = rewriter::randomize(ping, {});
  RunLimits limits;
  limits.max_instructions = 5000;
  const auto r_straight = emulate_ilr(
      rewriter::naive_ilr(straight.vcfr), 1.0, limits);
  const auto r_branchy = emulate_ilr(
      rewriter::naive_ilr(branchy.vcfr), 1.0, limits);
  EXPECT_GT(r_branchy.host_cycles_per_instr,
            1.2 * r_straight.host_cycles_per_instr);
}

TEST(IlrEmulatorTest, PredictableOpcodeStreamMispredictsLess) {
  // A long run of identical opcodes trains the dispatch predictor; the
  // random LCG-driven workloads do not.
  const auto uniform = rewriter::randomize(loop_program(200), {});
  const auto python = rewriter::randomize(workloads::make_python(0), {});
  RunLimits limits;
  limits.max_instructions = 20000;
  const auto r_uniform = emulate_ilr(
      rewriter::naive_ilr(uniform.vcfr), 1.0, limits);
  const auto r_python = emulate_ilr(
      rewriter::naive_ilr(python.vcfr), 1.0, limits);
  EXPECT_LT(r_uniform.dispatch_mispredict_rate,
            r_python.dispatch_mispredict_rate);
}

TEST(IlrEmulatorTest, HigherNativeCpiLowersTheRatio) {
  const auto rr = rewriter::randomize(loop_program(8), {});
  const auto naive = rewriter::naive_ilr(rr.vcfr);
  const auto fast_native = emulate_ilr(naive, 1.0);
  const auto slow_native = emulate_ilr(naive, 2.0);
  EXPECT_NEAR(fast_native.slowdown_vs_native,
              2.0 * slow_native.slowdown_vs_native, 1.0);
}

TEST(IlrEmulatorTest, CustomCostsAreHonored) {
  const auto rr = rewriter::randomize(loop_program(8), {});
  IlrEmulatorCosts cheap;
  cheap.dispatch = 1;
  cheap.dispatch_mispredict = 0;
  cheap.pc_mapping = 1;
  cheap.per_encoded_byte = 0;
  cheap.alu = 0;
  cheap.memory = 0;
  cheap.control = 0;
  cheap.target_mapping = 0;
  cheap.target_change = 0;
  cheap.host_cpi = 1.0;
  const auto r =
      emulate_ilr(rewriter::naive_ilr(rr.vcfr), 1.0, {}, cheap);
  EXPECT_NEAR(r.host_cycles_per_instr, 2.0, 1e-9);
}

}  // namespace
}  // namespace vcfr::emu
