// Tests for the software return-address randomization option (§IV-A
// option 1): `call X` -> `push <randomized return>; jmp X`.
#include <gtest/gtest.h>

#include "emu/emulator.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::rewriter {
namespace {

using binary::Image;
using emu::run_image;

constexpr const char* kCallsProgram = R"(
  .name calls
  .entry main
  .func main
  main:
    mov r1, 4
    call square
    out r1         ; 16
    call square
    out r1         ; 256
    call pic
    out r2
    halt
  .func square
  square:
    mul r1, r1
    ret
  .func pic
  pic:
    ld r2, [sp]    ; touches the return address: not rewritable
    and r2, 0
    add r2, 7
    ret
)";

TEST(SoftwareRewriteTest, RewritesSafeCallsOnly) {
  const Image original = isa::assemble(kCallsProgram);
  SoftwareRewriteStats stats;
  const Image transformed = rewrite_calls_software(original, &stats);
  // Two calls to `square` are rewritable; the call to `pic` is not.
  EXPECT_EQ(stats.calls_rewritten, 2u);
  EXPECT_EQ(stats.code_bytes_after, stats.code_bytes_before + 2 * 5)
      << "each rewrite replaces a 5-byte call with push(5)+jmp(5)";
  EXPECT_GT(stats.expansion_percent(), 0.0);

  size_t pushis = 0, calls = 0;
  for (const auto& e : isa::disassemble(transformed)) {
    if (e.instr.op == isa::Op::kPushI) ++pushis;
    if (e.instr.op == isa::Op::kCall) ++calls;
  }
  EXPECT_EQ(pushis, 2u);
  EXPECT_EQ(calls, 1u);  // only the pic call remains
}

TEST(SoftwareRewriteTest, TransformedImageRunsIdentically) {
  const Image original = isa::assemble(kCallsProgram);
  const Image transformed = rewrite_calls_software(original);
  const auto a = run_image(original);
  const auto b = run_image(transformed);
  ASSERT_TRUE(a.halted);
  ASSERT_TRUE(b.halted) << b.error;
  EXPECT_EQ(a.output, b.output);
  // push+jmp replaces call one-for-two: two extra dynamic instructions per
  // rewritten dynamic call (2 calls executed).
  EXPECT_EQ(b.stats.instructions, a.stats.instructions + 2);
}

TEST(SoftwareRewriteTest, RandomizedImagesStayEquivalent) {
  const Image original = isa::assemble(kCallsProgram);
  const auto base = run_image(original);
  for (uint64_t seed : {3ull, 77ull, 2015ull}) {
    RandomizeOptions opts;
    opts.seed = seed;
    opts.return_option = ReturnOption::kSoftwareRewrite;
    const auto rr = randomize(original, opts);
    EXPECT_EQ(rr.sw_stats.calls_rewritten, 2u);

    const auto naive = run_image(rewriter::naive_ilr(rr.vcfr));
    EXPECT_TRUE(naive.halted) << naive.error;
    EXPECT_EQ(naive.output, base.output);

    emu::RunLimits limits;
    limits.enforce_tags = true;
    const auto vcfr = run_image(rr.vcfr, limits);
    EXPECT_TRUE(vcfr.halted) << vcfr.error;
    EXPECT_EQ(vcfr.output, base.output);
    EXPECT_EQ(vcfr.stats.tag_violations, 0u);
    // Pure software option: the hardware never pushes a randomized
    // return, so no rand-entry lookups and no bitmap activity.
    EXPECT_EQ(vcfr.stats.rand_events, 0u);
    EXPECT_EQ(vcfr.stats.bitmap_autoderand_loads, 0u);
  }
}

TEST(SoftwareRewriteTest, ReturnsStillRandomizedInTheStack) {
  // The pushed (rewritten) return must be a randomized-space address.
  const Image original = isa::assemble(kCallsProgram);
  RandomizeOptions opts;
  opts.return_option = ReturnOption::kSoftwareRewrite;
  const auto rr = randomize(original, opts);
  size_t randomized_pushes = 0;
  for (const auto& e : isa::disassemble(rr.vcfr)) {
    if (e.instr.op == isa::Op::kPushI &&
        rr.vcfr.tables.is_randomized_addr(e.instr.imm)) {
      ++randomized_pushes;
    }
  }
  EXPECT_EQ(randomized_pushes, 2u);
}

TEST(SoftwareRewriteTest, WorksAcrossTheWholeSuite) {
  for (const auto& name : workloads::spec_names()) {
    const Image original = workloads::make(name, 0);
    const auto base = run_image(original);
    ASSERT_TRUE(base.halted) << name;

    RandomizeOptions opts;
    opts.seed = 11;
    opts.return_option = ReturnOption::kSoftwareRewrite;
    const auto rr = randomize(original, opts);

    emu::RunLimits limits;
    limits.enforce_tags = true;
    const auto vcfr = run_image(rr.vcfr, limits);
    EXPECT_TRUE(vcfr.halted) << name << ": " << vcfr.error;
    EXPECT_EQ(vcfr.output, base.output) << name;
  }
}

TEST(SoftwareRewriteTest, RejectsRandomizedInput) {
  const Image original = isa::assemble(kCallsProgram);
  const auto rr = randomize(original, {});
  EXPECT_THROW((void)rewrite_calls_software(rr.vcfr), std::invalid_argument);
}

}  // namespace
}  // namespace vcfr::rewriter
