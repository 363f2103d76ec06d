// Pipeline fuzzing: generate random *structured* VX programs (bounded
// loops, DAG-shaped call graphs, branches, memory ops, indirect calls) —
// guaranteed to terminate — and require semantic equivalence of the
// original, naive-ILR, and VCFR images across randomization seeds, with
// the randomized-tag protection enforced. This property-checks the whole
// CFG/analysis/randomizer/emulator stack far beyond the hand-written
// workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <string>

#include "emu/emulator.hpp"
#include "fuzz_program.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"

namespace vcfr {
namespace {

class FuzzEquivalence : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzEquivalence, AllLayoutsAgreeAcrossSeeds) {
  ProgramFuzzer fuzzer(GetParam());
  const std::string src = fuzzer.generate();
  binary::Image original;
  ASSERT_NO_THROW(original = isa::assemble(src)) << src;

  emu::RunLimits limits;
  limits.max_instructions = 5'000'000;
  const auto base = emu::run_image(original, limits);
  ASSERT_TRUE(base.halted) << "fuzz program must terminate: " << base.error
                           << "\n" << src;

  const rewriter::Program program = rewriter::prepare(original);
  for (uint64_t seed : {1ull, 42ull, 31337ull}) {
    rewriter::RandomizeOptions opts;
    opts.seed = seed;
    const auto rr = rewriter::randomize(original, opts);
    EXPECT_EQ(rewriter::check_placement(program, rr.vcfr, opts), "")
        << "seed " << seed << "\n" << src;

    const auto naive =
        emu::run_image(rewriter::naive_ilr(rr.vcfr), limits);
    ASSERT_TRUE(naive.halted) << naive.error;
    EXPECT_EQ(naive.output, base.output) << "naive seed " << seed;
    EXPECT_EQ(naive.stats.instructions, base.stats.instructions);

    emu::RunLimits enforce = limits;
    enforce.enforce_tags = true;
    const auto vcfr = emu::run_image(rr.vcfr, enforce);
    ASSERT_TRUE(vcfr.halted) << vcfr.error;
    EXPECT_EQ(vcfr.output, base.output) << "vcfr seed " << seed;
    EXPECT_EQ(vcfr.stats.tag_violations, 0u);
  }
}

TEST_P(FuzzEquivalence, SoftwareReturnOptionAlsoAgrees) {
  ProgramFuzzer fuzzer(GetParam() ^ 0x77777777u);
  const std::string src = fuzzer.generate();
  const auto original = isa::assemble(src);
  emu::RunLimits limits;
  limits.max_instructions = 5'000'000;
  const auto base = emu::run_image(original, limits);
  ASSERT_TRUE(base.halted) << base.error;

  rewriter::RandomizeOptions opts;
  opts.seed = 5;
  opts.return_option = rewriter::ReturnOption::kSoftwareRewrite;
  const auto rr = rewriter::randomize(original, opts);
  emu::RunLimits enforce = limits;
  enforce.enforce_tags = true;
  const auto vcfr = emu::run_image(rr.vcfr, enforce);
  ASSERT_TRUE(vcfr.halted) << vcfr.error;
  EXPECT_EQ(vcfr.output, base.output);
}

TEST_P(FuzzEquivalence, PageConfinedAlsoAgrees) {
  ProgramFuzzer fuzzer(GetParam() ^ 0x12341234u);
  const auto original = isa::assemble(fuzzer.generate());
  emu::RunLimits limits;
  limits.max_instructions = 5'000'000;
  const auto base = emu::run_image(original, limits);
  ASSERT_TRUE(base.halted) << base.error;

  rewriter::RandomizeOptions opts;
  opts.seed = 6;
  opts.placement = rewriter::PlacementPolicy::kPageConfined;
  const auto rr = rewriter::randomize(original, opts);
  const auto naive =
      emu::run_image(rewriter::naive_ilr(rr.vcfr), limits);
  ASSERT_TRUE(naive.halted) << naive.error;
  EXPECT_EQ(naive.output, base.output);
}

INSTANTIATE_TEST_SUITE_P(Programs, FuzzEquivalence,
                         ::testing::Range(1u, 21u));

}  // namespace
}  // namespace vcfr
