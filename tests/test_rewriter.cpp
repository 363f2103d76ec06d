// CFG, analysis, and randomizer tests, including the central property:
// ILR/VCFR randomization preserves program semantics for arbitrary seeds.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "binary/serialize.hpp"
#include "emu/emulator.hpp"
#include "isa/assembler.hpp"
#include "rewriter/cfg.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::rewriter {
namespace {

using binary::Image;
using binary::Layout;
using emu::run_image;

// A program exercising every control-flow feature the rewriter handles:
// loops, direct/indirect calls, a jump table, recursion, and a PIC-style
// function that reads its own return address.
constexpr const char* kRichProgram = R"(
  .name rich
  .entry main
  .data 0x10000000
  jt:
    .ptr op_add
    .ptr op_sub
    .ptr op_mul
  vals:
    .word 17
    .word 5
  .text
  .func main
  main:
    mov r10, @vals
    ld r1, [r10]
    ld r2, [r10+4]
    mov r3, 0          ; selector
  dispatch_loop:
    mov r4, @jt
    mov r5, r3
    mul r5, 4
    add r4, r5
    ld r6, [r4]
    callr r6           ; indirect call through the jump table
    out r1
    add r3, 1
    cmp r3, 3
    jlt dispatch_loop
    call fact_entry
    out r7
    call pic_reader
    out r9
    halt
  .func op_add
  op_add:
    add r1, r2
    ret
  .func op_sub
  op_sub:
    sub r1, r2
    ret
  .func op_mul
  op_mul:
    mul r1, r2
    ret
  .func fact_entry
  fact_entry:
    mov r7, 1
    mov r8, 5
  fact_loop:
    mul r7, r8
    sub r8, 1
    cmp r8, 0
    jgt fact_loop
    ret
  .func pic_reader
  pic_reader:
    ld r9, [sp]       ; read own return address (PIC idiom)
    and r9, 0         ; use it only for computation, then discard
    add r9, 123
    ret
)";

std::vector<uint32_t> expected_rich_output() {
  // r1=17,r2=5: add->22, sub->17, mul->85; fact 5!=120; pic yields 123.
  return {22u, 17u, 85u, 120u, 123u};
}

TEST(CfgTest, BlocksAndLeaders) {
  const Image img = isa::assemble(R"(
    .entry main
    main:
      mov r1, 0
    loop:
      add r1, 1
      cmp r1, 3
      jlt loop
      halt
  )");
  const Cfg cfg = build_cfg(img);
  ASSERT_EQ(cfg.instrs.size(), 5u);
  // Blocks: [mov], [add,cmp,jlt], [halt].
  ASSERT_EQ(cfg.blocks.size(), 3u);
  EXPECT_EQ(cfg.blocks[0].num_instrs, 1u);
  EXPECT_EQ(cfg.blocks[1].num_instrs, 3u);
  EXPECT_EQ(cfg.blocks[2].num_instrs, 1u);
  // Loop block has two successors: taken target + fall-through.
  EXPECT_EQ(cfg.blocks[1].successors.size(), 2u);
}

TEST(CfgTest, FunctionExtentsAndRetDetection) {
  const Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      call f
      halt
    .func f
    f:
      ret
    .func noret
    noret:
      jmp main
  )");
  const Cfg cfg = build_cfg(img);
  ASSERT_EQ(cfg.functions.size(), 3u);
  EXPECT_FALSE(cfg.functions[0].has_ret);
  EXPECT_TRUE(cfg.functions[1].has_ret);
  EXPECT_FALSE(cfg.functions[2].has_ret);
  EXPECT_EQ(cfg.function_of(img.entry), &cfg.functions[0]);
  EXPECT_EQ(cfg.function_of(0x0), nullptr);
}

TEST(AnalysisTest, StaticStatsCountTransferKinds) {
  const Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      call f
      callr r1
      jmp x
    x:
      jne x
      jmpr r2
    .func f
    f:
      ret
  )");
  const Cfg cfg = build_cfg(img);
  const StaticStats s = static_stats(img, cfg);
  EXPECT_EQ(s.direct_transfers, 3u);   // call f, jmp, jne
  EXPECT_EQ(s.indirect_transfers, 2u); // callr, jmpr
  EXPECT_EQ(s.function_calls, 2u);
  EXPECT_EQ(s.indirect_calls, 1u);
  EXPECT_EQ(s.returns, 1u);
  EXPECT_EQ(s.functions_with_ret, 1u);
  EXPECT_EQ(s.functions_without_ret, 1u);
}

TEST(AnalysisTest, UnprovenDataPointerKeepsTargetUnrandomized) {
  // A raw .word holding a code address (no .ptr relocation) models
  // incomplete relocation info: its target must stay at its original
  // address (the paper's failover, §IV-A).
  const Image img = isa::assemble(R"(
    .entry main
    .data 0x10000000
    raw:
      .word 0x1000     ; address of main, but not relocation-covered
    .text
    main:
      halt
  )");
  const Cfg cfg = build_cfg(img);
  const AnalysisResult ar = analyze(img, cfg, ReturnPolicy::kArchitectural);
  EXPECT_TRUE(ar.unproven_data_slots.contains(0x10000000u));
  EXPECT_TRUE(ar.unrandomized.contains(0x1000u));
}

TEST(AnalysisTest, RelocCoveredPointerIsPatched) {
  const Image img = isa::assemble(R"(
    .entry main
    .data 0x10000000
    jt:
      .ptr main
    .text
    main:
      halt
  )");
  const Cfg cfg = build_cfg(img);
  const AnalysisResult ar = analyze(img, cfg, ReturnPolicy::kArchitectural);
  EXPECT_TRUE(ar.patched_data_slots.contains(0x10000000u));
  EXPECT_FALSE(ar.unrandomized.contains(img.entry));
}

TEST(AnalysisTest, IndirectCallReturnSitesAreUnsafe) {
  const Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      callr r1
      halt
  )");
  const Cfg cfg = build_cfg(img);
  const AnalysisResult ar = analyze(img, cfg, ReturnPolicy::kArchitectural);
  ASSERT_EQ(ar.unsafe_return_sites.size(), 1u);
  // The return site is the halt after the 2-byte callr.
  EXPECT_TRUE(ar.unsafe_return_sites.contains(img.entry + 2));
}

TEST(AnalysisTest, PicReaderUnsafeOnlyUnderConservativePolicy) {
  const Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      call pic
      halt
    .func pic
    pic:
      ld r1, [sp]
      ret
  )");
  const Cfg cfg = build_cfg(img);
  const auto cons = analyze(img, cfg, ReturnPolicy::kConservative);
  const auto arch = analyze(img, cfg, ReturnPolicy::kArchitectural);
  EXPECT_EQ(cons.unsafe_return_sites.size(), 1u);
  EXPECT_TRUE(arch.unsafe_return_sites.empty())
      << "the §IV-C bitmap makes PIC reads safe to randomize";
}

TEST(AnalysisTest, ComputedDispatchWindowIsUnrandomized) {
  const Image img = isa::assemble(R"(
    .entry main
    .func main
    main:
      mov r1, @handlers
      mov r2, 3
      mul r2, 8
      add r1, r2
      jmpr r1
    .func handlers
    handlers:
      nop
      ret
  )");
  const Cfg cfg = build_cfg(img);
  const AnalysisResult ar = analyze(img, cfg, ReturnPolicy::kArchitectural);
  // Every instruction of the handlers function stays at its original
  // address, and the base mov is not patched.
  const auto* f = cfg.function_of(img.functions[1].addr);
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(ar.unrandomized.contains(f->start));
  EXPECT_FALSE(ar.code_imm_sites.contains(img.entry));
}

// --- the central equivalence property -------------------------------------

class RandomizeEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizeEquivalence, RichProgramAllLayoutsAgree) {
  const Image original = isa::assemble(kRichProgram);
  const auto expected = expected_rich_output();

  const auto base = run_image(original);
  ASSERT_TRUE(base.halted) << base.error;
  ASSERT_EQ(base.output, expected);

  RandomizeOptions opts;
  opts.seed = GetParam();
  const RandomizeResult rr = randomize(original, opts);

  const auto naive = run_image(rewriter::naive_ilr(rr.vcfr));
  EXPECT_TRUE(naive.halted) << naive.error;
  EXPECT_EQ(naive.output, expected);

  const auto vcfr = run_image(rr.vcfr);
  EXPECT_TRUE(vcfr.halted) << vcfr.error;
  EXPECT_EQ(vcfr.output, expected);
  EXPECT_EQ(vcfr.stats.tag_violations, 0u);

  // Same dynamic instruction counts: randomization must not add or drop
  // architecturally executed instructions.
  EXPECT_EQ(naive.stats.instructions, base.stats.instructions);
  EXPECT_EQ(vcfr.stats.instructions, base.stats.instructions);
}

TEST_P(RandomizeEquivalence, ConservativePolicyAlsoAgrees) {
  const Image original = isa::assemble(kRichProgram);
  RandomizeOptions opts;
  opts.seed = GetParam();
  opts.return_policy = ReturnPolicy::kConservative;
  const RandomizeResult rr = randomize(original, opts);

  const auto vcfr = run_image(rr.vcfr);
  EXPECT_TRUE(vcfr.halted) << vcfr.error;
  EXPECT_EQ(vcfr.output, expected_rich_output());
  EXPECT_EQ(vcfr.stats.tag_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizeEquivalence,
                         ::testing::Values(1u, 2u, 7u, 42u, 1234u, 99999u,
                                           0xdeadbeefu));

TEST(RandomizerTest, PlacementIsDisjointAndInRegion) {
  const Image original = isa::assemble(kRichProgram);
  RandomizeOptions opts;
  opts.seed = 5;
  const RandomizeResult rr = randomize(original, opts);
  std::unordered_set<uint32_t> seen;
  for (const auto& [orig, rand_addr] : rr.vcfr.tables.rand.entries()) {
    EXPECT_GE(rand_addr, opts.rand_base);
    EXPECT_LT(rand_addr, opts.rand_base + rr.vcfr.rand_size);
    // One instruction per slot: distinct slot indices.
    EXPECT_TRUE(seen.insert((rand_addr - opts.rand_base) / opts.slot_bytes)
                    .second)
        << "two instructions share a slot";
    (void)orig;
  }
}

TEST(RandomizerTest, DifferentSeedsGiveDifferentPlacements) {
  const Image original = isa::assemble(kRichProgram);
  RandomizeOptions a, b;
  a.seed = 1;
  b.seed = 2;
  const auto ra = randomize(original, a);
  const auto rb = randomize(original, b);
  size_t same = 0;
  for (const auto& [orig, rand_addr] : ra.vcfr.tables.rand.entries()) {
    const uint32_t* other = rb.vcfr.tables.rand.lookup(orig);
    if (other != nullptr && *other == rand_addr) ++same;
  }
  EXPECT_LT(same, ra.vcfr.tables.rand.size() / 4)
      << "re-randomization should relocate almost everything";
}

TEST(RandomizerTest, VcfrKeepsOriginalLayout) {
  const Image original = isa::assemble(kRichProgram);
  const RandomizeResult rr = randomize(original, {});
  ASSERT_EQ(rr.vcfr.code.size(), original.code.size());
  // Instruction boundaries and opcodes are unchanged; only transfer
  // targets / patched immediates may differ.
  const auto before = isa::disassemble(original);
  const auto after = isa::disassemble(rr.vcfr);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].addr, after[i].addr);
    EXPECT_EQ(before[i].instr.op, after[i].instr.op);
  }
}

TEST(RandomizerTest, TranslationTablesAreConsistent) {
  const Image original = isa::assemble(kRichProgram);
  const RandomizeResult rr = randomize(original, {});
  const auto& t = rr.vcfr.tables;
  EXPECT_EQ(t.derand.size(), t.rand.size());
  for (const auto& [rand_addr, orig] : t.derand.entries()) {
    const uint32_t* placed = t.rand.lookup(orig);
    ASSERT_NE(placed, nullptr);
    EXPECT_EQ(*placed, rand_addr);
  }
  EXPECT_GT(t.table_bytes, 0u);
  EXPECT_EQ(t.table_bytes & (t.table_bytes - 1), 0u) << "power-of-two size";
}

TEST(RandomizerTest, PageConfinedPlacementStaysInPage) {
  const Image original = isa::assemble(kRichProgram);
  RandomizeOptions opts;
  opts.seed = 9;
  opts.placement = PlacementPolicy::kPageConfined;
  const RandomizeResult rr = randomize(original, opts);
  // One randomized region (page + a line of straddle slop) per original
  // page.
  constexpr uint32_t kStride = 4096 + 64;
  for (const auto& [orig, rand_addr] : rr.vcfr.tables.rand.entries()) {
    const uint32_t orig_page = (orig - original.code_base) / 4096;
    const uint32_t rand_region = (rand_addr - opts.rand_base) / kStride;
    EXPECT_EQ(orig_page, rand_region)
        << "instruction left its region: " << orig << " -> " << rand_addr;
  }
  // Instructions still get shuffled within the page.
  size_t moved_order = 0;
  for (const auto& [orig, rand_addr] : rr.vcfr.tables.rand.entries()) {
    if ((rand_addr - opts.rand_base) != (orig - original.code_base)) {
      ++moved_order;
    }
  }
  EXPECT_GT(moved_order, rr.vcfr.tables.rand.size() / 2);
}

// check_placement knows the kPageConfined geometry: the page-confined
// placement of every suite app under BENCH_paper's ablation options
// (scale 1, seed 2015) passes it.
TEST(RandomizerTest, PageConfinedPlacementsPassTheVerifier) {
  RandomizeOptions opts;
  opts.seed = 2015;
  opts.placement = PlacementPolicy::kPageConfined;
  for (const std::string& app : workloads::spec_names()) {
    const RandomizeResult rr = randomize(workloads::make(app, 1), opts);
    EXPECT_EQ(check_placement(rr.program, rr.vcfr, opts), "") << app;
  }
}

// Hand-made page-confined mutants, each moved consistently in both
// tables: an instruction of page 0 moved into page 1's region, and an
// instruction moved onto the byte after another one's start.
TEST(RandomizerTest, PageConfinedVerifierNamesEachViolation) {
  RandomizeOptions opts;
  opts.seed = 2015;
  opts.placement = PlacementPolicy::kPageConfined;
  const RandomizeResult rr = randomize(workloads::make("gcc", 1), opts);
  ASSERT_EQ(check_placement(rr.program, rr.vcfr, opts), "");
  const auto rand = rr.vcfr.tables.rand.entries();
  const auto page_of = [&](uint32_t orig) {
    return (orig - rr.vcfr.code_base) / 4096;
  };
  const auto length_of = [&](uint32_t orig) {
    return rr.program.cfg.instrs[rr.program.cfg.instr_at.at(orig)].instr.length;
  };
  ASSERT_GT(rr.vcfr.rand_size, 2u * (4096 + 64)) << "gcc@1 spans pages";
  ASSERT_EQ(page_of(rand[0].first), 0u);
  ASSERT_EQ(page_of(rand[1].first), 0u);
  const auto move = [&](uint32_t orig, uint32_t to) {
    Image mutant = rr.vcfr;
    auto& t = mutant.tables;
    EXPECT_TRUE(t.derand.erase(*t.rand.lookup(orig)));
    t.rand.set(orig, to);
    EXPECT_TRUE(t.derand.emplace(to, orig));
    return check_placement(rr.program, mutant, opts);
  };
  // The last free byte of page 1's region.
  uint32_t away = opts.rand_base + 2 * (4096 + 64) - 1;
  while (rr.vcfr.tables.derand.contains(away)) --away;
  char name[16];
  std::snprintf(name, sizeof name, "0x%08x", away);
  const std::string outside = move(rand[0].first, away);
  EXPECT_NE(outside.find("outside its page's region"), std::string::npos)
      << outside;
  EXPECT_NE(outside.find(name), std::string::npos) << outside;

  // rand[1] moves one byte past the start of another page-0 instruction
  // of two or more bytes, staying inside page 0's region.
  for (size_t i = 2; i < rand.size(); ++i) {
    const uint32_t onto = rand[i].second + 1;
    if (page_of(rand[i].first) != 0 || length_of(rand[i].first) < 2 ||
        rr.vcfr.tables.derand.contains(onto) ||
        onto - opts.rand_base + length_of(rand[1].first) > 4096 + 64) {
      continue;
    }
    const std::string overlap = move(rand[1].first, onto);
    EXPECT_NE(overlap.find("placements overlap"), std::string::npos)
        << overlap;
    return;
  }
  FAIL() << "no page-0 instruction to overlap";
}

TEST(RandomizerTest, PageConfinedPreservesSemantics) {
  const Image original = isa::assemble(kRichProgram);
  for (uint64_t seed : {1ull, 55ull}) {
    RandomizeOptions opts;
    opts.seed = seed;
    opts.placement = PlacementPolicy::kPageConfined;
    const RandomizeResult rr = randomize(original, opts);
    const auto naive = run_image(rewriter::naive_ilr(rr.vcfr));
    EXPECT_TRUE(naive.halted) << naive.error;
    EXPECT_EQ(naive.output, expected_rich_output());
    const auto vcfr = run_image(rr.vcfr);
    EXPECT_TRUE(vcfr.halted) << vcfr.error;
    EXPECT_EQ(vcfr.output, expected_rich_output());
  }
}

TEST(RandomizerTest, RejectsAlreadyRandomizedImages) {
  const Image original = isa::assemble(kRichProgram);
  const RandomizeResult rr = randomize(original, {});
  EXPECT_THROW((void)randomize(rr.vcfr, {}), std::invalid_argument);
  RandomizeOptions bad;
  bad.slot_bytes = 4;
  EXPECT_THROW((void)randomize(original, bad), std::invalid_argument);
  bad = {};
  bad.spread = 0.5;
  EXPECT_THROW((void)randomize(original, bad), std::invalid_argument);
}

std::string saved(const Image& image) {
  std::ostringstream out;
  binary::save(image, out);
  return out.str();
}

// prepare() once + place() per seed is randomize() minus the naive image.
TEST(RandomizerTest, PlaceOfPreparedProgramMatchesRandomize) {
  for (const std::string& app : workloads::spec_names()) {
    for (const int scale : {0, 1}) {
      const Image original = workloads::make(app, scale);
      const Program program = prepare(original);
      for (const uint64_t seed : {1ull, 7ull, 1009ull}) {
        for (const PlacementPolicy policy :
             {PlacementPolicy::kFullSpread, PlacementPolicy::kPageConfined}) {
          RandomizeOptions opts;
          opts.seed = seed;
          opts.placement = policy;
          const Image placed = place(program, opts);
          const RandomizeResult rr = randomize(original, opts);
          EXPECT_EQ(saved(placed), saved(rr.vcfr))
              << app << " scale " << scale << " seed " << seed;
          EXPECT_EQ(placed.tables.rand, rr.vcfr.tables.rand)
              << app << " scale " << scale << " seed " << seed;
        }
      }
    }
  }
}

TEST(RandomizerTest, NaiveIlrRequiresAVcfrImage) {
  const Image original = isa::assemble(kRichProgram);
  const Program program = prepare(original);
  EXPECT_THROW((void)naive_ilr(original), std::invalid_argument);
  const Image naive = naive_ilr(place(program, {}));
  EXPECT_EQ(naive.layout, binary::Layout::kNaiveIlr);
  EXPECT_THROW((void)naive_ilr(naive), std::invalid_argument);
}

TEST(RandomizerTest, PlaceRejectsOptionsItsProgramWasNotPreparedFor) {
  const Image original = isa::assemble(kRichProgram);
  EXPECT_THROW((void)prepare(randomize(original, {}).vcfr),
               std::invalid_argument);
  const Program program = prepare(original);
  RandomizeOptions bad;
  bad.return_policy = ReturnPolicy::kConservative;
  EXPECT_THROW((void)place(program, bad), std::invalid_argument);
  bad = {};
  bad.return_option = ReturnOption::kSoftwareRewrite;
  EXPECT_THROW((void)place(program, bad), std::invalid_argument);
  bad = {};
  bad.slot_bytes = 4;
  EXPECT_THROW((void)place(program, bad), std::invalid_argument);
}

}  // namespace
}  // namespace vcfr::rewriter
