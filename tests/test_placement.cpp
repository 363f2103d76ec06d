// Placement cost without placement change: the rewriter's MT19937-64
// engine against std::mt19937_64 (same values, same std::shuffle), and
// place()'s copy-then-patch code emission against a full re-encode of
// every instruction through the placement's tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "rewriter/randomizer.hpp"
#include "rewriter/rng.hpp"
#include "workloads/suite.hpp"

namespace vcfr::rewriter {
namespace {

constexpr uint64_t kSeeds[] = {0, 1, 7, 2015, 0x9e3779b97f4a7c15ULL,
                               ~uint64_t{0}};

TEST(PlacementEngineTest, DrawsEqualStdMt19937_64) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  for (const uint64_t seed : kSeeds) {
    std::mt19937_64 want(seed);
    Mt19937_64 got(seed);
    for (int i = 0; i < 2'000'000; ++i) {
      const uint64_t w = want();
      const uint64_t g = got();
      if (w != g) {
        FAIL() << "seed " << seed << " draw " << i << ": " << g
               << " != " << w;
      }
    }
  }
}

TEST(PlacementEngineTest, ShuffleEqualsStdShuffleAtEverySize) {
  for (const uint64_t seed : {uint64_t{7}, ~uint64_t{0}}) {
    std::mt19937_64 want_rng(seed);
    Mt19937_64 got_rng(seed);
    std::vector<uint32_t> want;
    std::vector<uint32_t> got;
    for (uint32_t n = 0; n <= 4097; ++n) {
      want.resize(n);
      std::iota(want.begin(), want.end(), 0u);
      got = want;
      std::shuffle(want.begin(), want.end(), want_rng);
      std::shuffle(got.begin(), got.end(), got_rng);
      ASSERT_EQ(got, want) << "seed " << seed << " size " << n;
    }
    // Both engines stay in step after all the shuffles.
    EXPECT_EQ(got_rng(), want_rng()) << "seed " << seed;
  }
}

/// The VCFR code of `placed` the slow way: every instruction of the
/// program re-encoded in order, each code-referring immediate mapped
/// through the placement's rand table.
std::vector<uint8_t> full_reencode(const Program& program,
                                   const binary::Image& placed) {
  std::vector<uint8_t> code;
  for (const isa::DisasmEntry& e : program.cfg.instrs) {
    isa::Instr instr = e.instr;
    const bool refers_to_code =
        instr.is_direct_transfer() || instr.op == isa::Op::kPushI ||
        (instr.op == isa::Op::kMovRI &&
         program.analysis.code_imm_sites.contains(e.addr));
    if (refers_to_code) instr.imm = placed.tables.to_randomized(instr.imm);
    isa::encode(instr, code);
  }
  return code;
}

std::vector<std::string> every_workload() {
  std::vector<std::string> names = workloads::spec_names();
  for (const std::string& n : workloads::fig2_names()) {
    if (std::find(names.begin(), names.end(), n) == names.end()) {
      names.push_back(n);
    }
  }
  names.push_back("server");
  names.push_back("leaky");
  return names;
}

TEST(PlacementEmissionTest, EqualsFullReencodeOnEveryWorkload) {
  for (const std::string& app : every_workload()) {
    for (const int scale : {0, 1}) {
      const Program program = prepare(workloads::make(app, scale));
      ASSERT_EQ(program.reencoded, program.image.code) << app;
      for (const uint64_t seed : {1ull, 1337ull, 2015ull}) {
        for (const PlacementPolicy policy :
             {PlacementPolicy::kFullSpread, PlacementPolicy::kPageConfined}) {
          RandomizeOptions opts;
          opts.seed = seed;
          opts.placement = policy;
          const binary::Image placed = place(program, opts);
          EXPECT_EQ(placed.code, full_reencode(program, placed))
              << app << " scale " << scale << " seed " << seed << " policy "
              << static_cast<int>(policy);
        }
      }
    }
  }
}

TEST(PlacementEmissionTest, EqualsFullReencodeUnderSoftwareCallRewrite) {
  RandomizeOptions opts;
  opts.seed = 1337;
  opts.return_option = ReturnOption::kSoftwareRewrite;
  const RandomizeResult rr = randomize(workloads::make("sjeng", 0), opts);
  ASSERT_GT(rr.sw_stats.calls_rewritten, 0u);
  EXPECT_EQ(rr.vcfr.code, full_reencode(rr.program, rr.vcfr));
}

// An image whose code ends in bytes that do not decode: the disassembly
// stops there, so the full re-encode (and place()) emits only the decoded
// prefix, whatever the trailing bytes were.
TEST(PlacementEmissionTest, EqualsFullReencodePastAnUndecodableTail) {
  binary::Image original = isa::assemble(R"(
    .entry main
    .func main
    main:
      mov r1, 3
    loop:
      call step
      sub r1, 1
      cmp r1, 0
      jne loop
      halt
    .func step
    step:
      out r1
      ret
  )");
  ASSERT_FALSE(isa::is_valid_opcode(0xff));
  const size_t decoded = original.code.size();
  original.code.insert(original.code.end(), {0xff, 0x05, 0x00});
  const Program program = prepare(original);
  ASSERT_EQ(program.reencoded.size(), decoded);
  for (const uint64_t seed : {1ull, 1337ull, 2015ull}) {
    RandomizeOptions opts;
    opts.seed = seed;
    const binary::Image placed = place(program, opts);
    EXPECT_EQ(placed.code, full_reencode(program, placed)) << seed;
  }
}

}  // namespace
}  // namespace vcfr::rewriter
