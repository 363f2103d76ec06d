// Workload-suite tests: every synthetic SPEC stand-in must run to
// completion deterministically, and — the central property — behave
// identically under naive-ILR and VCFR randomization for arbitrary seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "binary/serialize.hpp"
#include "emu/emulator.hpp"
#include "rewriter/cfg.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::workloads {
namespace {

emu::RunLimits limits() {
  emu::RunLimits l;
  l.max_instructions = 20'000'000;
  return l;
}

class WorkloadRuns : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadRuns, CompletesAndIsDeterministic) {
  const auto img = make(GetParam(), /*scale=*/0);
  const auto r1 = emu::run_image(img, limits());
  ASSERT_TRUE(r1.halted) << GetParam() << ": " << r1.error;
  ASSERT_FALSE(r1.output.empty());
  const auto r2 = emu::run_image(img, limits());
  EXPECT_EQ(r1.output, r2.output);
  EXPECT_EQ(r1.stats.instructions, r2.stats.instructions);
}

TEST_P(WorkloadRuns, SurvivesRandomizationBothLayouts) {
  const auto img = make(GetParam(), /*scale=*/0);
  const auto base = emu::run_image(img, limits());
  ASSERT_TRUE(base.halted) << base.error;

  for (uint64_t seed : {1ull, 1337ull}) {
    rewriter::RandomizeOptions opts;
    opts.seed = seed;
    const auto rr = rewriter::randomize(img, opts);

    const auto naive =
        emu::run_image(rewriter::naive_ilr(rr.program, rr.vcfr), limits());
    EXPECT_TRUE(naive.halted) << GetParam() << " naive seed " << seed << ": "
                              << naive.error;
    EXPECT_EQ(naive.output, base.output) << GetParam() << " naive " << seed;

    const auto vcfr = emu::run_image(rr.vcfr, limits());
    EXPECT_TRUE(vcfr.halted) << GetParam() << " vcfr seed " << seed << ": "
                             << vcfr.error;
    EXPECT_EQ(vcfr.output, base.output) << GetParam() << " vcfr " << seed;
    EXPECT_EQ(vcfr.stats.tag_violations, 0u) << GetParam();
  }
}

TEST_P(WorkloadRuns, RunsCleanUnderTagEnforcement) {
  // The hardware's randomized-tag prohibition (§IV-A) must never trip on
  // legitimate executions: the analyses put every address that legitimate
  // control flow can reach in original space into the failover set.
  const auto img = make(GetParam(), /*scale=*/0);
  const auto rr = rewriter::randomize(img, {});
  auto l = limits();
  l.enforce_tags = true;
  const auto r = emu::run_image(rr.vcfr, l);
  EXPECT_TRUE(r.halted) << GetParam() << ": " << r.error;
}

INSTANTIATE_TEST_SUITE_P(AllApps, WorkloadRuns,
                         ::testing::Values("bzip2", "gcc", "mcf", "hmmer",
                                           "sjeng", "libquantum", "h264ref",
                                           "lbm", "xalan", "namd", "soplex",
                                           "memcpy", "python"));

TEST(SuiteTest, NameListsAreConsistent) {
  EXPECT_EQ(spec_names().size(), 11u);
  EXPECT_EQ(fig2_names().size(), 6u);
  for (const auto& n : spec_names()) EXPECT_NO_THROW((void)make(n, 0));
  EXPECT_THROW((void)make("notaworkload", 0), std::invalid_argument);
}

TEST(SuiteTest, ScaleGrowsWork) {
  const auto small = emu::run_image(make("hmmer", 0), limits());
  const auto big = emu::run_image(make("hmmer", 1), limits());
  ASSERT_TRUE(small.halted);
  ASSERT_TRUE(big.halted);
  EXPECT_GT(big.stats.instructions, 4 * small.stats.instructions);
}

TEST(SuiteTest, StaticCharactersMatchTableII) {
  // Relative shape of Table II: xalan has by far the most indirect calls;
  // gcc has the most direct transfers; both have large code.
  auto stats = [](const char* name) {
    const auto img = make(name, 1);
    const auto cfg = rewriter::build_cfg(img);
    return rewriter::static_stats(img, cfg);
  };
  const auto xalan = stats("xalan");
  const auto gcc = stats("gcc");
  const auto mcf = stats("mcf");
  EXPECT_GT(xalan.indirect_calls, gcc.indirect_calls);
  EXPECT_GT(xalan.indirect_calls, 10u * std::max<uint64_t>(1, mcf.indirect_calls));
  EXPECT_GT(gcc.direct_transfers, mcf.direct_transfers);
  EXPECT_GT(gcc.instructions, 2000u);
  EXPECT_GT(xalan.instructions, 2000u);
  // gcc carries the largest code body; mcf's core is small (its bulk is
  // the shared warm/cold bank all apps carry).
  EXPECT_GT(gcc.instructions, mcf.instructions);
}

TEST(SuiteTest, XalanComputedClusterPopulatesFailoverSet) {
  const auto img = make("xalan", 0);
  const auto rr = rewriter::randomize(img, {});
  EXPECT_GT(rr.vcfr.tables.unrandomized.size(), 8u);
  // But the failover set stays a small fraction of the program.
  const auto cfg = rewriter::build_cfg(img);
  EXPECT_LT(rr.vcfr.tables.unrandomized.size(), cfg.instrs.size() / 5);
}

TEST(SuiteTest, GccExercisesReturnAddressBitmap) {
  const auto img = make("gcc", 0);
  rewriter::RandomizeOptions opts;
  opts.return_policy = rewriter::ReturnPolicy::kArchitectural;
  const auto rr = rewriter::randomize(img, opts);
  const auto r = emu::run_image(rr.vcfr, limits());
  ASSERT_TRUE(r.halted) << r.error;
  EXPECT_GT(r.stats.bitmap_autoderand_loads, 0u)
      << "the PIC probe must hit the §IV-C auto-de-randomization path";
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t saved_digest(const binary::Image& image) {
  std::ostringstream out;
  binary::save(image, out);
  return fnv1a(out.str());
}

// The VXE bytes of every workload make() accepts, at scales 0 and 1: the
// assembler's output, pinned so that a faster lexer or parser cannot move
// a byte. The digests were taken from the assembler before its lexer
// stopped allocating per line.
TEST(ImageBytesTest, AssembledWorkloadsArePinned) {
  struct Pin {
    const char* name;
    uint64_t scale0;
    uint64_t scale1;
  };
  const Pin pins[] = {
      {"bzip2", 17842107966005708496ull, 16081021776858450271ull},
      {"gcc", 12587560865310788880ull, 15807451289542210584ull},
      {"mcf", 9464809348757393843ull, 15031905466931554804ull},
      {"hmmer", 18225495578382727944ull, 4053429585965116102ull},
      {"sjeng", 13833177087393605111ull, 11363623072884085859ull},
      {"libquantum", 13892411166468433932ull, 10126808085680875943ull},
      {"h264ref", 13118020117839878140ull, 10513728802580830222ull},
      {"lbm", 655147510750424927ull, 12435757700428544182ull},
      {"xalan", 10931455095271427363ull, 2745841047309260973ull},
      {"namd", 1459139905960036352ull, 4902549325421101032ull},
      {"soplex", 22884031642256224ull, 11197100772137485010ull},
      {"memcpy", 14763743941903418279ull, 12283164335165045463ull},
      {"python", 547048250042161961ull, 11036240022153354252ull},
      {"server", 8573251576111975044ull, 8573251576111975044ull},
      {"leaky", 2305316633519859539ull, 2305316633519859539ull},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(saved_digest(make(pin.name, 0)), pin.scale0) << pin.name;
    EXPECT_EQ(saved_digest(make(pin.name, 1)), pin.scale1) << pin.name;
  }
  // The table covers every suite and Figure 2 name.
  for (const auto* names : {&spec_names(), &fig2_names()}) {
    for (const std::string& name : *names) {
      EXPECT_TRUE(std::any_of(std::begin(pins), std::end(pins),
                              [&](const Pin& p) { return name == p.name; }))
          << name;
    }
  }
}

// The naive-ILR image of a placement, built on request by naive_ilr():
// its sparse_code iteration order and fall-through slot layout are what
// binary::save writes. Digests taken when randomize() still built this
// image itself.
TEST(ImageBytesTest, NaiveIlrImagesArePinned) {
  struct Pin {
    const char* name;
    uint64_t seed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"bzip2", 1, 1017958818092521480ull},
      {"bzip2", 1337, 4210639833009909576ull},
      {"xalan", 1, 6547860145652196900ull},
      {"xalan", 1337, 493995577447798356ull},
      {"python", 1, 12152106534176689416ull},
      {"python", 1337, 4744341797634495946ull},
  };
  for (const Pin& pin : pins) {
    rewriter::RandomizeOptions opts;
    opts.seed = pin.seed;
    const auto rr = rewriter::randomize(make(pin.name, 0), opts);
    EXPECT_EQ(saved_digest(rewriter::naive_ilr(rr.program, rr.vcfr)),
              pin.digest)
        << pin.name << " seed " << pin.seed;
  }
}

// save(load_file(save(x))): loading rebuilds an image's hash tables (the
// flat translation tables, the fall-through map, the naive-ILR sparse
// code) by reserving the saved count and inserting in stream order, and
// their iteration order, hence the re-saved bytes, depends on capacity
// and insertion order. An assembled image has no table entries, so it
// re-saves to its own bytes. A randomized image's tables were built by
// the rewriter with another insertion history, so its re-saved bytes may
// differ from the original (8 of the 12 below do); their digests are
// pinned as the loader produced them before it moved onto StateIo.
TEST(ImageBytesTest, SaveLoadSaveIsPinned) {
  const auto saved = [](const binary::Image& image) {
    std::ostringstream out;
    binary::save(image, out);
    return out.str();
  };
  const auto resaved = [&](const binary::Image& image) {
    std::istringstream in(saved(image));
    return saved(binary::load_file(in));
  };
  for (const char* name :
       {"bzip2", "gcc", "mcf", "hmmer", "sjeng", "libquantum", "h264ref",
        "lbm", "xalan", "namd", "soplex", "memcpy", "python", "server",
        "leaky"}) {
    for (const int scale : {0, 1}) {
      const binary::Image image = make(name, scale);
      EXPECT_EQ(resaved(image), saved(image)) << name << " scale " << scale;
    }
  }
  struct Pin {
    const char* name;
    uint64_t seed;
    uint64_t vcfr;
    uint64_t naive;
  };
  const Pin pins[] = {
      {"bzip2", 1, 17593693892916785814ull, 10328653519068677416ull},
      {"bzip2", 1337, 14028522829217844479ull, 16174354046654914426ull},
      {"xalan", 1, 5467445589085518281ull, 12310431228779117660ull},
      {"xalan", 1337, 6102246908124743039ull, 2505658100312825996ull},
      {"python", 1, 12212558354920116085ull, 3163264949187958852ull},
      {"python", 1337, 14708866309204880744ull, 15897179674138454818ull},
  };
  for (const Pin& pin : pins) {
    rewriter::RandomizeOptions opts;
    opts.seed = pin.seed;
    const auto rr = rewriter::randomize(make(pin.name, 0), opts);
    EXPECT_EQ(fnv1a(resaved(rr.vcfr)), pin.vcfr)
        << pin.name << " seed " << pin.seed;
    EXPECT_EQ(fnv1a(resaved(rewriter::naive_ilr(rr.program, rr.vcfr))),
              pin.naive)
        << pin.name << " naive seed " << pin.seed;
  }
}

}  // namespace
}  // namespace vcfr::workloads
