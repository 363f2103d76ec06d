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
        emu::run_image(rewriter::naive_ilr(rr.vcfr), limits());
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
// a byte. Recorded for the VXE4 format, whose bytes equal the VXE1 ones
// apart from the magic, the derand granule field and the two naive-ILR
// fields VXE4 dropped.
TEST(ImageBytesTest, AssembledWorkloadsArePinned) {
  struct Pin {
    const char* name;
    uint64_t scale0;
    uint64_t scale1;
  };
  const Pin pins[] = {
      {"bzip2", 6687000782147451024ull, 9917914456486702209ull},
      {"gcc", 1328811405389939894ull, 8828847008524244634ull},
      {"mcf", 983612024779748705ull, 6026541047298205898ull},
      {"hmmer", 7410128750042673474ull, 13475459778796579912ull},
      {"sjeng", 17217276859881537109ull, 7062492758065444125ull},
      {"libquantum", 2392852198083111134ull, 11996242015054966117ull},
      {"h264ref", 11540789399338415072ull, 6474157901507664202ull},
      {"lbm", 10225334892591253427ull, 16394336182570359870ull},
      {"xalan", 4054600154196459713ull, 10004416362679719223ull},
      {"namd", 7429067273917631632ull, 14006565126549343396ull},
      {"soplex", 11921512842649371312ull, 16542587766042952802ull},
      {"memcpy", 13487926344922435809ull, 7190184931638826761ull},
      {"python", 732422532013121343ull, 1500266378389587426ull},
      {"server", 5326230181190144504ull, 5326230181190144504ull},
      {"leaky", 8128056786451717709ull, 8128056786451717709ull},
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

// The naive-ILR image of a placement, built on request by naive_ilr(): the
// VCFR image's fields under layout byte 1. Recorded for the VXE4 format;
// the tables' sorted contents are the ones the VXE1 rewriter produced.
TEST(ImageBytesTest, NaiveIlrImagesArePinned) {
  struct Pin {
    const char* name;
    uint64_t seed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"bzip2", 1, 9277081208829704446ull},
      {"bzip2", 1337, 4871535266288683339ull},
      {"xalan", 1, 7880523759601040657ull},
      {"xalan", 1337, 7699498262336814827ull},
      {"python", 1, 2746555630280313657ull},
      {"python", 1337, 12277749334030132892ull},
  };
  for (const Pin& pin : pins) {
    rewriter::RandomizeOptions opts;
    opts.seed = pin.seed;
    const auto rr = rewriter::randomize(make(pin.name, 0), opts);
    EXPECT_EQ(saved_digest(rewriter::naive_ilr(rr.vcfr)),
              pin.digest)
        << pin.name << " seed " << pin.seed;
  }
}

// save(load_file(save(x))) == save(x) for all 42 images below: every
// table is written in key order, so the bytes are a function of the
// image's contents alone, whatever insertion history built its tables.
// The randomized VCFR images' bytes are pinned too (the naive ones are
// pinned above).
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
  };
  const Pin pins[] = {
      {"bzip2", 1, 14617308833896311599ull},
      {"bzip2", 1337, 13994529962685923822ull},
      {"xalan", 1, 3653671014268888018ull},
      {"xalan", 1337, 13177053071434950324ull},
      {"python", 1, 2687439827432660542ull},
      {"python", 1337, 11762506661419960787ull},
  };
  for (const Pin& pin : pins) {
    rewriter::RandomizeOptions opts;
    opts.seed = pin.seed;
    const auto rr = rewriter::randomize(make(pin.name, 0), opts);
    const binary::Image naive = rewriter::naive_ilr(rr.vcfr);
    EXPECT_EQ(resaved(rr.vcfr), saved(rr.vcfr))
        << pin.name << " seed " << pin.seed;
    EXPECT_EQ(resaved(naive), saved(naive))
        << pin.name << " naive seed " << pin.seed;
    EXPECT_EQ(fnv1a(saved(rr.vcfr)), pin.vcfr)
        << pin.name << " seed " << pin.seed;
  }
}

}  // namespace
}  // namespace vcfr::workloads
