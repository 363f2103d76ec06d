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
// a byte. Recorded for the VXE3 format, whose bytes equal the VXE1 ones
// apart from the magic and the derand granule field.
TEST(ImageBytesTest, AssembledWorkloadsArePinned) {
  struct Pin {
    const char* name;
    uint64_t scale0;
    uint64_t scale1;
  };
  const Pin pins[] = {
      {"bzip2", 7085219859374289875ull, 2263281453843411172ull},
      {"gcc", 6050613586764358863ull, 17330923779472525391ull},
      {"mcf", 11000382109389463788ull, 13716170274653090319ull},
      {"hmmer", 635217553971890675ull, 1171057832222321253ull},
      {"sjeng", 10340768232242112848ull, 17809880143335241236ull},
      {"libquantum", 15140566967017962207ull, 5185080903888706504ull},
      {"h264ref", 4337449249213795987ull, 10492685163536150345ull},
      {"lbm", 11571223370602905576ull, 4530443338521459265ull},
      {"xalan", 14034562027064960820ull, 7799305153843968534ull},
      {"namd", 7493267445195864423ull, 12448799822314355791ull},
      {"soplex", 3451600543222768683ull, 2583512282321043933ull},
      {"memcpy", 12338123976157539316ull, 16623846870908564108ull},
      {"python", 9785912335075473718ull, 14837978146302544371ull},
      {"server", 8786851908046847679ull, 8786851908046847679ull},
      {"leaky", 16130312884624071448ull, 16130312884624071448ull},
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

// The naive-ILR image of a placement, built on request by naive_ilr(),
// with its sparse code, fall-through map and tables written in key order.
// Recorded for the VXE3 format; the tables' sorted contents are the ones
// the VXE1 rewriter produced.
TEST(ImageBytesTest, NaiveIlrImagesArePinned) {
  struct Pin {
    const char* name;
    uint64_t seed;
    uint64_t digest;
  };
  const Pin pins[] = {
      {"bzip2", 1, 4081532963294983980ull},
      {"bzip2", 1337, 4978179307746824030ull},
      {"xalan", 1, 6423964274000831194ull},
      {"xalan", 1337, 4945063598903684398ull},
      {"python", 1, 5188177142902733958ull},
      {"python", 1337, 7272648392940274168ull},
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
      {"bzip2", 1, 2033040167236016048ull},
      {"bzip2", 1337, 10607569098027425777ull},
      {"xalan", 1, 789602920281776603ull},
      {"xalan", 1337, 13421341010688794061ull},
      {"python", 1, 9749317930537047847ull},
      {"python", 1337, 14549143213426085750ull},
  };
  for (const Pin& pin : pins) {
    rewriter::RandomizeOptions opts;
    opts.seed = pin.seed;
    const auto rr = rewriter::randomize(make(pin.name, 0), opts);
    const binary::Image naive = rewriter::naive_ilr(rr.program, rr.vcfr);
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
