// VXE serialization round-trip and robustness tests.
#include <gtest/gtest.h>

#include <sstream>

#include "binary/serialize.hpp"
#include "emu/emulator.hpp"
#include "isa/assembler.hpp"
#include "mutate.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::binary {
namespace {

Image sample_image() {
  return isa::assemble(R"(
    .name sample
    .entry main
    .data 0x10000000
    t:
      .ptr f
      .word 77
    .text
    .func main
    main:
      call f
      out r1
      halt
    .func f
    f:
      mov r1, 42
      ret
  )");
}

void expect_equal(const Image& a, const Image& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.layout, b.layout);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.code_base, b.code_base);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.data_base, b.data_base);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.entry, b.entry);
  EXPECT_EQ(a.relocs.size(), b.relocs.size());
  EXPECT_EQ(a.functions.size(), b.functions.size());
  EXPECT_EQ(a.rand_base, b.rand_base);
  EXPECT_EQ(a.rand_size, b.rand_size);
  EXPECT_EQ(a.sparse_code, b.sparse_code);
  EXPECT_EQ(a.fallthrough, b.fallthrough);
  EXPECT_EQ(a.tables.derand, b.tables.derand);
  EXPECT_EQ(a.tables.rand, b.tables.rand);
  EXPECT_EQ(a.tables.unrandomized, b.tables.unrandomized);
  EXPECT_EQ(a.tables.table_base, b.tables.table_base);
  EXPECT_EQ(a.tables.table_bytes, b.tables.table_bytes);
}

TEST(SerializeTest, OriginalRoundTrip) {
  const Image image = sample_image();
  std::stringstream ss;
  save(image, ss);
  const Image back = load_file(ss);
  expect_equal(image, back);
}

TEST(SerializeTest, RandomizedLayoutsRoundTripAndStillRun) {
  const Image image = sample_image();
  rewriter::RandomizeOptions opts;
  opts.seed = 31337;
  const auto rr = rewriter::randomize(image, opts);
  const Image naive = rewriter::naive_ilr(rr.program, rr.vcfr);
  const auto golden = emu::run_image(rr.vcfr);

  for (const Image* img : {&naive, &rr.vcfr}) {
    std::stringstream ss;
    save(*img, ss);
    const Image back = load_file(ss);
    expect_equal(*img, back);
    const auto r = emu::run_image(back);
    EXPECT_TRUE(r.halted) << r.error;
    EXPECT_EQ(r.output, golden.output);
  }
}

TEST(SerializeTest, WorkloadScaleRoundTrip) {
  const Image image = workloads::make("sjeng", 0);
  std::stringstream ss;
  save(image, ss);
  const Image back = load_file(ss);
  expect_equal(image, back);
}

TEST(SerializeTest, RejectsBadMagic) {
  std::stringstream ss;
  ss << "ELF!this is not a vxe image";
  EXPECT_THROW((void)load_file(ss), std::runtime_error);
}

TEST(SerializeTest, RejectsTruncation) {
  const Image image = sample_image();
  std::stringstream ss;
  save(image, ss);
  const std::string full = ss.str();
  for (size_t cut : {5ul, 20ul, full.size() / 2, full.size() - 3}) {
    std::stringstream part(full.substr(0, cut));
    EXPECT_THROW((void)load_file(part), std::runtime_error) << cut;
  }
}

TEST(SerializeTest, RejectsUnknownLayoutByte) {
  const Image image = sample_image();
  std::stringstream ss;
  save(image, ss);
  std::string bytes = ss.str();
  bytes[4] = 9;  // layout byte
  std::stringstream bad(bytes);
  EXPECT_THROW((void)load_file(bad), std::runtime_error);
}

TEST(SerializeTest, MutationFuzzOnlyEverThrowsFormatError) {
  // Loader-hardening contract: no byte-level mutation or truncation of a
  // valid VXE stream may escape load_file as anything but a typed
  // FormatError (and absolutely not as a crash or a std::bad_alloc from a
  // corrupted count field). A mutation that happens to keep the format
  // valid may still load — that is fine; only the failure *type* is pinned.
  const Image base = sample_image();
  rewriter::RandomizeOptions opts;
  opts.seed = 4242;
  const auto rr = rewriter::randomize(base, opts);
  const Image naive = rewriter::naive_ilr(rr.program, rr.vcfr);

  SplitMix64 rng(0x5eed);
  size_t loaded = 0, rejected = 0;
  for (const Image* img : {&base, &naive, &rr.vcfr}) {
    std::stringstream ss;
    save(*img, ss);
    const std::string bytes = ss.str();
    for (int round = 0; round < 200; ++round) {
      std::stringstream in(mutate(bytes, bytes.size(), rng));
      try {
        const Image back = load_file(in);
        (void)back;
        ++loaded;
      } catch (const FormatError& e) {
        EXPECT_FALSE(format_fault_name(e.fault()).empty());
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-FormatError escaped load_file: " << e.what();
      }
    }
  }
  EXPECT_EQ(loaded + rejected, 600u);
  EXPECT_GT(rejected, 0u) << "the fuzzer never hit a framing field";
}

TEST(SerializeTest, FileRoundTrip) {
  const Image image = sample_image();
  const std::string path = testing::TempDir() + "/vcfr_serialize_test.vxe";
  save(image, path);
  const Image back = load_file(path);
  expect_equal(image, back);
  EXPECT_THROW((void)load_file(path + ".does-not-exist"), std::runtime_error);
}

}  // namespace
}  // namespace vcfr::binary
