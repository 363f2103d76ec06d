// VXE serialization round-trip and robustness tests.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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
  const Image naive = rewriter::naive_ilr(rr.vcfr);
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
  const Image naive = rewriter::naive_ilr(rr.vcfr);

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

std::string saved(const Image& image) {
  std::ostringstream out;
  save(image, out);
  return out.str();
}

void put_u32(std::string& bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// Stream offsets of `image`'s fields, in Image::state's field order.
size_t code_size_at(const Image& image) { return 21 + image.name.size(); }
size_t data_base_at(const Image& image) {
  return code_size_at(image) + 4 + image.code.size();
}

void expect_fault(const std::string& bytes, FormatFault fault,
                  const std::string& reason) {
  std::istringstream in(bytes);
  try {
    (void)load_file(in);
    ADD_FAILURE() << "loaded an image that should fail: " << reason;
  } catch (const FormatError& e) {
    EXPECT_EQ(e.fault(), fault) << e.what();
    EXPECT_EQ(std::string(e.what()).rfind("vxe: ", 0), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

// code_end()/data_end() are 32-bit: a section that ran past 0xffffffff
// would wrap them and fail only later, as an out_of_range inside the
// rewriter. The loader refuses it, like the assembler does.
TEST(SerializeTest, RejectsSectionsPastTheAddressSpace) {
  const Image image = sample_image();
  ASSERT_EQ(image.data.size(), 8u);
  std::string bytes = saved(image);
  put_u32(bytes, data_base_at(image), 0xfffffffc);
  expect_fault(bytes, FormatFault::kImplausible,
               "data section runs past the 32-bit address space");

  bytes = saved(image);
  put_u32(bytes, code_size_at(image) - 4, 0xffffffff - 2);
  expect_fault(bytes, FormatFault::kImplausible,
               "code section runs past the 32-bit address space");

  // Ending exactly at 0xffffffff is fine.
  Image top = image;
  top.data_base = 0xffffffff - 8;
  std::istringstream in(saved(top));
  EXPECT_EQ(load_file(in).data_end(), 0xffffffffu);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VCFR_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define VCFR_TEST_SANITIZED 1
#endif
#endif

#ifndef VCFR_TEST_SANITIZED
size_t derand_count_at(const Image& image, size_t size) {
  const auto& t = image.tables;
  return size - (12 + 8 * t.derand.size() + 8 * t.rand.size() +
                 4 * t.unrandomized.size() + 8);
}

/// Loads `bytes` with the address space capped 128 MiB above the process's
/// current size, so any allocation near a corrupt length field's claim
/// fails. Exits 0 only when the load is rejected as kTruncated.
[[noreturn]] void load_with_capped_address_space(const std::string& bytes) {
  unsigned long pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t cap = static_cast<rlim_t>(pages) *
                         static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                     (rlim_t{128} << 20);
  const rlimit limit{cap, cap};
  if (pages == 0 || setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(3);
  std::istringstream in(bytes);
  try {
    (void)load_file(in);
    std::_Exit(1);
  } catch (const FormatError& e) {
    std::_Exit(e.fault() == FormatFault::kTruncated ? 0 : 2);
  } catch (...) {
    std::_Exit(4);
  }
}
#endif

// A length field is a claim, not a fact: a corrupt one must run into the
// end of the input before anything near its size is allocated.
TEST(SerializeTest, CorruptLengthsDoNotAllocateAheadOfTheInput) {
#ifdef VCFR_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes reserve address space up front";
#else
  // Code length 2^28, then the stream ends 4 bytes into the section.
  const Image sjeng = workloads::make("sjeng", 0);
  std::string code = saved(sjeng);
  put_u32(code, code_size_at(sjeng), 1u << 28);
  code.resize(code_size_at(sjeng) + 8);
  EXPECT_EXIT(load_with_capped_address_space(code),
              testing::ExitedWithCode(0), "");

  // A derand count of 2^24 entries, then the stream ends.
  rewriter::RandomizeOptions opts;
  opts.seed = 7;
  const Image vcfr = rewriter::randomize(sjeng, opts).vcfr;
  std::string derand = saved(vcfr);
  const size_t at = derand_count_at(vcfr, derand.size());
  put_u32(derand, at, 1u << 24);
  derand.resize(at + 4);
  EXPECT_EXIT(load_with_capped_address_space(derand),
              testing::ExitedWithCode(0), "");
#endif
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
