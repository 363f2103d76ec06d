// Live re-randomization tests (§V-C): re-place a running VCFR process's
// whole image mid-run, in place, preserving semantics.
#include <gtest/gtest.h>

#include <vector>

#include "binary/loader.hpp"
#include "emu/rerandomize.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"

namespace vcfr::emu {
namespace {

// Deep recursion: at mid-run the stack carries several randomized return
// addresses, all of which must survive the epoch change.
constexpr const char* kProgram = R"(
  .name victim
  .entry main
  .func main
  main:
    mov r1, 8
    call fact
    out r2
    mov r1, 6
    call fact
    out r2
    halt
  .func fact
  fact:
    cmp r1, 1
    jgt rec
    mov r2, 1
    ret
  rec:
    push r1
    sub r1, 1
    call fact
    pop r1
    mul r2, r1
    ret
)";

/// One VCFR process of the victim, re-randomized the way os::Process does
/// it: the image, memory and emulator are patched in place.
struct Session {
  explicit Session(uint64_t seed)
      : program(rewriter::prepare(isa::assemble(kProgram))),
        img(rewriter::place(program, {.seed = seed})) {
    binary::load(img, mem);
    emu = std::make_unique<Emulator>(img, mem);
  }

  /// Fires a full re-randomization under `seed`; the result must be a
  /// placement the next firing can patch.
  RerandStats fire(uint64_t seed) {
    RerandOptions opt;
    opt.placement.seed = seed;
    RerandStats st;
    EXPECT_TRUE(rerandomize_full(program, img, mem, *emu, opt, &st));
    EXPECT_EQ(rewriter::check_placement(program, img, opt.placement), "");
    EXPECT_EQ(rewriter::check_table_region(img, mem), "");
    return st;
  }

  rewriter::Program program;
  binary::Image img;
  binary::Memory mem;
  std::unique_ptr<Emulator> emu;
};

TEST(LiveRerandomizeTest, MidRecursionSwapPreservesSemantics) {
  // Reference run.
  const auto img = isa::assemble(kProgram);
  const auto golden = run_image(img);
  ASSERT_TRUE(golden.halted);
  ASSERT_EQ(golden.output.size(), 2u);
  EXPECT_EQ(golden.output[0], 40320u);  // 8!
  EXPECT_EQ(golden.output[1], 720u);    // 6!

  for (uint64_t swap_at : {5ull, 17ull, 33ull, 50ull}) {
    Session s(/*seed=*/11);
    for (uint64_t i = 0; i < swap_at; ++i) ASSERT_TRUE(s.emu->step());
    const size_t marked_before = s.emu->ret_bitmap().size();

    const RerandStats stats = s.fire(0xfeed0000 + swap_at);
    EXPECT_EQ(stats.stack_slots_translated, marked_before);
    // The same emulator keeps running: its clock counts from the start.
    EXPECT_EQ(s.emu->stats().instructions, swap_at);

    s.emu->set_enforce_tags(true);
    RunLimits limits;
    limits.max_instructions = 100000;
    const auto r = s.emu->run(limits);
    EXPECT_TRUE(r.halted) << "swap at " << swap_at << ": " << r.error;
    EXPECT_EQ(r.output, golden.output) << "swap at " << swap_at;
    EXPECT_EQ(r.stats.tag_violations, 0u);
  }
}

TEST(LiveRerandomizeTest, OldAddressesAreDeadAfterSwap) {
  Session s(7);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(s.emu->step());

  // The attacker leaks one old randomized address before the swap.
  const uint32_t leaked = s.emu->state().pc;
  ASSERT_TRUE(s.img.tables.is_randomized_addr(leaked));

  (void)s.fire(999);

  // In the new epoch the leaked address maps to nothing.
  EXPECT_FALSE(s.img.tables.is_randomized_addr(leaked))
      << "a leaked epoch-0 address must be meaningless in epoch 1 "
         "(astronomically unlikely collision aside)";
}

TEST(LiveRerandomizeTest, RepeatedSwapsKeepWorking) {
  const auto golden = run_image(isa::assemble(kProgram));
  Session s(1);
  // Re-randomize every 9 instructions, six times, then run to completion.
  for (int epoch = 0; epoch < 6; ++epoch) {
    for (int i = 0; i < 9; ++i) ASSERT_TRUE(s.emu->step());
    (void)s.fire(1000 + epoch);
  }
  RunLimits limits;
  limits.max_instructions = 100000;
  const auto r = s.emu->run(limits);
  EXPECT_TRUE(r.halted) << r.error;
  EXPECT_EQ(r.output, golden.output);
}

// A pinned address the fresh placement gives to a different instruction
// would make its alias ambiguous: the firing defers with nothing written.
TEST(LiveRerandomizeTest, PinnedCollisionDefersUntouched) {
  Session s(3);
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(s.emu->step());
  RerandOptions opt;
  opt.placement.seed = 4;
  const binary::Image next = rewriter::place(s.program, opt.placement);
  for (const auto& [orig, ra] : next.tables.rand) {
    if (s.img.tables.to_original(ra) != orig) {
      opt.pinned = {ra};
      break;
    }
  }
  ASSERT_EQ(opt.pinned.size(), 1u);
  const binary::Image before = s.img;
  const uint64_t mem_before = s.mem.checksum();
  const uint32_t pc_before = s.emu->state().pc;
  EXPECT_FALSE(rerandomize_full(s.program, s.img, s.mem, *s.emu, opt));
  EXPECT_EQ(s.img.code, before.code);
  EXPECT_TRUE(s.img.tables.rand == before.tables.rand);
  EXPECT_TRUE(s.img.tables.derand == before.tables.derand);
  EXPECT_EQ(s.mem.checksum(), mem_before);
  EXPECT_EQ(s.emu->state().pc, pc_before);
}

// The table store is eager: every firing rewrites the bucket of every key
// it holds, so a bucket that only a retired key hashes to keeps that key's
// entry. Here a derand key added by firing 1 and retired by firing 2 still
// owns its bucket after firing 2. One store of the final maps deferred to
// after firing 2 would leave the bytes from before firing 1 there instead,
// so a deferred store is not byte-exact.
TEST(LiveRerandomizeTest, RetiredKeyBucketKeepsItsLastEntry) {
  auto region = [](const Session& s) {
    std::vector<uint8_t> bytes(s.img.tables.table_bytes);
    s.mem.read_block(s.img.tables.table_base, bytes.data(),
                     static_cast<uint32_t>(bytes.size()));
    return bytes;
  };
  auto bucket_of = [](const binary::TranslationTables& t, uint32_t key) {
    return (binary::table_entry_addr(t, key) - t.table_base) / 8;
  };
  auto entry = [](const std::vector<uint8_t>& bytes, uint32_t bucket) {
    return std::vector<uint8_t>(bytes.begin() + bucket * 8,
                                bytes.begin() + bucket * 8 + 8);
  };
  int found = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Session s(seed);
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(s.emu->step());
    const std::vector<uint8_t> before = region(s);
    const binary::TranslationTables t0 = s.img.tables;
    (void)s.fire(seed * 100 + 1);
    const std::vector<uint8_t> after_one = region(s);
    const binary::TranslationTables t1 = s.img.tables;
    (void)s.fire(seed * 100 + 2);
    const std::vector<uint8_t> after_two = region(s);
    const binary::TranslationTables& t2 = s.img.tables;

    std::vector<bool> hashed(t2.table_bytes / 8);
    for (const auto& [r, o] : t2.derand) hashed[bucket_of(t2, r)] = true;
    for (const auto& [o, r] : t2.rand) hashed[bucket_of(t2, o)] = true;
    for (const auto& [r, o] : t1.derand) {
      const uint32_t b = bucket_of(t1, r);
      std::vector<uint8_t> written(8);
      for (int i = 0; i < 4; ++i) {
        written[i] = static_cast<uint8_t>(r >> (8 * i));
        written[4 + i] = static_cast<uint8_t>(o >> (8 * i));
      }
      // Added by firing 1, retired by firing 2, the last writer of its
      // bucket in firing 1, and no current key hashes there.
      if (t0.derand.contains(r) || t2.derand.contains(r) || hashed[b] ||
          entry(after_one, b) != written) {
        continue;
      }
      ++found;
      EXPECT_EQ(entry(after_two, b), written) << "seed " << seed;
      EXPECT_NE(entry(before, b), written) << "seed " << seed;

      binary::Memory deferred;
      deferred.write_block(t2.table_base, before.data(),
                           static_cast<uint32_t>(before.size()));
      binary::store_tables(t2, deferred);
      std::vector<uint8_t> deferred_bytes(before.size());
      deferred.read_block(t2.table_base, deferred_bytes.data(),
                          static_cast<uint32_t>(deferred_bytes.size()));
      EXPECT_EQ(entry(deferred_bytes, b), entry(before, b)) << "seed " << seed;
    }
  }
  EXPECT_GT(found, 0) << "no retired key kept its bucket";
}

TEST(LiveRerandomizeTest, RejectsNonVcfrImages) {
  Session s(1);
  binary::Image bogus = s.img;
  bogus.layout = binary::Layout::kOriginal;
  EXPECT_THROW(
      (void)rerandomize_full(s.program, bogus, s.mem, *s.emu, {}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)rerandomize_incremental(s.program, bogus, s.mem, *s.emu, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace vcfr::emu
