// Memory-model and loader tests: paging semantics, boundary straddles,
// checksum stability, and the serialized translation-table layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "binary/loader.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::binary {
namespace {

TEST(MemoryTest, UnwrittenBytesReadZero) {
  Memory mem;
  EXPECT_EQ(mem.read8(0x12345678), 0);
  EXPECT_EQ(mem.read32(0xdeadbeef), 0u);
  EXPECT_EQ(mem.pages_allocated(), 0u);
}

TEST(MemoryTest, ByteAndWordRoundTrip) {
  Memory mem;
  mem.write32(0x1000, 0xa1b2c3d4);
  EXPECT_EQ(mem.read32(0x1000), 0xa1b2c3d4u);
  EXPECT_EQ(mem.read8(0x1000), 0xd4);  // little-endian
  EXPECT_EQ(mem.read8(0x1003), 0xa1);
  mem.write8(0x1001, 0xff);
  EXPECT_EQ(mem.read32(0x1000), 0xa1b2ffd4u);
}

TEST(MemoryTest, WordStraddlingPageBoundary) {
  Memory mem;
  const uint32_t addr = Memory::kPageSize - 2;
  mem.write32(addr, 0x11223344);
  EXPECT_EQ(mem.read32(addr), 0x11223344u);
  EXPECT_EQ(mem.pages_allocated(), 2u);
  EXPECT_EQ(mem.read8(Memory::kPageSize), 0x22);
}

TEST(MemoryTest, ReadBlockCrossesPages) {
  Memory mem;
  for (uint32_t i = 0; i < 8; ++i) {
    mem.write8(Memory::kPageSize - 4 + i, static_cast<uint8_t>(i + 1));
  }
  uint8_t buf[8];
  mem.read_block(Memory::kPageSize - 4, buf, 8);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(buf[i], i + 1);
}

TEST(MemoryTest, ChecksumIsOrderIndependentAndContentSensitive) {
  Memory a, b;
  a.write8(0x1000, 7);
  a.write8(0x905000, 9);
  b.write8(0x905000, 9);  // same bytes, opposite touch order
  b.write8(0x1000, 7);
  EXPECT_EQ(a.checksum(), b.checksum());
  b.write8(0x1000, 8);
  EXPECT_NE(a.checksum(), b.checksum());
}

// The byte-at-a-time writes write_block replaces: same bytes, same pages.
void write_bytes(Memory& mem, uint32_t addr, const uint8_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    mem.write8(addr + static_cast<uint32_t>(i), src[i]);
  }
}

TEST(MemoryTest, WriteBlockAcrossPagesMatchesByteWrites) {
  std::vector<uint8_t> bytes(Memory::kPageSize + 100);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  const uint32_t addr = 3 * Memory::kPageSize - 50;  // spans three pages
  Memory block, bytewise;
  block.write_block(addr, bytes.data(), static_cast<uint32_t>(bytes.size()));
  write_bytes(bytewise, addr, bytes.data(), bytes.size());
  EXPECT_EQ(block.pages_allocated(), 3u);
  EXPECT_EQ(block.pages_allocated(), bytewise.pages_allocated());
  EXPECT_EQ(block.checksum(), bytewise.checksum());
  std::vector<uint8_t> back(bytes.size());
  block.read_block(addr, back.data(), static_cast<uint32_t>(back.size()));
  EXPECT_EQ(back, bytes);
}

TEST(MemoryTest, WriteBlockOfZerosAllocatesItsPages) {
  const std::vector<uint8_t> zeros(2 * Memory::kPageSize, 0);
  Memory block, bytewise;
  block.write_block(0x7000, zeros.data(), static_cast<uint32_t>(zeros.size()));
  write_bytes(bytewise, 0x7000, zeros.data(), zeros.size());
  EXPECT_EQ(block.pages_allocated(), 2u);
  EXPECT_EQ(block.checksum(), bytewise.checksum());
}

TEST(MemoryTest, WriteBlockBumpsCodeVersionOncePerWatchedOverlap) {
  Memory mem;
  mem.watch_code(0x2000, 0x100);
  const std::vector<uint8_t> bytes(64, 0xab);
  const uint64_t v0 = mem.code_version();
  // Starts before the watched range and runs into it.
  mem.write_block(0x2000 - 32, bytes.data(), 64);
  EXPECT_EQ(mem.code_version(), v0 + 1);
  // Entirely inside.
  mem.write_block(0x2010, bytes.data(), 64);
  EXPECT_EQ(mem.code_version(), v0 + 2);
  // Outside every watched range, on both sides.
  mem.write_block(0x2000 - 64, bytes.data(), 64);
  mem.write_block(0x2100, bytes.data(), 64);
  EXPECT_EQ(mem.code_version(), v0 + 2);
}

TEST(MemoryTest, WriteBlockOfNothingDoesNothing) {
  Memory mem;
  mem.watch_code(0x2000, 0x100);
  const uint8_t byte = 1;
  mem.write_block(0x2000, &byte, 0);
  EXPECT_EQ(mem.code_version(), 0u);
  EXPECT_EQ(mem.pages_allocated(), 0u);
}

// load() writes each section as one block; it must leave exactly the
// memory the per-byte loader did, in every layout of every suite workload.
TEST(LoaderTest, BlockLoadMatchesByteLoadAcrossSuite) {
  for (const std::string& name : workloads::spec_names()) {
    const Image original = workloads::make(name, 0);
    const rewriter::RandomizeResult rr = rewriter::randomize(original, {});
    for (const Image* image : {&original, &rr.naive, &rr.vcfr}) {
      Memory block, bytewise;
      load(*image, block);
      write_bytes(bytewise, image->code_base, image->code.data(),
                  image->code.size());
      write_bytes(bytewise, image->data_base, image->data.data(),
                  image->data.size());
      if (image->layout == Layout::kNaiveIlr) {
        for (const auto& [addr, bytes] : image->sparse_code) {
          write_bytes(bytewise, addr, bytes.data(), bytes.size());
        }
      }
      if (image->layout == Layout::kVcfr) store_tables(image->tables, bytewise);
      const std::string what =
          name + " layout " + std::to_string(static_cast<int>(image->layout));
      EXPECT_EQ(block.pages_allocated(), bytewise.pages_allocated()) << what;
      EXPECT_EQ(block.checksum(), bytewise.checksum()) << what;
    }
  }
}

// store_tables as it was before it resolved each table page once: one
// write64 per entry, kept verbatim. The page-run store must leave the same
// bytes, allocate the same pages and bump the code version alike.
void reference_store_tables(const TranslationTables& tables, Memory& mem) {
  if (tables.table_bytes == 0) return;
  // Serialize (key, translation) pairs so the tables occupy real cacheable
  // memory. Bucket collisions overwrite; functional translation always
  // uses the exact in-image maps, the serialized form exists to give DRC
  // misses a concrete line to fetch. The flat tables iterate in slot
  // order, so the bytes are deterministic across platforms.
  auto store = [&](uint32_t key, uint32_t value) {
    mem.write64(table_entry_addr(tables, key), uint64_t{value} << 32 | key);
  };
  for (const auto& [r, o] : tables.derand) store(r, o);
  for (const auto& [o, r] : tables.rand) store(o, r);
  mem.bump_code_version();
}

void expect_same_store(const Memory& store, const Memory& reference,
                       const std::string& what) {
  EXPECT_EQ(store.checksum(), reference.checksum()) << what;
  EXPECT_EQ(store.pages_allocated(), reference.pages_allocated()) << what;
  EXPECT_EQ(store.code_version(), reference.code_version()) << what;
}

// Every suite program at scales 0 and 1, stored the way a process stores
// it: code loaded and watched, then one placement stored over another's
// bytes. gcc at scale 0 has a 16-page table, twice the write memos.
TEST(LoaderTest, TableStoreMatchesPerEntryStoreAcrossSuite) {
  uint32_t gcc_pages = 0;
  for (const int scale : {0, 1}) {
    for (const std::string& name : workloads::spec_names()) {
      const rewriter::Program program =
          rewriter::prepare(workloads::make(name, scale));
      const Image& orig = program.image;
      Memory paged, per_entry;
      for (Memory* mem : {&paged, &per_entry}) {
        mem->write_block(orig.code_base, orig.code.data(),
                         static_cast<uint32_t>(orig.code.size()));
        mem->watch_code(orig.code_base,
                        static_cast<uint32_t>(orig.code.size()));
      }
      for (const uint64_t seed : {1ull, 2ull}) {
        const Image img = rewriter::place(program, {.seed = seed});
        store_tables(img.tables, paged);
        reference_store_tables(img.tables, per_entry);
        const std::string what = name + "@" + std::to_string(scale) +
                                 " seed " + std::to_string(seed);
        expect_same_store(paged, per_entry, what);
        EXPECT_EQ(rewriter::check_table_region(img, paged), "") << what;
        if (name == "gcc" && scale == 0) {
          gcc_pages = img.tables.table_bytes / Memory::kPageSize;
        }
      }
    }
  }
  EXPECT_EQ(gcc_pages, 16u);
}

// A sparse table: only the pages an entry lands on are allocated.
TEST(LoaderTest, TableStoreAllocatesOnlyPagesEntriesLandOn) {
  TranslationTables tables;
  tables.table_base = 0x60000000;
  tables.table_bytes = 64 * Memory::kPageSize;
  for (const uint32_t r : {0x40000000u, 0x40001230u, 0x4000ff00u}) {
    tables.derand.emplace(r, r & 0xffff);
    tables.rand.emplace(r & 0xffff, r);
  }
  Memory paged, per_entry;
  store_tables(tables, paged);
  reference_store_tables(tables, per_entry);
  expect_same_store(paged, per_entry, "sparse");
  EXPECT_LE(paged.pages_allocated(), 6u);
}

// Off the fast path: a table base that is not 8-aligned (entries straddle
// pages) and a table region overlapping watched code (every entry bumps
// the code version) both store exactly as the per-entry writes do.
TEST(LoaderTest, TableStoreOffTheFastPathMatchesPerEntryStore) {
  const Image original = workloads::make("mcf", 0);
  const rewriter::RandomizeResult rr = rewriter::randomize(original, {});
  for (const bool watched : {false, true}) {
    TranslationTables tables = rr.vcfr.tables;
    tables.table_base = watched ? 0x60000000u : 0x60000ffcu;
    Memory paged, per_entry;
    if (watched) {
      paged.watch_code(0x60002000u, 0x100);
      per_entry.watch_code(0x60002000u, 0x100);
    }
    store_tables(tables, paged);
    reference_store_tables(tables, per_entry);
    const std::string what = watched ? "watched" : "unaligned";
    expect_same_store(paged, per_entry, what);
    if (watched) {
      EXPECT_GT(paged.code_version(), 1u) << what;
    }
  }
}

// The table-region check names the first bucket whose bytes the in-image
// maps would rewrite: a flipped byte in a live bucket is a violation, one
// in a bucket no key hashes to is not (it is not the maps' to define).
TEST(LoaderTest, TableRegionCheckNamesAFlippedLiveBucket) {
  const rewriter::RandomizeResult rr =
      rewriter::randomize(workloads::make("gcc", 0), {});
  const Image& img = rr.vcfr;
  const TranslationTables& tables = img.tables;
  Memory mem;
  load(img, mem);
  ASSERT_EQ(rewriter::check_table_region(img, mem), "");

  const uint32_t live = table_entry_addr(tables, tables.rand.begin()->first);
  const uint32_t bucket = (live - tables.table_base) / 8;
  mem.write8(live + 5, mem.read8(live + 5) ^ 0x10);
  const std::string violation = rewriter::check_table_region(img, mem);
  EXPECT_EQ(violation.rfind("table bucket " + std::to_string(bucket) + " at ",
                            0),
            0u)
      << violation;
  mem.write8(live + 5, mem.read8(live + 5) ^ 0x10);
  ASSERT_EQ(rewriter::check_table_region(img, mem), "");

  std::vector<bool> hashed(tables.table_bytes / 8);
  for (const auto& [r, o] : tables.derand) {
    hashed[(table_entry_addr(tables, r) - tables.table_base) / 8] = true;
  }
  for (const auto& [o, r] : tables.rand) {
    hashed[(table_entry_addr(tables, o) - tables.table_base) / 8] = true;
  }
  const auto idle = std::find(hashed.begin(), hashed.end(), false);
  ASSERT_NE(idle, hashed.end());
  const uint32_t idle_addr =
      tables.table_base + static_cast<uint32_t>(idle - hashed.begin()) * 8;
  mem.write8(idle_addr, 0x5a);
  EXPECT_EQ(rewriter::check_table_region(img, mem), "");
}

TEST(LoaderTest, LoadsAllThreeLayouts) {
  const Image original = isa::assemble(R"(
    .entry main
    .data 0x10000000
    v:
      .word 0xcafe
    .text
    main:
      mov r1, 1
      halt
  )");
  Memory m0;
  load(original, m0);
  EXPECT_EQ(m0.read8(original.code_base),
            static_cast<uint8_t>(isa::Op::kMovRI));
  EXPECT_EQ(m0.read32(0x10000000), 0xcafeu);

  const auto rr = rewriter::randomize(original, {});
  Memory m1;
  load(rr.naive, m1);
  // The original code location is vacated; instructions live at their
  // randomized addresses.
  bool found = false;
  for (const auto& [addr, bytes] : rr.naive.sparse_code) {
    if (!bytes.empty() && m1.read8(addr) == bytes[0]) found = true;
  }
  EXPECT_TRUE(found);

  Memory m2;
  load(rr.vcfr, m2);
  EXPECT_EQ(m2.read8(rr.vcfr.code_base),
            static_cast<uint8_t>(isa::Op::kMovRI));
  // Serialized tables occupy their pages.
  ASSERT_GT(rr.vcfr.tables.table_bytes, 0u);
  bool any_table_byte = false;
  for (uint32_t off = 0; off < rr.vcfr.tables.table_bytes && !any_table_byte;
       off += 4) {
    any_table_byte = m2.read32(rr.vcfr.tables.table_base + off) != 0;
  }
  EXPECT_TRUE(any_table_byte);
}

TEST(LoaderTest, TableEntryAddrStaysInsideTable) {
  TranslationTables tables;
  tables.table_base = 0x60000000;
  tables.table_bytes = 1 << 12;  // 512 slots
  for (uint32_t k = 0; k < 10000; ++k) {
    const uint32_t e = table_entry_addr(tables, k * 2654435761u);
    EXPECT_GE(e, tables.table_base);
    EXPECT_LT(e + 8, tables.table_base + tables.table_bytes + 8);
    EXPECT_EQ((e - tables.table_base) % 8, 0u);
  }
}

TEST(ImageTest, DataAccessorsBoundsChecked) {
  Image img;
  img.data_base = 0x1000;
  img.data.resize(8, 0);
  img.write_data32(0x1004, 42);
  EXPECT_EQ(img.read_data32(0x1004), 42u);
  EXPECT_THROW((void)img.read_data32(0x0ffc), std::out_of_range);
  EXPECT_THROW((void)img.read_data32(0x1006), std::out_of_range);
  EXPECT_THROW(img.write_data32(0x1008, 1), std::out_of_range);
}

TEST(ImageTest, TranslationTableHelpers) {
  TranslationTables t;
  t.derand[0x40000000] = 0x1000;
  t.rand[0x1000] = 0x40000000;
  t.unrandomized.insert(0x2000);
  EXPECT_EQ(t.to_original(0x40000000), 0x1000u);
  EXPECT_EQ(t.to_original(0x2000), 0x2000u);  // identity fallback
  EXPECT_EQ(t.to_randomized(0x1000), 0x40000000u);
  EXPECT_EQ(t.to_randomized(0x3000), 0x3000u);
  EXPECT_TRUE(t.is_randomized_addr(0x40000000));
  EXPECT_FALSE(t.is_randomized_addr(0x1000));
}

}  // namespace
}  // namespace vcfr::binary
