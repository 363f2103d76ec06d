// Memory-model and loader tests: paging semantics, boundary straddles,
// checksum stability, and the translation-table region's geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "binary/loader.hpp"
#include "binary/state_io.hpp"
#include "emu/emulator.hpp"
#include "emu/rerandomize.hpp"
#include "fault/injector.hpp"
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
    const Image naive = rewriter::naive_ilr(rr.vcfr);
    for (const Image* image : {&original, &naive, &rr.vcfr}) {
      Memory block, bytewise;
      load(*image, block);
      if (image->layout == Layout::kNaiveIlr) {
        for (const PlacedInstr& p : image->placed_instrs()) {
          write_bytes(bytewise, p.at, &image->code[p.addr - image->code_base],
                      p.length);
        }
      } else {
        write_bytes(bytewise, image->code_base, image->code.data(),
                    image->code.size());
      }
      write_bytes(bytewise, image->data_base, image->data.data(),
                  image->data.size());
      const std::string what =
          name + " layout " + std::to_string(static_cast<int>(image->layout));
      EXPECT_EQ(block.pages_allocated(), bytewise.pages_allocated()) << what;
      EXPECT_EQ(block.checksum(), bytewise.checksum()) << what;
    }
  }
}

/// The numbers of `mem`'s allocated pages, read back from its checkpoint
/// stream (which lists them first, sorted).
std::vector<uint32_t> page_numbers(Memory& mem) {
  std::stringstream stream;
  StateIo out(static_cast<std::ostream&>(stream));
  mem.state(out);
  StateIo in(static_cast<std::istream&>(stream));
  std::vector<uint32_t> pages;
  std::vector<uint8_t> skip(Memory::kPageSize);
  in.vec(pages, 1u << 20, [&](uint32_t& page_no) {
    in.u32(page_no);
    in.bytes(skip.data(), skip.size());
  });
  return pages;
}

/// The pages of `mem` inside the table region of `tables`.
size_t table_pages(Memory& mem, const TranslationTables& tables) {
  const uint32_t first = tables.table_base >> Memory::kPageBits;
  const uint32_t last =
      (tables.table_base + tables.table_bytes - 1) >> Memory::kPageBits;
  const std::vector<uint32_t> pages = page_numbers(mem);
  return static_cast<size_t>(
      std::count_if(pages.begin(), pages.end(), [&](uint32_t no) {
        return no >= first && no <= last;
      }));
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
  const Image naive = rewriter::naive_ilr(rr.vcfr);
  Memory m1;
  load(naive, m1);
  // The original code location is vacated; instructions live at their
  // randomized addresses.
  const std::vector<PlacedInstr> placed = naive.placed_instrs();
  ASSERT_EQ(placed.size(), 2u);
  for (const PlacedInstr& p : placed) {
    EXPECT_NE(p.at, p.addr);
    EXPECT_EQ(m1.read8(p.at), naive.code[p.addr - naive.code_base]);
    EXPECT_EQ(m1.read8(p.addr), 0u);
  }

  // The translation tables live only in the image: a VCFR load allocates
  // exactly the original's pages, none in the table region, and neither
  // firing nor a translation-entry injection allocates one there.
  const rewriter::Program program = rewriter::prepare(original);
  Image img = rewriter::place(program, {});
  Memory m2;
  load(img, m2);
  EXPECT_EQ(m2.read8(img.code_base), static_cast<uint8_t>(isa::Op::kMovRI));
  ASSERT_GT(img.tables.table_bytes, 0u);
  EXPECT_EQ(table_pages(m2, img.tables), 0u);
  EXPECT_EQ(m2.pages_allocated(), m0.pages_allocated());
  emu::Emulator emu(img, m2);
  emu::RerandOptions opt;
  opt.placement.seed = 2;
  ASSERT_TRUE(emu::rerandomize_full(program, img, m2, emu, opt));
  EXPECT_EQ(table_pages(m2, img.tables), 0u) << "full firing";
  opt.placement.seed = 3;
  ASSERT_TRUE(emu::rerandomize_incremental(program, img, m2, emu, opt));
  EXPECT_EQ(table_pages(m2, img.tables), 0u) << "incremental firing";
  fault::FaultInjector inj({.site = fault::FaultSite::kTranslationEntry});
  ASSERT_TRUE(inj.apply(img, m2, emu));
  EXPECT_EQ(table_pages(m2, img.tables), 0u) << "injection";
  EXPECT_EQ(m2.pages_allocated(), m0.pages_allocated());
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
  t.derand.reset(0x40000000, 0x1000, 64);
  t.derand.emplace(0x40000000, 0x1000);
  t.rand.reset(0x1000, 0x100);
  t.rand.set(0x1000, 0x40000000);
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
