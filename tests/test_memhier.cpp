// Memory-hierarchy composition tests: latency stacking, prefetcher flow,
// L2 pressure attribution, the fleet's shared-L2 round commit, and the DRC
// table-walk path.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "binary/state_io.hpp"
#include "cache/memhier.hpp"
#include "cache/shared_l2.hpp"
#include "core/drc.hpp"
#include "core/ret_bitmap.hpp"
#include "core/translation.hpp"

namespace vcfr::cache {
namespace {

MemHierConfig quiet_config() {
  MemHierConfig c;
  c.dram.t_refi = 0;
  c.itlb.miss_penalty = 0;
  c.dtlb.miss_penalty = 0;
  return c;
}

TEST(MemHierTest, IfetchLatencyStacksThroughLevels) {
  MemHierConfig c = quiet_config();
  MemHier m(c);
  const auto miss = m.ifetch(0x1000, 0);
  EXPECT_FALSE(miss.l1_hit);
  EXPECT_FALSE(miss.l2_hit);
  EXPECT_GT(miss.latency, c.il1.hit_latency + c.l2.hit_latency);
  const auto hit = m.ifetch(0x1000, 100);
  EXPECT_TRUE(hit.l1_hit);
  EXPECT_EQ(hit.latency, c.il1.hit_latency);
}

TEST(MemHierTest, NextLinePrefetchMakesSequentialFetchHit) {
  MemHier m(quiet_config());
  (void)m.ifetch(0x1000, 0);  // prefetches 0x1040
  EXPECT_GE(m.prefetch_stats().issued, 1u);
  const auto next = m.ifetch(0x1040, 10);
  EXPECT_TRUE(next.l1_hit) << "next line must have been prefetched";
  EXPECT_EQ(m.il1().stats().prefetch_hits, 1u);
}

TEST(MemHierTest, PrefetchCanBeDisabled) {
  MemHierConfig c = quiet_config();
  c.iprefetch.enabled = false;
  MemHier m(c);
  (void)m.ifetch(0x1000, 0);
  EXPECT_EQ(m.prefetch_stats().issued, 0u);
  EXPECT_FALSE(m.ifetch(0x1040, 10).l1_hit);
}

TEST(MemHierTest, L2PressureAttributesSources) {
  MemHier m(quiet_config());
  (void)m.ifetch(0x1000, 0);
  (void)m.dread(0x2000, 0);
  (void)m.table_read(0x60000000, 0);
  const auto& p = m.l2_pressure();
  EXPECT_EQ(p.reads_from_il1, 1u);
  EXPECT_EQ(p.reads_from_il1_prefetch, 1u);
  EXPECT_EQ(p.reads_from_dl1, 1u);
  EXPECT_EQ(p.reads_from_drc, 1u);
  EXPECT_EQ(p.total_reads(), 4u);
}

TEST(MemHierTest, SecondTableReadHitsInL2) {
  MemHierConfig c = quiet_config();
  MemHier m(c);
  const auto first = m.table_read(0x60000000, 0);
  EXPECT_FALSE(first.l2_hit);
  const auto second = m.table_read(0x60000000, 100);
  EXPECT_TRUE(second.l2_hit);
  EXPECT_EQ(second.latency, c.l2.hit_latency);
}

TEST(MemHierTest, StoresDoNotStallButFillCaches) {
  MemHierConfig c = quiet_config();
  MemHier m(c);
  const auto w = m.dwrite(0x3000, 0);
  EXPECT_EQ(w.latency, 0u);
  EXPECT_FALSE(w.l1_hit);
  const auto r = m.dread(0x3000, 10);
  EXPECT_TRUE(r.l1_hit);
}

TEST(MemHierTest, DirtyL1EvictionsReachL2) {
  MemHierConfig c = quiet_config();
  c.dl1 = {.name = "DL1", .size_bytes = 128, .assoc = 1, .line_bytes = 64,
           .hit_latency = 2};
  MemHier m(c);
  (void)m.dwrite(0x0000, 0);       // dirty line, set 0
  (void)m.dread(0x0080, 10);       // evicts dirty 0x0000 into L2
  EXPECT_EQ(m.dl1().stats().writebacks, 1u);
  // The written line now lives in L2: reading it back misses DL1, hits L2.
  const auto r = m.dread(0x0000, 100);
  EXPECT_FALSE(r.l1_hit);
  EXPECT_TRUE(r.l2_hit);
}

// ------------------------------------------------ shared-L2 round commit --

using Blame = std::vector<std::map<uint32_t, uint64_t>>;

/// Two sets of two ways. Lines of one asid whose line indices share a
/// parity land in the same set whatever the asid hash is. The execute-phase
/// miss estimate is high enough that no test under-charges by accident.
SharedL2Config tiny_shared_l2() {
  SharedL2Config c;
  c.l2 = {.name = "SL2", .size_bytes = 2 * 2 * 64, .assoc = 2,
          .line_bytes = 64, .hit_latency = 10};
  c.dram.t_refi = 0;
  c.est_miss_latency = 1'000;
  c.service_cycles = 4;
  return c;
}

uint64_t sum(const std::map<uint32_t, uint64_t>& blame) {
  uint64_t total = 0;
  for (const auto& [asid, cycles] : blame) total += cycles;
  return total;
}

// Requests replay in (cycle, core, log position) order through one port
// that is busy service_cycles per request; each request queued behind the
// port is blamed on the asid of the request holding it.
TEST(SharedL2CommitTest, MergedOrderQueuesAndBlamesTheBlocker) {
  SharedL2 l2(tiny_shared_l2(), 2);
  (void)l2.port(1).read(0x0000, 2, 50, L2Source::kIl1);   // D
  (void)l2.port(1).read(0x1000, 2, 100, L2Source::kIl1);  // A
  (void)l2.port(0).read(0x2000, 1, 100, L2Source::kDl1);  // B
  (void)l2.port(0).read(0x3000, 3, 100, L2Source::kDrc);  // C, after B
  Blame blame;
  const std::vector<uint64_t> penalty = l2.commit_round(&blame);
  // D at 50 is alone; then B at 100, C at 104 behind B (asid 1), and A at
  // 108 behind C (asid 3).
  EXPECT_EQ(penalty, (std::vector<uint64_t>{4, 8}));
  ASSERT_EQ(blame.size(), 2u);
  EXPECT_EQ(blame[0], (std::map<uint32_t, uint64_t>{{1, 4}}));
  EXPECT_EQ(blame[1], (std::map<uint32_t, uint64_t>{{3, 8}}));
  EXPECT_EQ(l2.stats().queue_delay_cycles, 12u);
  EXPECT_EQ(l2.stats().commits, 4u);
  EXPECT_EQ(l2.stats().l2.accesses, 4u);
  EXPECT_EQ(l2.stats().pressure.reads_from_il1, 2u);
  EXPECT_EQ(l2.stats().pressure.reads_from_dl1, 1u);
  EXPECT_EQ(l2.stats().pressure.reads_from_drc, 1u);
}

// A miss whose real latency exceeds the execute-phase estimate adds the
// difference to the requester's penalty, blamed on its own asid; queueing
// is still blamed on the blocker, and every blame map sums to its penalty.
TEST(SharedL2CommitTest, UnderEstimatedMissLatencyIsCharged) {
  SharedL2Config c = tiny_shared_l2();
  c.est_miss_latency = 0;
  SharedL2 l2(c, 2);
  const AccessResult est = l2.port(0).read(0x0000, 0, 10, L2Source::kIl1);
  EXPECT_FALSE(est.l2_hit);
  EXPECT_EQ(est.latency, c.l2.hit_latency);
  (void)l2.port(1).read(0x4000, 5, 10, L2Source::kDl1);
  Blame blame;
  const std::vector<uint64_t> penalty = l2.commit_round(&blame);

  // Asid 0's lines map to themselves in DRAM, so a fresh channel read at
  // the same time gives core 0's exact miss latency.
  dram::Dram reference(c.dram);
  const uint32_t dram_latency = reference.read(0x0000, 10 + c.l2.hit_latency);
  EXPECT_EQ(penalty[0], dram_latency);
  EXPECT_EQ(blame[0], (std::map<uint32_t, uint64_t>{{0, dram_latency}}));

  // Core 1 waited one service slot behind asid 0, then missed as well.
  EXPECT_EQ(blame[1].at(0), c.service_cycles);
  EXPECT_GT(blame[1].at(5), 0u);
  for (uint32_t core = 0; core < 2; ++core) {
    EXPECT_EQ(sum(blame[core]), penalty[core]) << "core " << core;
  }
}

// A miss evicts the set's least recently used way; a dirty victim is
// written back to DRAM. Writebacks never charge a penalty or count as
// demand reads.
TEST(SharedL2CommitTest, EvictsLruWayAndWritesBackDirtyVictim) {
  SharedL2 l2(tiny_shared_l2(), 2);
  l2.port(0).writeback(0x0000, 0, 0);  // P: allocated dirty
  (void)l2.port(0).read(0x0080, 0, 10, L2Source::kDl1);  // Q, same set
  EXPECT_EQ(l2.commit_round(), (std::vector<uint64_t>{0, 0}));
  EXPECT_TRUE(l2.probe(0, 0x0000));
  EXPECT_TRUE(l2.probe(0, 0x0080));

  EXPECT_TRUE(l2.port(0).read(0x0080, 0, 20, L2Source::kDl1).l2_hit);
  (void)l2.port(0).read(0x0100, 0, 30, L2Source::kDl1);  // R, same set
  (void)l2.commit_round();
  EXPECT_FALSE(l2.probe(0, 0x0000)) << "P was least recently used";
  EXPECT_TRUE(l2.probe(0, 0x0080));
  EXPECT_TRUE(l2.probe(0, 0x0100));
  EXPECT_EQ(l2.stats().l2.hits, 1u);
  EXPECT_EQ(l2.stats().l2.misses, 3u);
  EXPECT_EQ(l2.stats().l2.writebacks, 1u);
  EXPECT_EQ(l2.dram().stats().writes, 1u);
  EXPECT_EQ(l2.reads_by_asid(), (std::map<uint32_t, uint64_t>{{0, 3}}));
}

// The commit consumes the logs: a second commit with no new requests
// replays nothing.
TEST(SharedL2CommitTest, CommitClearsTheLogs) {
  SharedL2 l2(tiny_shared_l2(), 2);
  (void)l2.port(0).read(0x0000, 0, 0, L2Source::kIl1);
  (void)l2.port(1).read(0x0000, 0, 0, L2Source::kIl1);
  EXPECT_EQ(l2.commit_round(), (std::vector<uint64_t>{0, 4}));
  Blame blame;
  EXPECT_EQ(l2.commit_round(&blame), (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(blame, Blame(2));
  EXPECT_EQ(l2.stats().commits, 2u);
  EXPECT_EQ(l2.stats().l2.accesses, 2u);
}

}  // namespace
}  // namespace vcfr::cache

namespace vcfr::core {
namespace {

TEST(DrcTest, DirectMappedLookupInsertAndTags) {
  Drc drc({.entries = 64, .assoc = 1, .hit_latency = 1});
  EXPECT_FALSE(drc.lookup(0x40000010, true).has_value());
  drc.insert(0x40000010, true, {.translation = 0x1004, .randomized_tag = true});
  const auto hit = drc.lookup(0x40000010, true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->translation, 0x1004u);
  EXPECT_TRUE(hit->randomized_tag);
  EXPECT_EQ(drc.stats().lookups, 2u);
  EXPECT_EQ(drc.stats().hits, 1u);
  EXPECT_EQ(drc.stats().misses, 1u);
}

TEST(DrcTest, TypeBitSeparatesRandAndDerandEntries) {
  Drc drc({.entries = 64, .assoc = 2, .hit_latency = 1});
  drc.insert(0x1000, false, {.translation = 0x40000000, .randomized_tag = true});
  EXPECT_FALSE(drc.lookup(0x1000, true).has_value())
      << "a rand entry must not satisfy a derand lookup";
  EXPECT_TRUE(drc.lookup(0x1000, false).has_value());
}

TEST(DrcTest, ConflictEvictionInDirectMappedMode) {
  Drc drc({.entries = 4, .assoc = 1, .hit_latency = 1});
  // Insert two keys that collide (same set after hashing). Brute-force a
  // colliding pair.
  uint32_t a = 0x1000, b = 0;
  for (uint32_t cand = 0x1001; cand < 0x20000; ++cand) {
    Drc probe({.entries = 4, .assoc = 1, .hit_latency = 1});
    probe.insert(a, true, {});
    probe.insert(cand, true, {});
    if (!probe.contains(a, true)) {
      b = cand;
      break;
    }
  }
  ASSERT_NE(b, 0u);
  drc.insert(a, true, {});
  drc.insert(b, true, {});
  EXPECT_FALSE(drc.contains(a, true));
  EXPECT_TRUE(drc.contains(b, true));
}

struct RefDrcEntry {
  bool valid = false;
  bool is_derand = false;
  uint32_t key = 0;
  uint64_t lru = 0;
  uint64_t epoch = 0;
};

/// A DRC checkpoint in Drc::state's layout: translation key + 0x100 and a
/// randomized tag on every entry, zero statistics, revalidation disarmed.
std::string drc_bytes(uint64_t tick, uint64_t epoch,
                      std::vector<RefDrcEntry> entries) {
  std::ostringstream out;
  binary::StateIo io(out);
  io.u64(tick);
  io.fixed(entries.size(), 1u << 24, "");
  for (RefDrcEntry& e : entries) {
    bool tag = true;
    uint32_t translation = e.key + 0x100;
    io.b(e.valid);
    io.b(e.is_derand);
    io.b(tag);
    io.u32(e.key);
    io.u32(translation);
    io.u64(e.lru);
    io.u64(e.epoch);
  }
  for (uint64_t stat = 0; stat < 7; ++stat) {
    uint64_t zero = 0;
    io.u64(zero);
  }
  io.u64(epoch);
  bool armed = false;
  io.b(armed);
  return out.str();
}

void load(Drc& drc, const std::string& bytes) {
  std::istringstream in(bytes);
  binary::StateIo io(in);
  drc.state(io);
}

// lookup() and insert() stamp entries from the DRC's own tick and epoch,
// file each key in set_of(key), and hold a (key, type) once per set. Keys
// below 0x2000 fall in set key & 1 of a two-set DRC.
TEST(DrcTest, RestoreRejectsStatesNoStreamProduces) {
  const DrcConfig cfg{.entries = 4, .assoc = 2, .hit_latency = 1};
  const auto rejects = [&](const std::string& bytes) {
    Drc drc(cfg);
    EXPECT_THROW(load(drc, bytes), binary::FormatError);
  };
  const RefDrcEntry none{};
  const std::string good =
      drc_bytes(4, 1, {{true, true, 0x10, 2, 1}, {true, false, 0x10, 3, 0},
                       {true, true, 0x11, 4, 1}, none});
  Drc drc(cfg);
  load(drc, good);
  const auto hit = drc.lookup(0x11, true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->translation, 0x111u);
  EXPECT_FALSE(drc.lookup(0x11, false).has_value());

  rejects(drc_bytes(4, 1, {{true, true, 0x10, 5, 1}, {true, false, 0x10, 3, 0},
                           {true, true, 0x11, 4, 1}, none}));
  rejects(drc_bytes(4, 1, {{true, true, 0x10, 2, 2}, {true, false, 0x10, 3, 0},
                           {true, true, 0x11, 4, 1}, none}));
  rejects(drc_bytes(4, 1, {{true, true, 0x10, 2, 1}, {true, true, 0x10, 3, 0},
                           {true, true, 0x11, 4, 1}, none}));
  rejects(drc_bytes(4, 1, {{true, true, 0x10, 2, 1}, {true, true, 0x11, 3, 0},
                           {true, true, 0x11, 4, 1}, none}));
}

TEST(DrcTest, RejectsBadGeometry) {
  EXPECT_THROW(Drc({.entries = 0, .assoc = 1, .hit_latency = 1}),
               std::invalid_argument);
  EXPECT_THROW(Drc({.entries = 6, .assoc = 4, .hit_latency = 1}),
               std::invalid_argument);
}

TEST(TranslationWalkerTest, WalksThroughL2AndMarksPagesInvisible) {
  binary::TranslationTables tables;
  tables.derand.reset(0x40000000, 0x1000, 64);
  tables.derand.emplace(0x40000040, 0x1010);
  tables.rand.reset(0x1000, 0x100);
  tables.rand.set(0x1010, 0x40000040);
  tables.table_base = 0x60000000;
  tables.table_bytes = 1024;

  cache::MemHierConfig mc;
  mc.dram.t_refi = 0;
  cache::MemHier mem(mc);
  TranslationWalker walker(tables, mem);

  EXPECT_FALSE(mem.dtlb().user_visible(0x60000000));

  const WalkResult w1 = walker.walk(0x40000040, true, 0);
  EXPECT_EQ(w1.value.translation, 0x1010u);
  EXPECT_TRUE(w1.value.randomized_tag);
  EXPECT_GT(w1.latency, 0u);

  const WalkResult w2 = walker.walk(0x1010, false, 100);
  EXPECT_EQ(w2.value.translation, 0x40000040u);

  // Identity translation for an un-randomized address, tag clear.
  const WalkResult w3 = walker.walk(0x2222, true, 200);
  EXPECT_EQ(w3.value.translation, 0x2222u);
  EXPECT_FALSE(w3.value.randomized_tag);
  EXPECT_EQ(walker.walks(), 3u);
}

TEST(RetBitmapTest, CachesRecentStackRegions) {
  cache::MemHierConfig mc;
  mc.dram.t_refi = 0;
  cache::MemHier mem(mc);
  RetBitmapCache bm({.entries = 2, .line_cover = 2048,
                     .store_base = 0x68000000, .store_bytes = 65536},
                    mem);
  const uint32_t sp = 0x7ffe0100;  // not at a bitmap-region boundary
  EXPECT_GT(bm.access(sp, 0), 0u);       // cold miss
  EXPECT_EQ(bm.access(sp - 4, 10), 0u);  // same region
  (void)bm.access(sp - 4096, 20);        // second region
  (void)bm.access(sp - 8192, 30);        // evicts the first
  EXPECT_GT(bm.access(sp, 40), 0u);
  EXPECT_EQ(bm.stats().accesses, 5u);
  EXPECT_EQ(bm.stats().misses, 4u);
}

struct RefBitmapLine {
  bool valid = false;
  uint32_t region = 0;
  uint64_t lru = 0;
};

/// A bitmap-cache checkpoint in RetBitmapCache::state's layout, with zero
/// statistics.
std::string bitmap_bytes(uint64_t tick, std::vector<RefBitmapLine> lines) {
  std::ostringstream out;
  binary::StateIo io(out);
  io.u64(tick);
  io.fixed(lines.size(), 1u << 20, "");
  for (RefBitmapLine& l : lines) {
    io.b(l.valid);
    io.u32(l.region);
    io.u64(l.lru);
  }
  for (uint64_t stat = 0; stat < 3; ++stat) {
    uint64_t zero = 0;
    io.u64(zero);
  }
  return out.str();
}

// access() stamps every line from the cache's own clock and never fills a
// region that is already valid.
TEST(RetBitmapTest, RestoreRejectsStatesNoStreamProduces) {
  cache::MemHierConfig mc;
  mc.dram.t_refi = 0;
  cache::MemHier mem(mc);
  const RetBitmapConfig cfg{.entries = 3, .line_cover = 2048,
                            .store_base = 0x68000000, .store_bytes = 65536};
  const auto load = [&](RetBitmapCache& bm, const std::string& bytes) {
    std::istringstream in(bytes);
    binary::StateIo io(in);
    bm.state(io);
  };
  const auto rejects = [&](const std::string& bytes) {
    RetBitmapCache bm(cfg, mem);
    EXPECT_THROW(load(bm, bytes), binary::FormatError);
  };
  // Regions 7 and 9 cached, one line never filled: what a stream leaves.
  const std::string good =
      bitmap_bytes(2, {{true, 7, 1}, {true, 9, 2}, RefBitmapLine{}});
  RetBitmapCache bm(cfg, mem);
  load(bm, good);
  std::ostringstream out;
  binary::StateIo io(out);
  bm.state(io);
  EXPECT_EQ(out.str(), good);
  EXPECT_EQ(bm.access(7 * 2048, 0), 0u);
  EXPECT_EQ(bm.access(9 * 2048 + 4, 0), 0u);

  rejects(bitmap_bytes(2, {{true, 7, 1}, {true, 9, 3}, RefBitmapLine{}}));
  rejects(bitmap_bytes(2, {{true, 7, 1}, {true, 7, 2}, RefBitmapLine{}}));
}

}  // namespace
}  // namespace vcfr::core
