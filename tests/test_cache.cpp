// Unit and invariant tests for the cache, TLB, and prefetcher models.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "binary/state_io.hpp"
#include "cache/cache.hpp"
#include "cache/tlb.hpp"

namespace vcfr::cache {
namespace {

CacheConfig small_cache() {
  return {.name = "t", .size_bytes = 256, .assoc = 2, .line_bytes = 64,
          .hit_latency = 2};
}

TEST(CacheTest, RejectsBadGeometry) {
  CacheConfig c = small_cache();
  c.line_bytes = 48;
  EXPECT_THROW(Cache{c}, std::invalid_argument);
  c = small_cache();
  c.assoc = 0;
  EXPECT_THROW(Cache{c}, std::invalid_argument);
  c = small_cache();
  c.size_bytes = 192;  // 3 sets
  EXPECT_THROW(Cache{c}, std::invalid_argument);
}

TEST(CacheTest, HitAfterMiss) {
  Cache c(small_cache());
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_TRUE(c.access(0x1030, false).hit);  // same line
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(CacheTest, LruEviction) {
  // 2 sets x 2 ways of 64B lines. Lines mapping to set 0: 0x000, 0x080, ...
  Cache c(small_cache());
  ASSERT_EQ(c.num_sets(), 2u);
  EXPECT_FALSE(c.access(0x000, false).hit);
  EXPECT_FALSE(c.access(0x080, false).hit);
  EXPECT_TRUE(c.access(0x000, false).hit);  // refresh line 0
  const auto out = c.access(0x100, false);  // evicts 0x080 (LRU)
  EXPECT_FALSE(out.hit);
  EXPECT_TRUE(out.evicted_valid);
  EXPECT_EQ(out.evicted_line_addr, 0x080u);
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_FALSE(c.contains(0x080));
}

TEST(CacheTest, DirtyEvictionReportsWriteback) {
  Cache c(small_cache());
  (void)c.access(0x000, true);  // dirty
  (void)c.access(0x080, false);
  const auto out = c.access(0x100, false);
  EXPECT_TRUE(out.evicted_dirty);
  EXPECT_EQ(out.evicted_line_addr, 0x000u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(CacheTest, PrefetchAccounting) {
  Cache c(small_cache());
  (void)c.fill_prefetch(0x000);
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
  EXPECT_TRUE(c.access(0x000, false).hit);
  EXPECT_EQ(c.stats().prefetch_hits, 1u);
  // A prefetched line that is evicted before use counts as useless.
  (void)c.fill_prefetch(0x080);
  (void)c.access(0x100, false);
  (void)c.access(0x180, false);  // set 0 full of demand lines now
  EXPECT_EQ(c.stats().prefetch_evicted_unused, 1u);
  EXPECT_GT(c.stats().prefetch_useless_rate(), 0.0);
}

TEST(CacheTest, ContainsDoesNotPerturbState) {
  Cache c(small_cache());
  (void)c.access(0x000, false);
  const auto before = c.stats().accesses;
  EXPECT_TRUE(c.contains(0x000));
  EXPECT_FALSE(c.contains(0x040));
  EXPECT_EQ(c.stats().accesses, before);
}

// Property: a direct-mapped cache of N lines can hold any N consecutive
// distinct lines with exactly one miss each (no conflict among them).
TEST(CacheTest, SequentialLinesFitExactly) {
  Cache c({.name = "dm", .size_bytes = 4096, .assoc = 1, .line_bytes = 64,
           .hit_latency = 1});
  for (uint32_t i = 0; i < 64; ++i) (void)c.access(i * 64, false);
  EXPECT_EQ(c.stats().misses, 64u);
  for (uint32_t i = 0; i < 64; ++i) (void)c.access(i * 64, false);
  EXPECT_EQ(c.stats().misses, 64u) << "second pass must hit entirely";
}

TEST(TlbTest, MissThenHit) {
  Tlb tlb({.entries = 4, .page_bits = 12, .miss_penalty = 20});
  EXPECT_EQ(tlb.access(0x1000), 20u);
  EXPECT_EQ(tlb.access(0x1fff), 0u);  // same page
  EXPECT_EQ(tlb.access(0x2000), 20u);
  EXPECT_EQ(tlb.stats().misses, 2u);
}

TEST(TlbTest, LruReplacementAcrossCapacity) {
  Tlb tlb({.entries = 2, .page_bits = 12, .miss_penalty = 10});
  (void)tlb.access(0x1000);
  (void)tlb.access(0x2000);
  (void)tlb.access(0x1000);          // refresh page 1
  EXPECT_EQ(tlb.access(0x3000), 10u);  // evicts page 2
  EXPECT_EQ(tlb.access(0x1000), 0u);
  EXPECT_EQ(tlb.access(0x2000), 10u);
}

TEST(TlbTest, VisibilityBitProtectsTablePages) {
  Tlb tlb({});
  tlb.set_invisible(0x60000000, 0x2000);
  EXPECT_FALSE(tlb.user_visible(0x60000000));
  EXPECT_FALSE(tlb.user_visible(0x60001fff));
  EXPECT_TRUE(tlb.user_visible(0x60002000));
  EXPECT_TRUE(tlb.check_user_access(0x50000000));
  EXPECT_FALSE(tlb.check_user_access(0x60000800));
  EXPECT_EQ(tlb.stats().visibility_faults, 1u);
}

struct RefEntry {
  bool valid = false;
  uint32_t page = 0;
  uint64_t lru = 0;
};

/// A TLB checkpoint in Tlb::state's layout, with no invisible pages.
std::string tlb_bytes(uint64_t tick, std::vector<RefEntry> entries,
                      TlbStats stats = {}) {
  std::ostringstream out;
  binary::StateIo io(out);
  io.u64(tick);
  io.fixed(entries.size(), 1u << 20, "");
  for (RefEntry& e : entries) {
    io.b(e.valid);
    io.u32(e.page);
    io.u64(e.lru);
  }
  std::vector<uint32_t> invisible;
  io.u32s(invisible, 1u << 20);
  io.u64(stats.accesses);
  io.u64(stats.misses);
  io.u64(stats.visibility_faults);
  return out.str();
}

std::string save(Tlb& tlb) {
  std::ostringstream out;
  binary::StateIo io(out);
  tlb.state(io);
  return out.str();
}

void load(Tlb& tlb, const std::string& bytes) {
  std::istringstream in(bytes);
  binary::StateIo io(in);
  tlb.state(io);
}

/// The linear-scan TLB that Tlb replaced, its access() kept verbatim: the
/// reference for every latency, statistic and state byte.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(const TlbConfig& config) : config_(config) {
    entries_.resize(config.entries);
  }

  uint32_t access(uint32_t addr) {
    ++stats_.accesses;
    const uint32_t page = addr >> config_.page_bits;
    RefEntry* victim = nullptr;
    for (auto& e : entries_) {
      if (e.valid && e.page == page) {
        e.lru = ++tick_;
        return 0;
      }
      if (!e.valid) {
        if (victim == nullptr || victim->valid) victim = &e;
      } else if (victim == nullptr || (victim->valid && e.lru < victim->lru)) {
        victim = &e;
      }
    }
    ++stats_.misses;
    victim->valid = true;
    victim->page = page;
    victim->lru = ++tick_;
    return config_.miss_penalty;
  }

  [[nodiscard]] std::string bytes() const {
    return tlb_bytes(tick_, entries_, stats_);
  }

 private:
  TlbConfig config_;
  std::vector<RefEntry> entries_;
  uint64_t tick_ = 0;
  TlbStats stats_;
};

/// A page stream over [0, span): half the accesses revisit one of the
/// last eight pages, the rest are uniform, so both hits and LRU
/// evictions are frequent at every capacity.
class PageStream {
 public:
  PageStream(uint32_t seed, uint32_t span) : rng_(seed), span_(span) {}

  uint32_t next_addr() {
    uint32_t page = rng_() % span_;
    if (rng_() % 2 == 0) page = recent_[rng_() % recent_.size()];
    recent_[pos_++ % recent_.size()] = page;
    return (page << 12) | (rng_() & 0xfffu);
  }

 private:
  std::mt19937 rng_;
  uint32_t span_;
  std::vector<uint32_t> recent_ = std::vector<uint32_t>(8, 0);
  size_t pos_ = 0;
};

TEST(TlbTest, MatchesLinearScanReference) {
  for (uint32_t entries = 1; entries <= 64; ++entries) {
    const TlbConfig cfg{.entries = entries, .page_bits = 12,
                        .miss_penalty = 20};
    for (const uint32_t span : {entries / 2 + 1, entries + 1, entries * 16}) {
      SCOPED_TRACE("entries " + std::to_string(entries) + ", span " +
                   std::to_string(span));
      Tlb tlb(cfg);
      ReferenceTlb ref(cfg);
      PageStream stream(entries * 131 + span, span);
      for (int batch = 0; batch < 8; ++batch) {
        for (int i = 0; i < 256; ++i) {
          const uint32_t addr = stream.next_addr();
          ASSERT_EQ(tlb.access(addr), ref.access(addr)) << "access " << i;
        }
        ASSERT_EQ(save(tlb), ref.bytes()) << "batch " << batch;
      }
      EXPECT_GT(tlb.stats().misses, 0u);
      EXPECT_LT(tlb.stats().misses, tlb.stats().accesses);
    }
  }
}

TEST(TlbTest, RestoreMidStreamContinuesIdentically) {
  for (const uint32_t entries : {1u, 5u, 64u}) {
    for (const uint32_t prefix : {0u, entries / 2, 700u}) {
      SCOPED_TRACE("entries " + std::to_string(entries) + ", prefix " +
                   std::to_string(prefix));
      const TlbConfig cfg{.entries = entries, .page_bits = 12,
                          .miss_penalty = 7};
      Tlb live(cfg);
      ReferenceTlb ref(cfg);
      PageStream stream(entries + prefix, entries * 3);
      for (uint32_t i = 0; i < prefix; ++i) {
        const uint32_t addr = stream.next_addr();
        (void)live.access(addr);
        (void)ref.access(addr);
      }
      const std::string saved = save(live);
      Tlb restored(cfg);
      (void)restored.access(0x123000);  // restore must replace this state
      load(restored, saved);
      ASSERT_EQ(save(restored), saved);
      for (int i = 0; i < 2000; ++i) {
        const uint32_t addr = stream.next_addr();
        const uint32_t want = ref.access(addr);
        ASSERT_EQ(restored.access(addr), want) << "access " << i;
        ASSERT_EQ(live.access(addr), want) << "access " << i;
      }
      EXPECT_EQ(save(restored), ref.bytes());
    }
  }
}

TEST(TlbTest, RestoreRejectsStatesNoStreamProduces) {
  const TlbConfig cfg{.entries = 4, .page_bits = 12, .miss_penalty = 20};
  const auto rejects = [&](const std::string& bytes) {
    Tlb tlb(cfg);
    EXPECT_THROW(load(tlb, bytes), binary::FormatError);
  };
  const RefEntry none{};
  // Two filled slots, then two empty ones: what a stream leaves.
  const std::string good =
      tlb_bytes(5, {{true, 9, 5}, {true, 3, 2}, none, none});
  Tlb tlb(cfg);
  load(tlb, good);
  EXPECT_EQ(save(tlb), good);
  EXPECT_EQ(tlb.access(3 << 12), 0u);
  EXPECT_EQ(tlb.access(4 << 12), 20u);  // fills slot 2

  rejects(tlb_bytes(5, {{true, 9, 5}, {true, 9, 2}, none, none}));
  rejects(tlb_bytes(5, {{true, 9, 5}, none, {true, 3, 2}, none}));
  rejects(tlb_bytes(5, {none, {true, 3, 2}, none, none}));
  rejects(tlb_bytes(5, {{true, 9, 2}, {true, 3, 2}, none, none}));
  rejects(tlb_bytes(4, {{true, 9, 5}, {true, 3, 2}, none, none}));
}

struct RefLine {
  bool valid = false;
  bool dirty = false;
  bool prefetched = false;
  uint32_t tag = 0;
  uint64_t lru = 0;
};

/// A cache checkpoint in Cache::state's layout, with zero statistics.
std::string cache_bytes(uint64_t tick, std::vector<RefLine> lines) {
  std::ostringstream out;
  binary::StateIo io(out);
  io.u64(tick);
  io.fixed(lines.size(), 1u << 28, "");
  for (RefLine& l : lines) {
    io.b(l.valid);
    io.b(l.dirty);
    io.b(l.prefetched);
    io.u32(l.tag);
    io.u64(l.lru);
  }
  for (uint64_t stat = 0; stat < 7; ++stat) {
    uint64_t zero = 0;
    io.u64(zero);
  }
  return out.str();
}

std::string save(Cache& cache) {
  std::ostringstream out;
  binary::StateIo io(out);
  cache.state(io);
  return out.str();
}

void load(Cache& cache, const std::string& bytes) {
  std::istringstream in(bytes);
  binary::StateIo io(in);
  cache.state(io);
}

// access() and install() stamp every line from the cache's own clock and
// never hold a tag twice in one set.
TEST(CacheTest, RestoreRejectsStatesNoStreamProduces) {
  const CacheConfig cfg = small_cache();  // 2 sets x 2 ways
  const auto rejects = [&](const std::string& bytes) {
    Cache cache(cfg);
    EXPECT_THROW(load(cache, bytes), binary::FormatError);
  };
  const RefLine none{};
  // Set 0 holds tags 5 and 7, set 1 a dirty tag 5: what a stream leaves.
  const std::string good = cache_bytes(
      3, {{true, false, false, 5, 1}, {true, false, false, 7, 3},
          {true, true, false, 5, 2}, none});
  Cache cache(cfg);
  load(cache, good);
  EXPECT_EQ(save(cache), good);
  EXPECT_TRUE(cache.contains(5u << 7));              // set 0, tag 5
  EXPECT_TRUE(cache.contains((5u << 7) | 64));       // set 1, tag 5
  EXPECT_EQ(cache.access(9u << 7, false).evicted_line_addr, 5u << 7);

  rejects(cache_bytes(3, {{true, false, false, 5, 1},
                          {true, false, false, 7, 4},
                          {true, true, false, 5, 2}, none}));
  rejects(cache_bytes(3, {{true, false, false, 5, 1},
                          {true, false, false, 5, 3},
                          {true, true, false, 5, 2}, none}));
}

TEST(TlbTest, RejectsEmptyGeometry) {
  EXPECT_THROW(Tlb({.entries = 0}), std::invalid_argument);
}

// Property: random access streams keep hits + misses == accesses and the
// working set never exceeds capacity.
class CacheRandomProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CacheRandomProperty, CountersStayConsistent) {
  std::mt19937 rng(GetParam());
  Cache c({.name = "p", .size_bytes = 2048, .assoc = 4, .line_bytes = 32,
           .hit_latency = 1});
  for (int i = 0; i < 20000; ++i) {
    (void)c.access((rng() % 4096) * 32, rng() % 4 == 0);
  }
  const auto& s = c.stats();
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_LE(s.writebacks, s.misses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheRandomProperty,
                         ::testing::Values(1u, 7u, 99u));

}  // namespace
}  // namespace vcfr::cache
