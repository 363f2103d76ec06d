// Dense translation tables (binary/tables.hpp) against std::map models:
// random place, erase, re-insert and alias sequences must agree on every
// lookup, and the serialized image bytes must depend only on the tables'
// contents, in key order.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "binary/image.hpp"
#include "binary/serialize.hpp"
#include "binary/tables.hpp"

namespace vcfr::binary {
namespace {

TEST(DenseTablesTest, DivisorMatchesHardwareDivision) {
  std::mt19937_64 rng(11);
  for (const uint64_t d : {1ull, 2ull, 3ull, 7ull, 59ull, 64ull, 4160ull,
                           0xffffffffull, 0x8000000000000001ull, ~0ull}) {
    const Divisor div(d);
    std::vector<uint64_t> ns = {0, 1, d - 1, d, d + 1, ~0ull, ~0ull - d};
    for (int i = 0; i < 2000; ++i) ns.push_back(i % 2 ? rng() : rng() >> 32);
    for (const uint64_t n : ns) {
      ASSERT_EQ(div.div(n), n / d) << n << " / " << d;
      ASSERT_EQ(div.mod(n), n % d) << n << " % " << d;
    }
  }
}

using Model = std::map<uint32_t, uint32_t>;

std::vector<std::pair<uint32_t, uint32_t>> flat(const Model& m) {
  return {m.begin(), m.end()};
}

/// A VCFR image over `tables` (derand region [base, base + span), rand
/// over `code` bytes at 0x1000), as binary::save writes it.
std::string saved(const TranslationTables& tables, uint32_t base,
                  uint32_t span, uint32_t code) {
  Image image;
  image.layout = Layout::kVcfr;
  image.code_base = 0x1000;
  image.code.assign(code, 0);
  image.rand_base = base;
  image.rand_size = span;
  image.tables = tables;
  std::ostringstream out;
  save(image, out);
  return out.str();
}

/// The tables rebuilt from the models, inserting in descending key order.
TranslationTables rebuilt(const Model& derand, const Model& rand,
                          uint32_t base, uint32_t span, uint32_t granule,
                          uint32_t code) {
  TranslationTables t;
  t.derand.reset(base, span, granule);
  t.rand.reset(0x1000, code);
  for (auto it = derand.rbegin(); it != derand.rend(); ++it) {
    t.derand.emplace(it->first, it->second);
  }
  for (auto it = rand.rbegin(); it != rand.rend(); ++it) {
    t.rand.set(it->first, it->second);
  }
  return t;
}

std::string le32(uint32_t v) {
  std::string s(4, '\0');
  for (int i = 0; i < 4; ++i) s[i] = static_cast<char>(v >> (8 * i));
  return s;
}

TEST(DenseTablesTest, MatchesMapModelUnderRandomOperations) {
  constexpr uint32_t kBase = 0x4000'0000;
  constexpr uint32_t kCode = 512;
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    std::mt19937 rng(seed);
    const uint32_t granule = seed % 3 == 0 ? 1 : seed % 3 == 1 ? 64 : 17;
    const uint32_t span = granule * (48 + rng() % 64);
    TranslationTables t;
    t.derand.reset(kBase, span, granule);
    t.rand.reset(0x1000, kCode);
    Model derand, rand;
    const auto any_key = [&] { return kBase + rng() % span; };
    const auto some_key = [&] {
      auto it = derand.begin();
      std::advance(it, rng() % derand.size());
      return it->first;
    };
    const auto place = [&](uint32_t key) {
      const uint32_t orig = 0x1000 + rng() % kCode;
      SCOPED_TRACE("place " + std::to_string(key));
      EXPECT_EQ(t.derand.emplace(key, orig), derand.emplace(key, orig).second);
      EXPECT_EQ(t.rand.set(orig, key), !rand.contains(orig));
      rand[orig] = key;
    };
    for (int op = 0; op < 600; ++op) {
      const uint32_t kind = rng() % 8;
      if (kind < 3 || derand.empty()) {
        place(any_key());
      } else if (kind < 5) {
        // An alias: another offset of an occupied slot.
        const uint32_t key = some_key();
        const uint32_t slot_base = key - (key - kBase) % granule;
        place(slot_base + rng() % granule);
      } else if (kind < 7) {
        const uint32_t key = rng() % 4 == 0 ? any_key() : some_key();
        EXPECT_EQ(t.derand.erase(key), derand.erase(key) == 1) << key;
      } else {
        // Re-insert: erase a key and place it again with a new value.
        const uint32_t key = some_key();
        EXPECT_TRUE(t.derand.erase(key));
        derand.erase(key);
        place(key);
      }
      if (::testing::Test::HasFailure()) return;
    }
    // Lookups, sizes, iteration and slot occupancy agree with the model.
    ASSERT_EQ(t.derand.size(), derand.size());
    ASSERT_EQ(t.rand.size(), rand.size());
    EXPECT_EQ(t.derand.entries(), flat(derand));
    EXPECT_EQ(t.rand.entries(), flat(rand));
    for (uint32_t a = kBase - 4; a != kBase + span + 4; ++a) {
      const auto it = derand.find(a);
      const uint32_t* v = t.derand.lookup(a);
      ASSERT_EQ(v != nullptr, it != derand.end()) << a;
      if (v != nullptr) {
        EXPECT_EQ(*v, it->second) << a;
      }
      EXPECT_EQ(t.to_original(a), it == derand.end() ? a : it->second);
    }
    for (uint32_t a = 0x1000 - 4; a != 0x1000 + kCode + 4; ++a) {
      const auto it = rand.find(a);
      EXPECT_EQ(t.to_randomized(a), it == rand.end() ? a : it->second) << a;
    }
    std::vector<bool> taken(t.derand.slot_count());
    for (const auto& [k, v] : derand) taken[(k - kBase) / granule] = true;
    for (size_t s = 0; s < taken.size(); ++s) {
      EXPECT_EQ(t.derand.slot_taken(s), taken[s]) << s;
    }
    // The bytes: a function of the contents alone, derand in key order,
    // and a save-load-save identity.
    const std::string bytes = saved(t, kBase, span, kCode);
    EXPECT_EQ(bytes,
              saved(rebuilt(derand, rand, kBase, span, granule, kCode), kBase,
                    span, kCode));
    std::string pairs =
        le32(granule) + le32(static_cast<uint32_t>(derand.size()));
    for (const auto& [k, v] : derand) pairs += le32(k) + le32(v);
    EXPECT_NE(bytes.find(pairs), std::string::npos);
    std::istringstream in(bytes);
    const Image back = load_file(in);
    EXPECT_EQ(back.tables.derand.entries(), flat(derand));
    EXPECT_EQ(back.tables.rand.entries(), flat(rand));
    EXPECT_EQ(saved(back.tables, kBase, span, kCode), bytes);
  }
}

// Only the side map's slots hold two keys: erasing a slot's dense key
// moves the side key in, so the slot stays taken and both stay mapped.
TEST(DenseTablesTest, SideKeyKeepsItsSlotTaken) {
  DerandTable t;
  t.reset(0x4000'0000, 4 * 64, 64);
  ASSERT_TRUE(t.emplace(0x4000'0044, 1));
  ASSERT_TRUE(t.emplace(0x4000'0050, 2));  // same slot, another offset
  EXPECT_FALSE(t.emplace(0x4000'0050, 3));
  EXPECT_EQ(t.size(), 2u);
  ASSERT_TRUE(t.erase(0x4000'0044));
  EXPECT_TRUE(t.slot_taken(1));
  EXPECT_EQ(*t.lookup(0x4000'0050), 2u);
  EXPECT_EQ(t.lookup(0x4000'0044), nullptr);
  ASSERT_TRUE(t.erase(0x4000'0050));
  EXPECT_FALSE(t.slot_taken(1));
  EXPECT_TRUE(t.empty());
  EXPECT_THROW(t.emplace(0x4000'0100, 4), std::out_of_range);
  EXPECT_THROW(t.reset(0xffff'ff00, 0x100, 64), std::invalid_argument);
}

}  // namespace
}  // namespace vcfr::binary
