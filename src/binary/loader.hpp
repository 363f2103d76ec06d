// Sparse paged memory model and image loader.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "binary/image.hpp"

namespace vcfr::binary {

class StateIo;

/// Flat 32-bit byte-addressable memory, backed by 4 KiB pages allocated on
/// first touch. Unwritten bytes read as zero.
///
/// Host-side fast paths (architecturally invisible):
///  * the last-touched page is memoized per access stream (instruction
///    fetch, data reads), and writes keep eight memo entries mapped by
///    page number, so sequential fetch and stack traffic skip the page
///    hash — a Memory is therefore confined to one host thread at a time
///    (the fleet kernel guarantees this: each process's memory is only
///    touched by the worker running its core's slice);
///  * writes landing in a range registered via watch_code() bump
///    code_version(), which the emulator's decoded-instruction cache
///    compares against its fill generation — self-modifying code and
///    re-randomization firings invalidate cached decodes instead of going
///    stale.
///
/// The translation tables are not materialized here: they live only in
/// the image's maps, and their region at tables.table_base stays
/// unallocated (DRC misses time a line read of an entry's address).
class Memory {
 public:
  static constexpr uint32_t kPageBits = 12;
  static constexpr uint32_t kPageSize = 1u << kPageBits;

  [[nodiscard]] uint8_t read8(uint32_t addr) const;
  void write8(uint32_t addr, uint8_t value);

  [[nodiscard]] uint32_t read32(uint32_t addr) const;
  void write32(uint32_t addr, uint32_t value);
  /// Writes `n` bytes from `src` starting at `addr`: one page lookup and
  /// one copy per page chunk, allocating every page the range touches
  /// (all-zero chunks too, exactly as a write8 loop would). A block
  /// overlapping a watched range bumps code_version() once.
  void write_block(uint32_t addr, const uint8_t* src, uint32_t n);

  /// Copies up to `n` bytes starting at `addr` into `out`; missing pages
  /// yield zeros. Used by instruction decode.
  void read_block(uint32_t addr, uint8_t* out, uint32_t n) const;

  [[nodiscard]] size_t pages_allocated() const { return pages_.size(); }

  /// FNV-1a hash over all allocated pages (page-order independent).
  /// Used by equivalence tests to compare final memory states.
  [[nodiscard]] uint64_t checksum() const;

  /// Registers [base, base+size) as code: any write overlapping a watched
  /// range bumps code_version(). Duplicate registrations are folded.
  void watch_code(uint32_t base, uint32_t size);

  /// Generation counter for cached decodings of code bytes.
  [[nodiscard]] uint64_t code_version() const { return code_version_; }

  /// Explicit invalidation for changes the watched ranges cannot see: an
  /// incremental re-randomization firing and an injected translation-entry
  /// flip change what code means without rewriting all of it.
  void bump_code_version() { ++code_version_; }

  /// Checkpoint support: every allocated page (sorted by page number for a
  /// deterministic byte stream — checksum() hashes all of them, zero-filled
  /// included), the watched ranges, and the code version (so a restored
  /// decode cache can never serve pre-checkpoint decodings).
  void state(StateIo& io);

 private:
  using Page = std::array<uint8_t, kPageSize>;
  [[nodiscard]] const Page* find_page(uint32_t addr) const;
  Page& touch_page(uint32_t addr);

  /// Memoized page lookups. Pages are never freed and never move (the map
  /// owns them through unique_ptr), so a memoized pointer stays valid for
  /// the Memory's lifetime; only non-null results are memoized so pages
  /// allocated later are picked up on the next probe.
  [[nodiscard]] const Page* data_page(uint32_t addr) const;
  [[nodiscard]] const Page* fetch_page(uint32_t addr) const;
  Page& write_page(uint32_t addr);

  /// Bumps code_version() when [addr, addr + bytes) overlaps a watched
  /// range.
  void note_write(uint32_t addr, uint32_t bytes) {
    for (const auto& r : watched_) {
      if (addr < r.second && uint64_t{addr} + bytes > r.first) {
        ++code_version_;
        return;
      }
    }
  }

  std::unordered_map<uint32_t, std::unique_ptr<Page>> pages_;

  static constexpr uint32_t kNoPage = 0xffffffffu;
  mutable uint32_t data_memo_no_ = kNoPage;
  mutable const Page* data_memo_ = nullptr;
  mutable uint32_t fetch_memo_no_ = kNoPage;
  mutable const Page* fetch_memo_ = nullptr;
  struct WriteMemo {
    uint32_t no = kNoPage;
    Page* page = nullptr;
  };
  static constexpr uint32_t kWriteMemos = 8;
  std::array<WriteMemo, kWriteMemos> write_memo_{};

  /// Watched [base, end) ranges; normally one (the image's code section).
  std::vector<std::pair<uint32_t, uint32_t>> watched_;
  uint64_t code_version_ = 0;
};

/// Loads an image's code and data sections into memory:
///  * kOriginal / kVcfr: dense code at code_base;
///  * kNaiveIlr: each instruction's code slice at the address it runs at
///    (nothing at the original address of a moved instruction);
///  * always: the data section.
/// A kVcfr image's translation tables stay in the image: nothing is
/// written at tables.table_base.
void load(const Image& image, Memory& mem);

/// The translation-table region's entry geometry: 8 bytes per entry in a
/// hash bucket of tables.table_bytes. Returns the simulated address of the
/// entry that holds the mapping for `addr`, which is the line the hardware
/// reads on a DRC miss. Only the address is modelled; the bytes are never
/// materialized (functional translation reads the image's maps).
[[nodiscard]] uint32_t table_entry_addr(const TranslationTables& tables,
                                        uint32_t addr);

}  // namespace vcfr::binary
