#include "binary/loader.hpp"

#include <algorithm>
#include <cstring>

#include "binary/state_io.hpp"

namespace vcfr::binary {

const Memory::Page* Memory::find_page(uint32_t addr) const {
  auto it = pages_.find(addr >> kPageBits);
  return it == pages_.end() ? nullptr : it->second.get();
}

Memory::Page& Memory::touch_page(uint32_t addr) {
  auto& slot = pages_[addr >> kPageBits];
  if (!slot) slot = std::make_unique<Page>(Page{});
  return *slot;
}

const Memory::Page* Memory::data_page(uint32_t addr) const {
  const uint32_t no = addr >> kPageBits;
  if (no == data_memo_no_) return data_memo_;
  const Page* page = find_page(addr);
  if (page != nullptr) {
    data_memo_no_ = no;
    data_memo_ = page;
  }
  return page;
}

const Memory::Page* Memory::fetch_page(uint32_t addr) const {
  const uint32_t no = addr >> kPageBits;
  if (no == fetch_memo_no_) return fetch_memo_;
  const Page* page = find_page(addr);
  if (page != nullptr) {
    fetch_memo_no_ = no;
    fetch_memo_ = page;
  }
  return page;
}

Memory::Page& Memory::write_page(uint32_t addr) {
  const uint32_t no = addr >> kPageBits;
  WriteMemo& memo = write_memo_[no % kWriteMemos];
  if (no == memo.no) return *memo.page;
  Page& page = touch_page(addr);
  memo = {no, &page};
  return page;
}

uint8_t Memory::read8(uint32_t addr) const {
  const Page* page = data_page(addr);
  return page ? (*page)[addr & (kPageSize - 1)] : 0;
}

void Memory::write8(uint32_t addr, uint8_t value) {
  if (!watched_.empty()) note_write(addr, 1);
  write_page(addr)[addr & (kPageSize - 1)] = value;
}

uint32_t Memory::read32(uint32_t addr) const {
  // Fast path when the word does not straddle a page boundary.
  if ((addr & (kPageSize - 1)) <= kPageSize - 4) {
    const Page* page = data_page(addr);
    if (!page) return 0;
    const uint32_t off = addr & (kPageSize - 1);
    return static_cast<uint32_t>((*page)[off]) |
           (static_cast<uint32_t>((*page)[off + 1]) << 8) |
           (static_cast<uint32_t>((*page)[off + 2]) << 16) |
           (static_cast<uint32_t>((*page)[off + 3]) << 24);
  }
  return static_cast<uint32_t>(read8(addr)) |
         (static_cast<uint32_t>(read8(addr + 1)) << 8) |
         (static_cast<uint32_t>(read8(addr + 2)) << 16) |
         (static_cast<uint32_t>(read8(addr + 3)) << 24);
}

void Memory::write32(uint32_t addr, uint32_t value) {
  if ((addr & (kPageSize - 1)) <= kPageSize - 4) {
    if (!watched_.empty()) note_write(addr, 4);
    Page& page = write_page(addr);
    const uint32_t off = addr & (kPageSize - 1);
    page[off] = static_cast<uint8_t>(value);
    page[off + 1] = static_cast<uint8_t>(value >> 8);
    page[off + 2] = static_cast<uint8_t>(value >> 16);
    page[off + 3] = static_cast<uint8_t>(value >> 24);
    return;
  }
  write8(addr, static_cast<uint8_t>(value));
  write8(addr + 1, static_cast<uint8_t>(value >> 8));
  write8(addr + 2, static_cast<uint8_t>(value >> 16));
  write8(addr + 3, static_cast<uint8_t>(value >> 24));
}

void Memory::write_block(uint32_t addr, const uint8_t* src, uint32_t n) {
  if (n == 0) return;
  if (!watched_.empty()) note_write(addr, n);
  while (n > 0) {
    const uint32_t off = addr & (kPageSize - 1);
    const uint32_t chunk = std::min(n, kPageSize - off);
    std::memcpy(write_page(addr).data() + off, src, chunk);
    addr += chunk;
    src += chunk;
    n -= chunk;
  }
}

void Memory::read_block(uint32_t addr, uint8_t* out, uint32_t n) const {
  while (n > 0) {
    const uint32_t off = addr & (kPageSize - 1);
    const uint32_t chunk = std::min(n, kPageSize - off);
    const Page* page = fetch_page(addr);
    if (page != nullptr) {
      std::memcpy(out, page->data() + off, chunk);
    } else {
      std::memset(out, 0, chunk);
    }
    addr += chunk;
    out += chunk;
    n -= chunk;
  }
}

uint64_t Memory::checksum() const {
  // XOR of per-page FNV-1a hashes keyed by page number, so iteration order
  // over the hash map does not matter.
  uint64_t sum = 0;
  for (const auto& [page_no, page] : pages_) {
    uint64_t h = 1469598103934665603ull ^ (static_cast<uint64_t>(page_no) << 1);
    for (uint8_t b : *page) {
      h ^= b;
      h *= 1099511628211ull;
    }
    sum ^= h;
  }
  return sum;
}

void Memory::state(StateIo& io) {
  std::vector<uint32_t> page_nos;
  page_nos.reserve(pages_.size());
  for (const auto& [page_no, page] : pages_) page_nos.push_back(page_no);
  std::sort(page_nos.begin(), page_nos.end());
  if (io.loading()) {
    pages_.clear();
    data_memo_no_ = kNoPage;
    data_memo_ = nullptr;
    fetch_memo_no_ = kNoPage;
    fetch_memo_ = nullptr;
    write_memo_ = {};
  }
  io.vec(page_nos, 1u << 20, [&](uint32_t& page_no) {
    io.u32(page_no);
    std::unique_ptr<Page>& page = pages_[page_no];
    if (page == nullptr) page = std::make_unique<Page>();
    io.bytes(page->data(), kPageSize);
  });
  io.vec(watched_, 1u << 12, [&io](std::pair<uint32_t, uint32_t>& range) {
    io.u32(range.first);
    io.u32(range.second);
  });
  io.u64(code_version_);
}

void Memory::watch_code(uint32_t base, uint32_t size) {
  if (size == 0) return;
  const auto range = std::make_pair(base, base + size);
  for (const auto& r : watched_) {
    if (r == range) return;
  }
  watched_.push_back(range);
}

uint32_t table_entry_addr(const TranslationTables& tables, uint32_t addr) {
  const uint32_t slots = tables.table_bytes / 8;
  if (slots == 0) return tables.table_base;
  const uint32_t slot = mix32(addr) & (slots - 1);  // table_bytes is pow2*8
  return tables.table_base + slot * 8;
}

void load(const Image& image, Memory& mem) {
  if (image.layout == Layout::kNaiveIlr) {
    for (const PlacedInstr& p : image.placed_instrs()) {
      mem.write_block(p.at, &image.code[p.addr - image.code_base], p.length);
    }
  } else {
    mem.write_block(image.code_base, image.code.data(),
                    static_cast<uint32_t>(image.code.size()));
  }
  mem.write_block(image.data_base, image.data.data(),
                  static_cast<uint32_t>(image.data.size()));
}

}  // namespace vcfr::binary
