#include "rewriter/randomizer.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "binary/loader.hpp"
#include "isa/encoding.hpp"
#include "rewriter/rng.hpp"

namespace vcfr::rewriter {

using isa::Op;

namespace {

/// kPageConfined geometry: each original 4 KiB code page gets one
/// randomized region of kPageStride bytes, one cache line more than the
/// page, since an instruction *starting* in a page's last bytes straddles
/// into the next page and a page's instructions can total slightly more
/// than 4096 bytes.
constexpr uint32_t kPage = 4096;
constexpr uint32_t kPageStride = kPage + 64;

/// True when the instruction's immediate is a code address the placement
/// must rewrite. PushI immediates are return addresses produced by the
/// software call rewrite and are always code pointers.
bool refers_to_code(const isa::DisasmEntry& entry,
                    const std::unordered_set<uint32_t>& code_imm_sites) {
  const isa::Instr& instr = entry.instr;
  return instr.is_direct_transfer() || instr.op == Op::kPushI ||
         (instr.op == Op::kMovRI && code_imm_sites.contains(entry.addr));
}

RerandIndex index_rerand(const binary::Image& image, const Cfg& cfg,
                         const AnalysisResult& analysis) {
  const auto n = static_cast<uint32_t>(cfg.instrs.size());
  RerandIndex ix;
  ix.movable.reserve(n);
  uint32_t last_page = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t addr = cfg.instrs[i].addr;
    if (analysis.unrandomized.contains(addr)) continue;
    const uint32_t page = (addr - image.code_base) / kPage;
    if (ix.movable.empty() || page != last_page) {
      ix.page_begin.push_back(static_cast<uint32_t>(ix.movable.size()));
      last_page = page;
    }
    ix.movable.push_back(i);
  }
  ix.page_begin.push_back(static_cast<uint32_t>(ix.movable.size()));

  // Counting sort of the referring sites by target: count, prefix-sum,
  // then place in ascending site order.
  std::vector<uint32_t> target(n, n);
  ix.ref_begin.assign(n + 1, 0);
  for (uint32_t i = 0; i < n; ++i) {
    if (!refers_to_code(cfg.instrs[i], analysis.code_imm_sites)) continue;
    const auto it = cfg.instr_at.find(cfg.instrs[i].instr.imm);
    if (it == cfg.instr_at.end()) continue;
    target[i] = static_cast<uint32_t>(it->second);
    ++ix.ref_begin[target[i] + 1];
  }
  for (uint32_t t = 0; t < n; ++t) ix.ref_begin[t + 1] += ix.ref_begin[t];
  ix.referrers.resize(ix.ref_begin[n]);
  std::vector<uint32_t> cursor(ix.ref_begin.begin(), ix.ref_begin.end() - 1);
  for (uint32_t i = 0; i < n; ++i) {
    if (target[i] != n) ix.referrers[cursor[target[i]]++] = i;
  }
  return ix;
}

/// Jump tables and stored code pointers.
void patch_data(binary::Image& img, const binary::TranslationTables& tables) {
  for (const auto& r : img.relocs) {
    img.write_data32(r.data_addr,
                     tables.to_randomized(img.read_data32(r.data_addr)));
  }
}

std::string hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

uint32_t next_pow2(uint32_t v) {
  return v <= 1 ? 1 : std::bit_ceil(v);
}

/// kFullSpread slot pool: one slot per movable instruction, thinned by
/// `spread`.
uint32_t full_spread_slots(size_t movable, double spread) {
  return static_cast<uint32_t>(
      std::max<double>(static_cast<double>(movable),
                       static_cast<double>(movable) * spread));
}

/// The page-confined randomized region: one stride per page up to the last
/// page holding a movable instruction.
uint32_t page_confined_region(const Program& program) {
  const std::vector<uint32_t>& movable = program.rerand.movable;
  const uint32_t last_page =
      movable.empty() ? 0
                      : (program.cfg.instrs[movable.back()].addr -
                         program.image.code_base) / kPage;
  return (last_page + 1) * kPageStride;
}

/// Open-addressed table over (derand + rand) entries, 8 bytes each, at
/// ~full occupancy (the walker models a single-probe perfect hash; the
/// size only determines the table's cache footprint).
uint32_t table_bytes_for(size_t placed) {
  return next_pow2(static_cast<uint32_t>(placed) * 2) * 8;
}

}  // namespace

JitterDivisors jitter_divisors(uint32_t slot_bytes) {
  JitterDivisors d;
  for (uint32_t len = 1; len <= isa::kMaxInstrLength; ++len) {
    d[len] = binary::Divisor(slot_bytes - len + 1);
  }
  return d;
}

void patch_site(binary::Image& image, const isa::DisasmEntry& site,
                uint32_t imm, std::vector<uint8_t>& buf) {
  isa::Instr patched = site.instr;
  patched.imm = imm;
  buf.clear();
  isa::encode(patched, buf);
  if (buf.size() != site.instr.length) {
    throw std::logic_error("patch_site: re-encoded length changed");
  }
  std::copy(buf.begin(), buf.end(),
            image.code.begin() + (site.addr - image.code_base));
}

binary::Image rewrite_calls_software(const binary::Image& image,
                                     SoftwareRewriteStats* stats) {
  if (image.layout != binary::Layout::kOriginal) {
    throw std::invalid_argument(
        "rewrite_calls_software: requires an original-layout image");
  }
  const Cfg cfg = build_cfg(image);
  // Conservative safety: the software option has no bitmap, so any callee
  // that touches its return address disqualifies the site.
  const AnalysisResult ar = analyze(image, cfg, ReturnPolicy::kConservative);

  // Pass 1: build the transformed instruction list and the old->new
  // address map for instruction starts.
  struct NewInstr {
    isa::Instr instr;
    uint32_t new_addr = 0;
    bool pushi_needs_ret = false;  // imm := address after the next instr
  };
  std::vector<NewInstr> out;
  out.reserve(cfg.instrs.size() + 64);
  std::unordered_map<uint32_t, uint32_t> addr_map;
  addr_map.reserve(cfg.instrs.size());
  uint32_t cursor = image.code_base;
  uint32_t rewritten = 0;

  for (const auto& e : cfg.instrs) {
    addr_map.emplace(e.addr, cursor);
    const uint32_t ret_site = e.addr + e.instr.length;
    const FunctionExtent* callee =
        e.instr.op == Op::kCall ? cfg.function_of(e.instr.imm) : nullptr;
    const bool rewrite = e.instr.op == Op::kCall && callee != nullptr &&
                         callee->has_ret &&
                         !ar.unsafe_return_sites.contains(ret_site) &&
                         cfg.is_instr_start(ret_site);
    if (rewrite) {
      ++rewritten;
      isa::Instr push{.op = Op::kPushI};
      push.length = isa::instr_length(static_cast<uint8_t>(Op::kPushI));
      out.push_back({push, cursor, /*pushi_needs_ret=*/true});
      cursor += push.length;
      isa::Instr jmp{.op = Op::kJmp, .imm = e.instr.imm};
      jmp.length = isa::instr_length(static_cast<uint8_t>(Op::kJmp));
      out.push_back({jmp, cursor, false});
      cursor += jmp.length;
    } else {
      out.push_back({e.instr, cursor, false});
      cursor += e.instr.length;
    }
  }

  // Pass 2: re-link every address reference through addr_map and resolve
  // the push immediates (the return address is the instruction after the
  // jmp, in new-address terms).
  auto remap_old = [&](uint32_t a) {
    auto it = addr_map.find(a);
    return it == addr_map.end() ? a : it->second;
  };
  binary::Image result = image;
  result.code.clear();
  result.code.reserve(cursor - image.code_base);
  for (size_t i = 0; i < out.size(); ++i) {
    isa::Instr instr = out[i].instr;
    if (out[i].pushi_needs_ret) {
      // Skip the jmp that follows this push: the return lands after it.
      instr.imm = i + 2 < out.size() ? out[i + 2].new_addr : cursor;
    } else if (instr.is_direct_transfer() ||
               (instr.op == Op::kMovRI && cfg.is_instr_start(instr.imm))) {
      instr.imm = remap_old(instr.imm);
    }
    isa::encode(instr, result.code);
  }
  for (const auto& r : result.relocs) {
    result.write_data32(r.data_addr, remap_old(result.read_data32(r.data_addr)));
  }
  for (auto& f : result.functions) f.addr = remap_old(f.addr);
  result.entry = remap_old(result.entry);

  if (stats != nullptr) {
    stats->calls_rewritten = rewritten;
    stats->code_bytes_before = static_cast<uint32_t>(image.code.size());
    stats->code_bytes_after = static_cast<uint32_t>(result.code.size());
  }
  return result;
}

Program prepare(binary::Image image, ReturnPolicy return_policy) {
  if (image.layout != binary::Layout::kOriginal) {
    throw std::invalid_argument("prepare: image is already randomized");
  }
  Program program;
  program.cfg = build_cfg(image);
  program.analysis = analyze(image, program.cfg, return_policy);
  program.rerand = index_rerand(image, program.cfg, program.analysis);
  program.reencoded.reserve(image.code.size());
  for (const auto& e : program.cfg.instrs) {
    isa::encode(e.instr, program.reencoded);
  }
  program.image = std::move(image);
  program.return_policy = return_policy;
  return program;
}

binary::Image place(const Program& program, const RandomizeOptions& options) {
  if (options.return_option != ReturnOption::kArchitectural) {
    throw std::invalid_argument(
        "place: the software call rewrite needs its own prepared program");
  }
  if (options.return_policy != program.return_policy) {
    throw std::invalid_argument(
        "place: program was prepared under another return policy");
  }
  if (options.slot_bytes < isa::kMaxInstrLength + 1) {
    throw std::invalid_argument("place: slot_bytes too small");
  }
  if (options.spread < 1.0) {
    throw std::invalid_argument("place: spread must be >= 1.0");
  }

  const binary::Image& image = program.image;
  const Cfg& cfg = program.cfg;
  const RerandIndex& ix = program.rerand;
  const std::vector<uint32_t>& movable = ix.movable;
  // The VCFR image keeps the original layout: its code is the re-encoded
  // original, in which only the sites referring to a placed instruction
  // change. The draw loops below write the placement straight into the
  // tables and patch those sites.
  binary::Image vcfr = image;
  vcfr.code = program.reencoded;
  binary::TranslationTables tables;
  tables.rand.reset(image.code_base, static_cast<uint32_t>(image.code.size()));
  std::vector<uint8_t> buf;
  buf.reserve(isa::kMaxInstrLength);
  auto place_at = [&](uint32_t idx, uint32_t rand_addr) {
    const uint32_t orig = cfg.instrs[idx].addr;
    tables.rand.set(orig, rand_addr);
    tables.derand.emplace(rand_addr, orig);
    for (uint32_t r = ix.ref_begin[idx]; r < ix.ref_begin[idx + 1]; ++r) {
      patch_site(vcfr, cfg.instrs[ix.referrers[r]], rand_addr, buf);
    }
  };

  // --- assign randomized addresses ----------------------------------------
  Mt19937_64 rng(options.seed);
  uint32_t region_size = 0;
  if (options.placement == PlacementPolicy::kFullSpread) {
    const uint32_t slot_count =
        full_spread_slots(movable.size(), options.spread);
    region_size = slot_count * options.slot_bytes;
    tables.derand.reset(options.rand_base, region_size, options.slot_bytes);
    std::vector<uint32_t> slots(slot_count);
    for (uint32_t i = 0; i < slot_count; ++i) slots[i] = i;
    std::shuffle(slots.begin(), slots.end(), rng);

    const auto jitter_span = jitter_divisors(options.slot_bytes);
    for (size_t k = 0; k < movable.size(); ++k) {
      const uint32_t length = cfg.instrs[movable[k]].instr.length;
      const auto jitter =
          static_cast<uint32_t>(jitter_span[length].mod(rng()));
      place_at(movable[k],
               options.rand_base + slots[k] * options.slot_bytes + jitter);
    }
  } else {
    // kPageConfined: per original 4 KiB page, shuffle its instructions and
    // re-pack them (with random gaps from the page's slack) into one
    // dedicated randomized region of kPageStride bytes.
    region_size = page_confined_region(program);
    tables.derand.reset(options.rand_base, region_size, 1);
    const std::vector<uint32_t>& page_begin = ix.page_begin;
    for (size_t k = 0; k + 1 < page_begin.size(); ++k) {
      std::vector<uint32_t> list(movable.begin() + page_begin[k],
                                 movable.begin() + page_begin[k + 1]);
      const uint32_t page =
          (cfg.instrs[list.front()].addr - image.code_base) / kPage;
      std::shuffle(list.begin(), list.end(), rng);
      uint32_t total = 0;
      for (const uint32_t idx : list) total += cfg.instrs[idx].instr.length;
      uint32_t slack = kPageStride > total ? kPageStride - total : 0;
      uint32_t pos = options.rand_base + page * kPageStride;
      size_t remaining = list.size();
      for (const uint32_t idx : list) {
        const uint32_t gap_cap =
            remaining > 0 ? static_cast<uint32_t>(2 * slack / remaining + 1)
                          : 1;
        const uint32_t gap = std::min<uint32_t>(slack, rng() % gap_cap);
        pos += gap;
        slack -= gap;
        place_at(idx, pos);
        pos += cfg.instrs[idx].instr.length;
        --remaining;
      }
    }
  }
  tables.unrandomized = program.analysis.unrandomized;
  tables.table_base = options.table_base;
  tables.table_bytes = table_bytes_for(movable.size());

  vcfr.layout = binary::Layout::kVcfr;
  vcfr.seed = options.seed;
  vcfr.tables = std::move(tables);
  patch_data(vcfr, vcfr.tables);
  vcfr.rand_base = options.rand_base;
  vcfr.rand_size = region_size;
  return vcfr;
}

std::string check_placement(const Program& program, const binary::Image& image,
                            const RandomizeOptions& options,
                            std::optional<uint32_t> exempt) {
  const bool full = options.placement == PlacementPolicy::kFullSpread;
  if (full && options.slot_bytes == 0) {
    throw std::invalid_argument("check_placement: slot_bytes must be non-zero");
  }
  const binary::Image& orig = program.image;
  const Cfg& cfg = program.cfg;
  const std::vector<uint32_t>& movable = program.rerand.movable;
  const binary::TranslationTables& tables = image.tables;
  if (image.layout != binary::Layout::kVcfr) return "not a VCFR image";
  if (image.code_base != orig.code_base ||
      image.code.size() != orig.code.size() ||
      image.data_base != orig.data_base ||
      image.data.size() != orig.data.size()) {
    return "code or data section differs from the program's";
  }
  if (!std::equal(image.relocs.begin(), image.relocs.end(),
                  orig.relocs.begin(), orig.relocs.end(),
                  [](const binary::Relocation& a,
                     const binary::Relocation& b) {
                    return a.data_addr == b.data_addr;
                  })) {
    return "relocations differ from the program's";
  }
  if (!(tables.unrandomized == program.analysis.unrandomized)) {
    return "failover set differs from the program's";
  }
  const uint32_t slots = full_spread_slots(movable.size(), options.spread);
  const uint32_t region =
      full ? slots * options.slot_bytes : page_confined_region(program);
  if (image.rand_base != options.rand_base || image.rand_size != region ||
      tables.derand.granule() != (full ? options.slot_bytes : 1) ||
      tables.table_base != options.table_base ||
      tables.table_bytes != table_bytes_for(movable.size())) {
    return "randomized or table region differs from the placement's";
  }
  if (tables.rand.size() != movable.size() ||
      !std::all_of(movable.begin(), movable.end(), [&](uint32_t idx) {
        return tables.rand.contains(cfg.instrs[idx].addr);
      })) {
    return "rand keys are not the program's movable instructions";
  }
  auto in_region = [&](uint32_t ra) { return ra - options.rand_base < region; };
  std::vector<bool> taken(full ? slots : 0);
  std::vector<std::pair<uint32_t, uint32_t>> spans;  // [ra, ra + length)
  spans.reserve(movable.size());
  for (const uint32_t idx : movable) {
    const uint32_t o = cfg.instrs[idx].addr;
    const uint32_t r = *tables.rand.lookup(o);
    const uint32_t length = cfg.instrs[idx].instr.length;
    if (full) {
      if (!in_region(r)) {
        return "placement " + hex(r) + " outside the slot pool";
      }
      const uint32_t slot = (r - options.rand_base) / options.slot_bytes;
      if (taken[slot]) {
        return "two placements share slot " + std::to_string(slot);
      }
      taken[slot] = true;
    } else {
      const uint32_t page_base =
          options.rand_base + (o - orig.code_base) / kPage * kPageStride;
      if (r - page_base >= kPageStride ||
          r - page_base + length > kPageStride) {
        return "placement " + hex(r) + " of " + hex(o) +
               " outside its page's region";
      }
    }
    spans.emplace_back(r, r + length);
    const uint32_t* back = tables.derand.lookup(r);
    if (r != exempt && (back == nullptr || *back != o)) {
      return "derand does not invert rand at " + hex(r);
    }
  }
  std::sort(spans.begin(), spans.end());
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first < spans[i - 1].second) {
      return "placements overlap at " + hex(spans[i].first);
    }
  }
  for (const auto& [r, o] : tables.derand.entries()) {
    if (r != exempt && (!in_region(r) || !tables.rand.contains(o))) {
      return "derand entry " + hex(r) + " is neither a placement nor an alias";
    }
  }
  return {};
}

std::string check_referring_sites(const Program& program,
                                  const binary::Image& image,
                                  const binary::Memory& mem,
                                  std::optional<uint32_t> exempt) {
  const Cfg& cfg = program.cfg;
  const RerandIndex& ix = program.rerand;
  uint8_t bytes[isa::kMaxInstrLength];
  for (uint32_t t = 0; t + 1 < ix.ref_begin.size(); ++t) {
    const uint32_t placed = image.tables.to_randomized(cfg.instrs[t].addr);
    for (uint32_t r = ix.ref_begin[t]; r < ix.ref_begin[t + 1]; ++r) {
      const isa::DisasmEntry& site = cfg.instrs[ix.referrers[r]];
      const uint8_t length = site.instr.length;
      if (exempt && *exempt - site.addr < length) continue;
      mem.read_block(site.addr, bytes, length);
      const std::optional<isa::Instr> held = isa::decode({bytes, length});
      if (held && held->op == site.instr.op && held->imm == placed) continue;
      return "referring site " + hex(site.addr) + " (" +
             std::string(isa::mnemonic(site.instr.op)) + " to " +
             hex(cfg.instrs[t].addr) + ") holds " +
             (held ? hex(held->imm) : std::string("no such instruction")) +
             ", its target is placed at " + hex(placed);
    }
  }
  return {};
}

RandomizeResult randomize(const binary::Image& image,
                          const RandomizeOptions& options) {
  if (options.return_option == ReturnOption::kSoftwareRewrite) {
    SoftwareRewriteStats sw_stats;
    const binary::Image transformed =
        rewrite_calls_software(image, &sw_stats);
    RandomizeOptions inner = options;
    inner.return_option = ReturnOption::kArchitectural;
    // The remaining (un-rewritten) calls must push original addresses:
    // no architectural return randomization exists in this configuration.
    inner.return_policy = ReturnPolicy::kNone;
    RandomizeResult result = randomize(transformed, inner);
    result.sw_stats = sw_stats;
    return result;
  }

  RandomizeResult result;
  result.program = prepare(image, options.return_policy);
  result.vcfr = place(result.program, options);
  return result;
}

binary::Image naive_ilr(const binary::Image& vcfr) {
  if (vcfr.layout != binary::Layout::kVcfr) {
    throw std::invalid_argument("naive_ilr: requires a VCFR image");
  }
  binary::Image naive = vcfr;
  naive.layout = binary::Layout::kNaiveIlr;
  return naive;
}

}  // namespace vcfr::rewriter
