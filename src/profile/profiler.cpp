#include "profile/profiler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <span>

#include "isa/disassembler.hpp"
#include "telemetry/json_writer.hpp"

namespace vcfr::profile {

namespace {

constexpr std::string_view kCauseNames[kNumCauses] = {
    "issue",      "il1_miss",       "dmem",           "drc_miss", "table_walk",
    "ret_bitmap", "branch_redirect", "context_switch", "l2_contention",
};

constexpr std::string_view kUnknownName = "[unknown]";
constexpr std::string_view kExternalName = "[external]";

[[nodiscard]] std::string hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%x", v);
  return buf;
}

}  // namespace

std::string_view cause_name(Cause cause) {
  return kCauseNames[static_cast<size_t>(cause)];
}

std::string_view layout_name(binary::Layout layout) {
  switch (layout) {
    case binary::Layout::kOriginal:
      return "original";
    case binary::Layout::kNaiveIlr:
      return "naive-ilr";
    case binary::Layout::kVcfr:
      return "vcfr";
  }
  return "?";
}

Profiler::Profiler(const binary::Image& image) : image_(image) {
  // Function extents: symbols sorted by address, each one half-open to the
  // next symbol (the assembler emits functions contiguously), the last one
  // to the end of the code section. Symbol addresses are original-space
  // for every layout, and on_retire folds every pc back to original space
  // before the lookup.
  extents_.reserve(image.functions.size());
  for (uint32_t i = 0; i < image.functions.size(); ++i) {
    extents_.push_back({image.functions[i].addr, 0, i});
  }
  std::sort(extents_.begin(), extents_.end(),
            [](const Extent& a, const Extent& b) { return a.addr < b.addr; });
  for (size_t i = 0; i < extents_.size(); ++i) {
    extents_[i].end =
        i + 1 < extents_.size() ? extents_[i + 1].addr : image.code_end();
  }
  unknown_slot_ = extents_.size();
  external_slot_ = extents_.size() + 1;
  funcs_.resize(extents_.size() + 2);
}

int32_t Profiler::func_of(uint32_t upc) const {
  // First extent strictly past upc, then step back one.
  auto it = std::upper_bound(
      extents_.begin(), extents_.end(), upc,
      [](uint32_t v, const Extent& e) { return v < e.addr; });
  if (it == extents_.begin()) return -1;
  --it;
  if (upc >= it->end) return -1;
  return static_cast<int32_t>(it - extents_.begin());
}

uint32_t Profiler::original_pc(uint32_t upc) const {
  // A naive-ILR image runs at its randomized addresses and its emulator's
  // upc is the pc itself; un-randomized instructions have no derand entry
  // and stay where they are.
  return image_.layout == binary::Layout::kNaiveIlr
             ? image_.tables.to_original(upc)
             : upc;
}

int32_t Profiler::intern_node(int32_t parent, int32_t func) {
  const uint64_t key = static_cast<uint64_t>(static_cast<uint32_t>(parent))
                           << 32 |
                       static_cast<uint32_t>(func);
  auto [it, fresh] =
      node_memo_.try_emplace(key, static_cast<int32_t>(nodes_.size()));
  if (fresh) {
    Node n;
    n.parent = parent;
    n.func = func;
    nodes_.push_back(n);
  }
  return it->second;
}

std::string Profiler::func_name(int32_t func) const {
  if (func < 0) return std::string(kUnknownName);
  const size_t slot = static_cast<size_t>(func);
  if (slot == unknown_slot_) return std::string(kUnknownName);
  if (slot == external_slot_) return std::string(kExternalName);
  return image_.functions[extents_[slot].sym].name;
}

void Profiler::on_retire(const emu::StepInfo& si, const RetireCosts& costs) {
  const uint32_t upc = original_pc(si.upc);
  const int32_t f = func_of(upc);

  // --- shadow stack / flame tree -----------------------------------------
  if (stack_.empty()) {
    stack_.push_back(intern_node(-1, f));
  } else if (nodes_[static_cast<size_t>(stack_.back())].func != f) {
    // Control reached a different function without a call/ret boundary
    // (tail jump, cross-function fallthrough): re-sync the leaf in place.
    const int32_t parent = nodes_[static_cast<size_t>(stack_.back())].parent;
    stack_.back() = intern_node(parent, f);
  }
  const int32_t leaf = stack_.back();

  // --- attribution --------------------------------------------------------
  nodes_[static_cast<size_t>(leaf)].cycles += costs.delta;
  nodes_[static_cast<size_t>(leaf)].instructions += 1;
  FuncAgg& agg = agg_of(f);
  agg.cycles += costs.delta;
  agg.instructions += 1;

  // Greedy claim of the delta, most-specific causes first. Components can
  // overlap (the pipeline hides latency under earlier work), so each one
  // claims at most what remains; whatever is left is plain issue time.
  // This makes the buckets sum exactly to the delta by construction.
  uint64_t remaining = costs.delta;
  const auto claim = [&](Cause cause, uint64_t amount) {
    const uint64_t take = std::min(remaining, amount);
    if (take == 0) return;
    remaining -= take;
    causes_[static_cast<size_t>(cause)] += take;
    agg.causes[static_cast<size_t>(cause)] += take;
  };
  claim(Cause::kTableWalk, costs.walk);
  claim(Cause::kDrcMiss, costs.drc_backing);
  claim(Cause::kRedirect, costs.redirect);
  claim(Cause::kRetBitmap, costs.bitmap);
  claim(Cause::kIl1Miss, costs.il1);
  claim(Cause::kDmem, costs.dmem);
  claim(Cause::kIssue, remaining);

  instructions_ += 1;
  attributed_ += costs.delta;

  // --- basic-block hotness ------------------------------------------------
  if (next_is_leader_) {
    cur_block_ = &blocks_[si.rpc];
    cur_block_->count += 1;
    cur_block_->upc = upc;
  }
  cur_block_->cycles += costs.delta;
  next_is_leader_ = si.instr.is_control();

  // --- stack maintenance for the *next* instruction -----------------------
  if (si.is_taken_transfer && si.instr.is_call()) {
    if (stack_.size() >= kMaxDepth) {
      ++depth_overflow_;
    } else {
      stack_.push_back(intern_node(leaf, func_of(original_pc(si.next_upc))));
    }
  } else if (si.instr.op == isa::Op::kRet && si.is_taken_transfer) {
    if (depth_overflow_ > 0) {
      --depth_overflow_;
    } else if (!stack_.empty()) {
      stack_.pop_back();
    }
  }
}

void Profiler::add_external(Cause cause, uint64_t cycles) {
  if (cycles == 0) return;
  causes_[static_cast<size_t>(cause)] += cycles;
  funcs_[external_slot_].cycles += cycles;
  funcs_[external_slot_].causes[static_cast<size_t>(cause)] += cycles;
  attributed_ += cycles;
}

void Profiler::add_l2_contention(uint32_t aggressor_asid, uint64_t cycles) {
  if (cycles == 0) return;
  add_external(Cause::kL2Contention, cycles);
  contention_by_asid_[aggressor_asid] += cycles;
}

double Profiler::resolved_fraction() const {
  const uint64_t external = funcs_[external_slot_].cycles;
  const uint64_t guest = attributed_ - external;
  if (guest == 0) return 1.0;
  const uint64_t unknown = funcs_[unknown_slot_].cycles;
  return 1.0 - static_cast<double>(unknown) / static_cast<double>(guest);
}

std::vector<Profiler::FunctionProfile> Profiler::functions() const {
  std::vector<FunctionProfile> out;
  for (size_t i = 0; i < funcs_.size(); ++i) {
    const FuncAgg& agg = funcs_[i];
    if (agg.cycles == 0 && agg.instructions == 0) continue;
    FunctionProfile fp;
    fp.name = func_name(static_cast<int32_t>(i));
    fp.addr = i < extents_.size() ? extents_[i].addr : 0;
    fp.cycles = agg.cycles;
    fp.instructions = agg.instructions;
    fp.causes = agg.causes;
    out.push_back(std::move(fp));
  }
  std::sort(out.begin(), out.end(),
            [](const FunctionProfile& a, const FunctionProfile& b) {
              if (a.cycles != b.cycles) return a.cycles > b.cycles;
              return a.addr < b.addr;
            });
  return out;
}

std::string Profiler::to_json(const ProfileMeta& meta,
                              size_t top_blocks) const {
  using telemetry::JsonWriter;
  JsonWriter w;
  w.begin_object(JsonWriter::Style::kPretty);
  w.key("app").value(meta.app);
  w.key("layout").value(meta.layout);
  w.key("seed").value(meta.seed);
  w.key("instructions").value(instructions_);
  w.key("cycles").value(attributed_);
  w.key("expected_cycles").value(meta.expected_cycles);
  w.key("conserved").value(attributed_ == meta.expected_cycles);
  w.key("resolved_fraction")
      .raw_value(telemetry::json_double(resolved_fraction()));

  w.key("causes").begin_object(JsonWriter::Style::kCompact);
  for (size_t c = 0; c < kNumCauses; ++c) {
    w.key(std::string(kCauseNames[c])).value(causes_[c]);
  }
  w.end_object();

  w.key("functions").begin_array(JsonWriter::Style::kPretty);
  for (const FunctionProfile& fp : functions()) {
    w.begin_object(JsonWriter::Style::kCompact);
    w.key("name").value(fp.name);
    w.key("addr").value(fp.addr);
    w.key("cycles").value(fp.cycles);
    w.key("instructions").value(fp.instructions);
    w.key("causes").begin_object(JsonWriter::Style::kCompact);
    for (size_t c = 0; c < kNumCauses; ++c) {
      if (fp.causes[c] == 0) continue;
      w.key(std::string(kCauseNames[c])).value(fp.causes[c]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  // Top blocks by execution count (rpc ascending as the tie-break).
  std::vector<std::pair<uint32_t, const Block*>> hot;
  hot.reserve(blocks_.size());
  for (const auto& [rpc, blk] : blocks_) hot.emplace_back(rpc, &blk);
  std::sort(hot.begin(), hot.end(),
            [](const auto& a, const auto& b) {
              if (a.second->count != b.second->count)
                return a.second->count > b.second->count;
              return a.first < b.first;
            });
  if (hot.size() > top_blocks) hot.resize(top_blocks);
  w.key("blocks").begin_array(JsonWriter::Style::kPretty);
  for (const auto& [rpc, blk] : hot) {
    w.begin_object(JsonWriter::Style::kCompact);
    w.key("rpc").value(rpc);
    w.key("upc").value(blk->upc);
    w.key("func").value(func_name(func_of(blk->upc)));
    w.key("count").value(blk->count);
    w.key("cycles").value(blk->cycles);
    w.end_object();
  }
  w.end_array();

  w.key("l2_contention_by_asid").begin_object(JsonWriter::Style::kCompact);
  for (const auto& [asid, cycles] : contention_by_asid_) {
    w.key(std::to_string(asid)).value(cycles);
  }
  w.end_object();

  w.end_object();
  return w.str();
}

std::string Profiler::to_collapsed() const {
  std::vector<std::string> lines;
  std::vector<std::string> names(nodes_.size());
  // Node ids are created parents-first, so one forward pass resolves every
  // full path.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    const std::string self = func_name(n.func);
    names[i] = n.parent < 0
                   ? self
                   : names[static_cast<size_t>(n.parent)] + ";" + self;
    if (n.cycles == 0) continue;
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", n.cycles);
    lines.push_back(names[i] + buf);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

std::string Profiler::to_hot_blocks(const ProfileMeta& meta,
                                    size_t top_blocks) const {
  std::vector<std::pair<uint32_t, const Block*>> hot;
  hot.reserve(blocks_.size());
  for (const auto& [rpc, blk] : blocks_) hot.emplace_back(rpc, &blk);
  std::sort(hot.begin(), hot.end(),
            [](const auto& a, const auto& b) {
              if (a.second->count != b.second->count)
                return a.second->count > b.second->count;
              return a.first < b.first;
            });
  if (hot.size() > top_blocks) hot.resize(top_blocks);

  std::string out;
  out += "hot blocks: " + meta.app + " (" + meta.layout + ", seed " +
         std::to_string(meta.seed) + ")\n";
  size_t rank = 1;
  for (const auto& [rpc, blk] : hot) {
    out += '#';
    out += std::to_string(rank++) + " rpc=" + hex32(rpc) +
           " upc=" + hex32(blk->upc) + " func=" +
           func_name(func_of(blk->upc)) + " count=" +
           std::to_string(blk->count) + " cycles=" +
           std::to_string(blk->cycles) + "\n";
    if (!image_.in_code(blk->upc)) continue;
    // Annotate with the block body: decode from the leader until the first
    // control transfer (bounded, blocks are short).
    constexpr size_t kMaxInstrs = 32;
    const size_t off = blk->upc - image_.code_base;
    const size_t len = std::min<size_t>(image_.code.size() - off,
                                        kMaxInstrs * isa::kMaxInstrLength);
    const auto entries = isa::disassemble(
        std::span<const uint8_t>(image_.code.data() + off, len), blk->upc);
    size_t shown = 0;
    for (const auto& e : entries) {
      if (shown++ >= kMaxInstrs) break;
      out += "    " + hex32(e.addr) + ": " + isa::format_instr(e.instr) + "\n";
      if (e.instr.is_control()) break;
    }
  }
  return out;
}

}  // namespace vcfr::profile
