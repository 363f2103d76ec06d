#include "sim/ooo.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "binary/loader.hpp"
#include "core/translation.hpp"
#include "emu/emulator.hpp"

namespace vcfr::sim {

using binary::Layout;
using emu::StepInfo;
using isa::Op;

namespace {

enum class Fu { kAlu, kMul, kDiv, kLoad, kStore };

Fu fu_of(Op op) {
  switch (op) {
    case Op::kMulRR:
    case Op::kMulRI:
      return Fu::kMul;
    case Op::kDivRR:
      return Fu::kDiv;
    case Op::kLd:
    case Op::kLdb:
    case Op::kPopR:
    case Op::kRet:
      return Fu::kLoad;
    case Op::kSt:
    case Op::kStb:
    case Op::kPushR:
    case Op::kPushI:
    case Op::kCall:
    case Op::kCallR:
      return Fu::kStore;
    default:
      return Fu::kAlu;
  }
}

/// Per-class functional-unit pool. Pipelined pools track per-unit
/// initiation; unpipelined pools hold a unit until completion.
class FuPool {
 public:
  FuPool(uint32_t units, bool pipelined)
      : pipelined_(pipelined), free_at_(std::max(1u, units), 0) {}

  /// Earliest cycle >= `ready` a unit can accept this op; books the unit.
  uint64_t acquire(uint64_t ready, uint64_t latency) {
    auto it = std::min_element(free_at_.begin(), free_at_.end());
    const uint64_t start = std::max(ready, *it);
    *it = pipelined_ ? start + 1 : start + latency;
    return start;
  }

 private:
  bool pipelined_;
  std::vector<uint64_t> free_at_;
};

/// Width-limited slot allocator: at most `width` events per cycle, in
/// program order (used for fetch, dispatch, and retire bandwidth).
class SlotAllocator {
 public:
  explicit SlotAllocator(uint32_t width) : width_(width) {}

  uint64_t allocate(uint64_t earliest) {
    if (earliest > cycle_) {
      cycle_ = earliest;
      used_ = 1;
    } else if (used_ < width_) {
      ++used_;
    } else {
      ++cycle_;
      used_ = 1;
    }
    return cycle_;
  }

 private:
  uint32_t width_;
  uint64_t cycle_ = 0;
  uint32_t used_ = 0;
};

constexpr uint32_t kInvalidLine = 0xffffffffu;

}  // namespace

SimResult simulate_ooo(const binary::Image& image, uint64_t max_instructions,
                       const OooConfig& config) {
  if (config.drc.l2_entries != 0) {
    throw std::invalid_argument(
        "simulate_ooo: drc.l2_entries must be 0 (the out-of-order core has "
        "no dedicated L2 DRC)");
  }
  const bool vcfr = image.layout == Layout::kVcfr;
  const bool naive = image.layout == Layout::kNaiveIlr;

  binary::Memory memory;
  binary::load(image, memory);
  emu::Emulator emulator(image, memory);

  cache::MemHier mem(config.mem);
  core::Drc drc(config.drc);
  core::TranslationWalker walker(image.tables, mem);
  core::RetBitmapCache bitmap(config.bitmap, mem);
  Gshare gshare(config.bpred);
  Btb btb(config.bpred);
  Ras ras(config.bpred);
  BpredStats bpstats;

  const uint32_t line_bytes = config.mem.il1.line_bytes;
  const uint32_t line_mask = ~(line_bytes - 1);

  // Front end.
  uint64_t fetch_ready = 0;
  uint32_t cur_line = kInvalidLine;
  SlotAllocator fetch_slots(config.width);

  // Back end.
  SlotAllocator dispatch_slots(config.width);
  SlotAllocator retire_slots(config.width);
  std::vector<uint64_t> retire_ring(config.rob_size, 0);
  uint64_t prev_retire = 0;

  // Dependency state: completion time of the last writer per register
  // (r0..r15 + flags).
  std::array<uint64_t, 17> reg_ready{};
  // Store-to-load memory dependences at word granularity.
  std::unordered_map<uint32_t, uint64_t> store_complete;

  FuPool alu_pool(config.alu_units, /*pipelined=*/true);
  FuPool mul_pool(config.mul_units, true);
  FuPool div_pool(config.div_units, /*pipelined=*/false);
  FuPool load_pool(config.load_ports, true);
  FuPool store_pool(config.store_ports, true);

  uint64_t n_alu = 0, n_mul = 0, n_div = 0, n_mem = 0;
  uint64_t n_ras_ops = 0, n_btb_ops = 0;
  uint64_t last_retire_time = 0;

  auto drc_resolve = [&](uint32_t key, bool derand, uint64_t now) -> uint32_t {
    const auto hit = drc.lookup(key, derand);
    if (hit) return 0;
    const core::WalkResult wr = walker.walk(key, derand, now);
    drc.insert(key, derand, wr.value);
    return wr.latency;
  };

  StepInfo si;
  uint64_t retired = 0;
  while (retired < max_instructions && emulator.step(&si)) {
    ++retired;
    const uint32_t fetch_pc = naive ? si.rpc : si.upc;
    const uint32_t next_fetch_pc = naive ? si.next_rpc : si.next_upc;
    const uint32_t bpred_pc = fetch_pc;

    // ---- fetch -----------------------------------------------------------
    uint64_t line_time = fetch_ready;
    uint32_t fetch_lat = 0;
    const uint32_t first_line = fetch_pc & line_mask;
    const uint32_t last_line = (fetch_pc + si.instr.length - 1) & line_mask;
    if (first_line != cur_line) {
      const auto r = mem.ifetch(first_line, line_time);
      fetch_lat += r.latency;
      cur_line = first_line;
      if (!r.l1_hit) {
        fetch_ready =
            std::max(fetch_ready, line_time + config.ifetch_miss_initiation);
      }
    }
    if (last_line != cur_line) {
      const auto r = mem.ifetch(last_line, line_time + fetch_lat);
      fetch_lat += r.latency;
      cur_line = last_line;
      if (!r.l1_hit) {
        fetch_ready =
            std::max(fetch_ready, line_time + config.ifetch_miss_initiation);
      }
    }
    const uint64_t fetch_done =
        fetch_slots.allocate(line_time + fetch_lat);

    // ---- dispatch (ROB occupancy + width) ----------------------------------
    const uint64_t rob_free = retire_ring[retired % config.rob_size];
    const uint64_t dispatch = dispatch_slots.allocate(
        std::max(fetch_done + config.decode_latency, rob_free));

    // ---- issue: register + memory dependences ------------------------------
    const isa::RegUse use = isa::reg_use(si.instr);
    uint64_t ready = dispatch;
    for (int r = 0; r < 17; ++r) {
      if (use.reads & (1u << r)) ready = std::max(ready, reg_ready[r]);
    }
    if (si.has_mem && !si.mem_is_store) {
      auto it = store_complete.find(si.mem_addr & ~3u);
      if (it != store_complete.end()) ready = std::max(ready, it->second);
    }

    uint64_t latency = 1;
    uint64_t issue = 0;
    switch (fu_of(si.instr.op)) {
      case Fu::kAlu:
        ++n_alu;
        issue = alu_pool.acquire(ready, 1);
        break;
      case Fu::kMul:
        ++n_mul;
        latency = config.mul_latency;
        issue = mul_pool.acquire(ready, latency);
        break;
      case Fu::kDiv:
        ++n_div;
        latency = config.div_latency;
        issue = div_pool.acquire(ready, latency);
        break;
      case Fu::kLoad: {
        ++n_mem;
        issue = load_pool.acquire(ready, 1);
        const auto r = mem.dread(si.mem_addr, issue);
        latency = std::max<uint64_t>(1, r.latency);
        if (si.bitmap_load) latency += bitmap.access(si.mem_addr, issue);
        break;
      }
      case Fu::kStore: {
        ++n_mem;
        issue = store_pool.acquire(ready, 1);
        const auto r = mem.dwrite(si.mem_addr, issue);
        latency = std::max<uint64_t>(1, r.latency);
        break;
      }
    }
    const uint64_t complete = issue + latency;
    if (si.has_mem && si.mem_is_store) {
      store_complete[si.mem_addr & ~3u] = complete;
    }
    for (int r = 0; r < 17; ++r) {
      if (use.writes & (1u << r)) reg_ready[r] = complete;
    }

    // Call-side rand lookups + bitmap marks: off the critical path.
    if (vcfr && si.needs_rand) {
      (void)drc_resolve(si.rand_key, /*derand=*/false, issue);
      (void)bitmap.access(si.mem_addr, issue);
    }

    // ---- control flow -------------------------------------------------------
    const bool is_cond = si.instr.op == Op::kJcc;
    bool mispredict = false;
    bool target_known = true;
    if (si.instr.is_control() && si.instr.op != Op::kHalt) {
      if (is_cond) {
        ++bpstats.cond_predictions;
        const bool pred = gshare.predict(bpred_pc);
        gshare.update(bpred_pc, si.is_taken_transfer);
        if (pred != si.is_taken_transfer) {
          ++bpstats.cond_mispredicts;
          mispredict = true;
          target_known = !si.is_taken_transfer;
        }
      }
      if (si.is_taken_transfer) {
        if (si.instr.op == Op::kRet) {
          ++bpstats.ras_pops;
          ++n_ras_ops;
          const auto pred = ras.pop();
          if (pred && pred->rand == si.next_rpc &&
              pred->orig == next_fetch_pc) {
            target_known = true;
          } else {
            ++bpstats.ras_mispredicts;
            mispredict = true;
            target_known = false;
          }
        } else {
          ++bpstats.btb_lookups;
          ++n_btb_ops;
          const auto pred = btb.lookup(bpred_pc);
          if (pred) ++bpstats.btb_hits;
          if (pred && pred->rand == si.next_rpc &&
              pred->orig == next_fetch_pc) {
            target_known = true;
          } else {
            mispredict = true;
            target_known = false;
            btb.update(bpred_pc, {si.next_rpc, next_fetch_pc});
          }
        }
      }
      if (si.instr.is_call()) {
        ++n_ras_ops;
        const uint32_t ret_orig =
            vcfr ? si.upc + si.instr.length : si.call_push_value;
        ras.push({si.call_push_value, ret_orig});
      }
    }
    uint32_t derand_walk = 0;
    if (vcfr && si.needs_derand && si.is_taken_transfer) {
      derand_walk = drc_resolve(si.derand_key, /*derand=*/true, complete);
    }
    if (mispredict) {
      const uint64_t stall = std::max<uint64_t>(
          config.redirect_penalty, target_known ? 0 : derand_walk);
      fetch_ready = std::max(fetch_ready, complete + stall);
      cur_line = kInvalidLine;
    }

    // ---- retire (in order, width-limited) -----------------------------------
    const uint64_t retire =
        retire_slots.allocate(std::max(complete + 1, prev_retire));
    prev_retire = retire;
    retire_ring[retired % config.rob_size] = retire;
    last_retire_time = retire;
    if (emulator.halted()) break;
  }

  // ---- results ---------------------------------------------------------------
  SimResult res;
  res.app = image.name;
  res.layout = image.layout;
  res.halted = emulator.halted();
  res.error = emulator.error();
  res.instructions = retired;
  res.cycles = last_retire_time + 1;
  res.il1 = mem.il1().stats();
  res.dl1 = mem.dl1().stats();
  res.l2 = mem.l2().stats();
  res.l2_pressure = mem.l2_pressure();
  res.prefetches_issued = mem.prefetch_stats().issued;
  res.itlb = mem.itlb().stats();
  res.dtlb = mem.dtlb().stats();
  res.dram = mem.dram().stats();
  res.bpred = bpstats;
  res.drc = drc.stats();
  res.drc_table_walks = walker.walks();
  res.ret_bitmap = bitmap.stats();

  const auto& ep = config.energy;
  auto sram = [](const cache::CacheConfig& c) {
    return power::sram_access_pj(c.size_bytes, c.assoc);
  };
  power::PowerAccount& pw = res.power;
  pw.core = static_cast<double>(retired) * ep.core_per_instr * 1.6 +
            static_cast<double>(n_alu) * ep.alu_op +
            static_cast<double>(n_mul) * ep.mul_op +
            static_cast<double>(n_div) * ep.div_op +
            static_cast<double>(n_mem) * ep.agen_op;
  pw.il1 = static_cast<double>(res.il1.accesses + res.il1.prefetch_fills) *
           sram(config.mem.il1);
  pw.dl1 = static_cast<double>(res.dl1.accesses) * sram(config.mem.dl1);
  pw.l2 = static_cast<double>(res.l2.accesses) * sram(config.mem.l2);
  pw.drc = static_cast<double>(res.drc.lookups) *
           power::sram_access_pj(drc.size_bytes(), config.drc.assoc) *
           ep.drc_array_factor;
  pw.bpred = static_cast<double>(bpstats.cond_predictions) * ep.bpred_access;
  pw.btb = static_cast<double>(n_btb_ops) * ep.btb_access;
  pw.ras = static_cast<double>(n_ras_ops) * ep.ras_access;
  pw.tlb = static_cast<double>(res.itlb.accesses + res.dtlb.accesses) *
           ep.tlb_access;
  pw.dram =
      static_cast<double>(res.dram.reads + res.dram.writes) * ep.dram_access;
  return res;
}

}  // namespace vcfr::sim
