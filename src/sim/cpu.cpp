#include "sim/cpu.hpp"

#include <algorithm>

#include "binary/loader.hpp"
#include "binary/state_io.hpp"
#include "core/translation.hpp"
#include "emu/emulator.hpp"
#include "profile/profiler.hpp"

namespace vcfr::sim {

using binary::Layout;
using emu::StepInfo;
using isa::Op;

namespace {

/// Per-op execute latency class.
enum class ExecClass { kAlu, kMul, kDiv, kLoad, kStore };

ExecClass exec_class(Op op) {
  switch (op) {
    case Op::kMulRR:
    case Op::kMulRI:
      return ExecClass::kMul;
    case Op::kDivRR:
      return ExecClass::kDiv;
    case Op::kLd:
    case Op::kLdb:
    case Op::kPopR:
    case Op::kRet:
      return ExecClass::kLoad;
    case Op::kSt:
    case Op::kStb:
    case Op::kPushR:
    case Op::kPushI:
    case Op::kCall:
    case Op::kCallR:
      return ExecClass::kStore;
    default:
      return ExecClass::kAlu;
  }
}

constexpr uint32_t kInvalidLine = 0xffffffffu;

}  // namespace

CpuCore::CpuCore(const CpuConfig& config, cache::SharedL2Port* shared_port)
    : config_(config),
      mem_(config.mem, shared_port),
      drc_(config.drc),
      bitmap_(config.bitmap, mem_),
      gshare_(config.bpred),
      btb_(config.bpred),
      ras_(config.bpred),
      cur_line_(kInvalidLine),
      issue_ring_(config.iq_size, 0),
      store_ring_(config.store_buffer, 0) {
  // Optional dedicated second-level DRC buffer (§IV-B's rejected
  // alternative, kept for the ablation study).
  if (config.drc.l2_entries > 0) {
    drc_l2_ = std::make_unique<core::Drc>(core::DrcConfig{
        .entries = config.drc.l2_entries,
        .assoc = config.drc.l2_assoc,
        .hit_latency = config.drc.l2_hit_latency});
  }
}

uint64_t CpuCore::now() const {
  return std::max({last_done_, block_until_, fetch_ready_});
}

void CpuCore::install(Layout layout, core::TranslationWalker* walker,
                      uint32_t asid) {
  vcfr_ = layout == Layout::kVcfr;
  naive_ = layout == Layout::kNaiveIlr;
  walker_ = walker;
  asid_ = asid;
  mem_.set_asid(asid);
  // The pipeline drains across a switch: transient state re-anchors at the
  // current clock; caches/predictors/DRC deliberately keep their contents.
  const uint64_t t = now();
  fetch_ready_ = t;
  block_until_ = t;
  last_issue_ = t;
  issued_in_cycle_ = 0;
  cur_line_ = kInvalidLine;
  std::fill(issue_ring_.begin(), issue_ring_.end(), t);
  std::fill(store_ring_.begin(), store_ring_.end(), t);
  store_head_ = 0;
}

void CpuCore::stall(uint64_t cycles) {
  if (cycles == 0) return;
  fetch_ready_ += cycles;
  block_until_ += cycles;
  last_issue_ += cycles;
  last_done_ += cycles;
  for (auto& t : issue_ring_) t += cycles;
  for (auto& t : store_ring_) t += cycles;
}

// Probes the DRC for a translation; on a miss, performs the table walk
// and fills the DRC. Returns the walk latency (0 on a hit). Whether that
// latency stalls the pipeline depends on the caller: translations on a
// correctly-predicted path verify off the critical path, while a
// mispredict redirect must wait for the walk (§IV-B).
uint32_t CpuCore::drc_resolve(uint32_t key, bool derand, uint64_t now) {
  resolve_walk_ = 0;
  resolve_backing_ = 0;
  const auto hit = drc_.lookup(key, derand);
  if (hit) return 0;
  if (drc_l2_) {
    const auto l2_hit = drc_l2_->lookup(key, derand);
    if (l2_hit) {
      drc_.insert(key, derand, *l2_hit);
      resolve_backing_ = config_.drc.l2_hit_latency;
      return config_.drc.l2_hit_latency;
    }
  }
  ++table_walks_;
  const core::WalkResult wr = walker_->walk(key, derand, now);
  resolve_walk_ = wr.latency;
  drc_.insert(key, derand, wr.value);
  if (drc_l2_) drc_l2_->insert(key, derand, wr.value);
  if (lane_ != nullptr) {
    lane_->instant(telemetry::TraceEventType::kDrcMiss, asid_, now, key);
    lane_->span(telemetry::TraceEventType::kTableWalk, asid_, now, wr.latency,
                key);
  }
  if (walk_hist_ != nullptr) walk_hist_->record(wr.latency);
  return wr.latency;
}

uint64_t CpuCore::run(emu::Emulator& emulator, uint64_t max_instructions) {
  StepInfo si;
  uint64_t ran = 0;
  while (ran < max_instructions && emulator.step(&si)) {
    ++ran;
    retire(si);
    if (sampler_ != nullptr) sampler_->poll(last_done_);
    if (emulator.halted()) break;
  }
  return ran;
}

void CpuCore::retire(const StepInfo& si) {
  ++retired_;

  const uint32_t fetch_pc = naive_ ? si.rpc : si.upc;
  const uint32_t next_fetch_pc = naive_ ? si.next_rpc : si.next_upc;
  const uint32_t bpred_pc = fetch_pc;  // prediction in fetch space (§IV-D)

  // ---- fetch -----------------------------------------------------------
  const uint32_t line_bytes = config_.mem.il1.line_bytes;
  const uint32_t line_mask = ~(line_bytes - 1);
  uint64_t fetch_start =
      std::max(fetch_ready_, issue_ring_[retired_ % config_.iq_size]);
  uint32_t fetch_lat = 0;
  // Profiler cost components for this retire (dead stores when detached).
  uint32_t prof_il1 = 0;
  uint32_t prof_dmem = 0;
  uint32_t prof_bitmap = 0;
  const uint32_t first_line = fetch_pc & line_mask;
  const uint32_t last_line = (fetch_pc + si.instr.length - 1) & line_mask;
  if (first_line != cur_line_) {
    const auto r = mem_.ifetch(first_line, fetch_start);
    fetch_lat += r.latency;
    cur_line_ = first_line;
    if (!r.l1_hit) {
      // Non-blocking fetch miss: the next fetch may start once an MSHR
      // frees, while this miss overlaps with IQ drain.
      fetch_ready_ = fetch_start + config_.ifetch_miss_initiation;
      prof_il1 += r.latency;
      if (lane_ != nullptr) {
        lane_->span(telemetry::TraceEventType::kFetchStall, asid_,
                    fetch_start, r.latency, fetch_pc);
      }
      if (fetch_stall_hist_ != nullptr) fetch_stall_hist_->record(r.latency);
    }
  }
  if (last_line != cur_line_) {  // instruction straddles two lines
    const auto r = mem_.ifetch(last_line, fetch_start + fetch_lat);
    fetch_lat += r.latency;
    cur_line_ = last_line;
    if (!r.l1_hit) {
      fetch_ready_ = fetch_start + config_.ifetch_miss_initiation;
      prof_il1 += r.latency;
      if (lane_ != nullptr) {
        lane_->span(telemetry::TraceEventType::kFetchStall, asid_,
                    fetch_start, r.latency, fetch_pc);
      }
      if (fetch_stall_hist_ != nullptr) fetch_stall_hist_->record(r.latency);
    }
  }
  const uint64_t fetch_done = fetch_start + fetch_lat;
  // Pipelined initiation: a hit allows a new fetch next cycle.
  fetch_ready_ = std::max(fetch_ready_, fetch_start + (fetch_lat > 0 ? 1 : 0));

  // ---- issue / execute ---------------------------------------------------
  // W-wide in-order issue: up to issue_width instructions share a cycle.
  const uint64_t width_floor =
      issued_in_cycle_ >= config_.issue_width ? last_issue_ + 1 : last_issue_;
  uint64_t issue = std::max(
      {fetch_done + config_.decode_latency, width_floor, block_until_});
  // Store-buffer back-pressure.
  if (si.has_mem && si.mem_is_store) {
    issue = std::max(issue, store_ring_[store_head_]);
  }

  uint64_t exec_lat = 1;
  bool blocking = false;  // holds the in-order pipeline until completion
  switch (exec_class(si.instr.op)) {
    case ExecClass::kAlu:
      ++n_alu_;
      break;
    case ExecClass::kMul:
      ++n_mul_;
      exec_lat = config_.mul_latency;  // pipelined multiplier
      break;
    case ExecClass::kDiv:
      ++n_div_;
      exec_lat = config_.div_latency;
      blocking = true;  // unpipelined divider
      break;
    case ExecClass::kLoad: {
      ++n_mem_;
      const auto r = mem_.dread(si.mem_addr, issue);
      exec_lat = std::max<uint64_t>(1, r.latency);
      if (!r.l1_hit) {
        blocking = true;  // blocking D-cache miss
        prof_dmem = r.latency;
      }
      if (si.bitmap_load) {
        // §IV-C automatic de-randomization: consult the bitmap cache.
        const uint32_t extra = bitmap_.access(si.mem_addr, issue);
        exec_lat += extra;
        if (extra > 0) {
          blocking = true;
          prof_bitmap = extra;
          if (lane_ != nullptr) {
            lane_->span(telemetry::TraceEventType::kBitmapMiss, asid_, issue,
                        extra, si.mem_addr);
          }
        }
      }
      break;
    }
    case ExecClass::kStore: {
      ++n_mem_;
      const auto r = mem_.dwrite(si.mem_addr, issue);
      exec_lat = std::max<uint64_t>(1, r.latency);
      store_ring_[store_head_] = issue + 2;
      store_head_ = (store_head_ + 1) % config_.store_buffer;
      break;
    }
  }

  // Calls that push a randomized return address obtain it from a DRC
  // rand-entry lookup (§IV-A option 2) and set the stack bitmap bit. The
  // pushed value is not needed until the matching return (predicted by
  // the RAS anyway), so the lookup, its walk, and the bitmap update all
  // proceed off the critical path; only statistics and cache/L2 state
  // are affected.
  if (vcfr_ && si.needs_rand) {
    (void)drc_resolve(si.rand_key, /*derand=*/false, issue);
    (void)bitmap_.access(si.mem_addr, issue);
  }

  uint64_t exec_done = issue + exec_lat;
  if (blocking) block_until_ = exec_done;

  // ---- control flow ------------------------------------------------------
  const bool is_cond = si.instr.op == Op::kJcc;
  const bool is_transfer = si.instr.is_control() && si.instr.op != Op::kHalt;
  bool mispredict = false;
  bool target_known = true;  // translation available without the DRC?

  if (is_transfer) {
    ++n_branch_;
    if (is_cond) {
      ++bpstats_.cond_predictions;
      const bool pred_taken = gshare_.predict(bpred_pc);
      gshare_.update(bpred_pc, si.is_taken_transfer);
      if (pred_taken != si.is_taken_transfer) {
        ++bpstats_.cond_mispredicts;
        mispredict = true;
        target_known = !si.is_taken_transfer;  // taken needs translation
      }
    }
    if (si.is_taken_transfer) {
      if (si.instr.op == Op::kRet) {
        ++bpstats_.ras_pops;
        ++n_ras_ops_;
        const auto pred = ras_.pop();
        const bool ok = pred && pred->rand == si.next_rpc &&
                        pred->orig == next_fetch_pc;
        if (ok) {
          target_known = true;  // RAS pair carries the translation
        } else {
          ++bpstats_.ras_mispredicts;
          mispredict = true;
          target_known = false;
        }
      } else {
        ++bpstats_.btb_lookups;
        ++n_btb_ops_;
        const auto pred = btb_.lookup(bpred_pc);
        const bool ok = pred && pred->rand == si.next_rpc &&
                        pred->orig == next_fetch_pc;
        if (pred) ++bpstats_.btb_hits;
        if (ok) {
          // Even on a direction mispredict, the BTB entry supplies the
          // (randomized, original) target pair — no DRC walk needed to
          // redirect (§IV-D).
          target_known = true;
        } else {
          mispredict = true;
          target_known = false;
          btb_.update(bpred_pc, {si.next_rpc, next_fetch_pc});
        }
      }
    }
    if (si.instr.is_call()) {
      ++n_ras_ops_;
      const uint32_t ret_orig_space =
          vcfr_ ? si.upc + si.instr.length : si.call_push_value;
      ras_.push({si.call_push_value, ret_orig_space});
    }
  }

  // Every executed transfer whose target is expressed in the randomized
  // space consults the DRC (this is Fig 14's lookup stream). On a
  // correctly predicted path the translation only *verifies* the
  // prediction and any walk completes off the critical path; on a
  // mispredict, fetch cannot restart until the target is de-randomized.
  uint32_t derand_walk = 0;
  if (vcfr_ && si.needs_derand && si.is_taken_transfer) {
    derand_walk = drc_resolve(si.derand_key, /*derand=*/true, exec_done);
  }

  if (mispredict) {
    // The walk (when the translation was genuinely unavailable) overlaps
    // the pipeline-refill bubble.
    const uint64_t stall = std::max<uint64_t>(
        config_.redirect_penalty, target_known ? 0 : derand_walk);
    fetch_ready_ = std::max(fetch_ready_, exec_done + stall);
    cur_line_ = kInvalidLine;  // byte queue flushed
  }

  issue_ring_[retired_ % config_.iq_size] = issue;
  issued_in_cycle_ = issue == last_issue_ ? issued_in_cycle_ + 1 : 1;
  last_issue_ = issue;
  last_done_ = std::max(last_done_, exec_done);

  if (prof_ != nullptr) {
    profile::RetireCosts costs;
    costs.delta = last_done_ + 1 - prof_seen_;
    prof_seen_ = last_done_ + 1;
    costs.il1 = prof_il1;
    costs.dmem = prof_dmem;
    costs.bitmap = prof_bitmap;
    // Costs carried over from the previous retire's mispredict: its bubble
    // delayed *this* instruction's fetch, so they live in this delta.
    costs.redirect = prof_pend_redirect_;
    costs.walk = prof_pend_walk_;
    costs.drc_backing = prof_pend_backing_;
    prof_pend_redirect_ = prof_pend_walk_ = prof_pend_backing_ = 0;
    if (mispredict) {
      prof_pend_redirect_ = config_.redirect_penalty;
      if (!target_known && derand_walk > 0) {
        prof_pend_walk_ = resolve_walk_;
        prof_pend_backing_ = resolve_backing_;
      }
    }
    prof_->on_retire(si, costs);
  }
}

void CpuCore::state(binary::StateIo& io) {
  mem_.state(io);
  drc_.state(io);
  bool has_l2 = drc_l2_ != nullptr;
  io.b(has_l2);
  io.require(has_l2 == (drc_l2_ != nullptr),
             "checkpoint DRC L2 presence mismatch");
  if (drc_l2_) drc_l2_->state(io);
  bitmap_.state(io);
  gshare_.state(io);
  btb_.state(io);
  ras_.state(io);
  io.u64(bpstats_.cond_predictions);
  io.u64(bpstats_.cond_mispredicts);
  io.u64(bpstats_.btb_lookups);
  io.u64(bpstats_.btb_hits);
  io.u64(bpstats_.ras_pops);
  io.u64(bpstats_.ras_mispredicts);
  io.b(vcfr_);
  io.b(naive_);
  io.u32(asid_);
  io.u64(fetch_ready_);
  io.u64(last_issue_);
  io.u32(issued_in_cycle_);
  io.u64(block_until_);
  io.u64(last_done_);
  io.u32(cur_line_);
  io.fixed(issue_ring_.size(), 1u << 16, "checkpoint issue-ring size mismatch");
  for (uint64_t& t : issue_ring_) io.u64(t);
  io.fixed(store_ring_.size(), 1u << 16, "checkpoint store-ring size mismatch");
  for (uint64_t& t : store_ring_) io.u64(t);
  io.u64(store_head_);
  io.require(store_head_ < store_ring_.size(),
             "checkpoint store-buffer head out of range");
  io.u64(retired_);
  io.u64(table_walks_);
  io.u64(n_alu_);
  io.u64(n_mul_);
  io.u64(n_div_);
  io.u64(n_mem_);
  io.u64(n_branch_);
  io.u64(n_ras_ops_);
  io.u64(n_btb_ops_);
}

SimResult CpuCore::harvest() const {
  SimResult res;
  res.instructions = retired_;
  res.cycles = last_done_ + 1;
  res.il1 = mem_.il1().stats();
  res.dl1 = mem_.dl1().stats();
  res.l2 = mem_.l2().stats();
  res.l2_pressure = mem_.l2_pressure();
  res.prefetches_issued = mem_.prefetch_stats().issued;
  res.itlb = mem_.itlb().stats();
  res.dtlb = mem_.dtlb().stats();
  res.dram = mem_.dram().stats();
  res.bpred = bpstats_;
  res.drc = drc_.stats();
  if (drc_l2_) res.drc_l2 = drc_l2_->stats();
  res.drc_table_walks = table_walks_;
  res.ret_bitmap = bitmap_.stats();

  // ---- dynamic energy accounting (McPAT-style, §VI-A) ---------------------
  const auto& ep = config_.energy;
  auto sram = [](const cache::CacheConfig& c) {
    return power::sram_access_pj(c.size_bytes, c.assoc);
  };
  power::PowerAccount& pw = res.power;
  pw.core = static_cast<double>(retired_) * ep.core_per_instr +
            static_cast<double>(n_alu_) * ep.alu_op +
            static_cast<double>(n_mul_) * ep.mul_op +
            static_cast<double>(n_div_) * ep.div_op +
            static_cast<double>(n_mem_) * ep.agen_op;
  pw.il1 = static_cast<double>(res.il1.accesses + res.il1.prefetch_fills) *
           sram(config_.mem.il1);
  pw.dl1 = static_cast<double>(res.dl1.accesses) * sram(config_.mem.dl1);
  pw.l2 = static_cast<double>(res.l2.accesses) * sram(config_.mem.l2);
  pw.drc = static_cast<double>(res.drc.lookups) *
           power::sram_access_pj(drc_.size_bytes(), config_.drc.assoc) *
           ep.drc_array_factor;
  if (drc_l2_) {
    pw.drc += static_cast<double>(res.drc_l2.lookups) *
              power::sram_access_pj(drc_l2_->size_bytes(),
                                    config_.drc.l2_assoc) *
              ep.drc_array_factor;
  }
  pw.bpred = static_cast<double>(bpstats_.cond_predictions) * ep.bpred_access;
  pw.btb = static_cast<double>(n_btb_ops_) * ep.btb_access;
  pw.ras = static_cast<double>(n_ras_ops_) * ep.ras_access;
  pw.tlb = static_cast<double>(res.itlb.accesses + res.dtlb.accesses) *
           ep.tlb_access;
  pw.dram = static_cast<double>(res.dram.reads + res.dram.writes) *
            ep.dram_access;
  return res;
}

void CpuCore::register_stats(const telemetry::Scope& scope) {
  scope.counter("instructions", &retired_);
  scope.counter_fn("cycles", [this] { return last_done_ + 1; });
  scope.counter("table_walks", &table_walks_);
  scope.gauge("ipc", [this] {
    return last_done_ + 1 == 0 ? 0.0
                               : static_cast<double>(retired_) /
                                     static_cast<double>(last_done_ + 1);
  });

  const telemetry::Scope mix = scope.scope("mix");
  mix.counter("alu", &n_alu_);
  mix.counter("mul", &n_mul_);
  mix.counter("div", &n_div_);
  mix.counter("mem", &n_mem_);
  mix.counter("branch", &n_branch_);

  const telemetry::Scope bpred = scope.scope("bpred");
  bpred.counter("cond_predictions", &bpstats_.cond_predictions);
  bpred.counter("cond_mispredicts", &bpstats_.cond_mispredicts);
  bpred.counter("btb_lookups", &bpstats_.btb_lookups);
  bpred.counter("btb_hits", &bpstats_.btb_hits);
  bpred.counter("ras_pops", &bpstats_.ras_pops);
  bpred.counter("ras_mispredicts", &bpstats_.ras_mispredicts);
  bpred.gauge("cond_accuracy", [this] { return bpstats_.cond_accuracy(); });

  mem_.register_stats(scope);
  drc_.register_stats(scope.scope("drc"));
  if (drc_l2_) drc_l2_->register_stats(scope.scope("drc_l2"));
  bitmap_.register_stats(scope.scope("ret_bitmap"));

  walk_hist_ = scope.histogram("drc.walk_cycles");
  fetch_stall_hist_ = scope.histogram("fetch.stall_cycles");
}

SimResult simulate(const binary::Image& image, uint64_t max_instructions,
                   const CpuConfig& config, telemetry::Telemetry* telemetry,
                   profile::Profiler* profiler) {
  binary::Memory memory;
  binary::load(image, memory);
  emu::Emulator emulator(image, memory);

  CpuCore core(config);
  if (profiler != nullptr) core.attach_profiler(profiler);
  if (telemetry != nullptr) {
    core.register_stats(telemetry->root().scope("core0"));
    core.attach_trace(telemetry->lane(0));
    core.attach_sampler(&telemetry->sampler());
    if (telemetry->tracer() != nullptr) {
      telemetry->tracer()->name_lane(0, "core 0");
      telemetry->tracer()->name_asid(0, 0, "asid 0 " + image.name);
    }
  }
  core::TranslationWalker walker(image.tables, core.mem());
  core.install(image.layout, &walker, 0);
  const uint64_t ran = core.run(emulator, max_instructions);

  SimResult res = core.harvest();
  res.app = image.name;
  res.layout = image.layout;
  res.halted = emulator.halted();
  res.error = emulator.error();
  res.instructions = ran;
  // The core (and everything registered through it) dies with this
  // frame; pin the registry to final values so the caller can export.
  if (telemetry != nullptr) telemetry->registry().freeze();
  return res;
}

}  // namespace vcfr::sim
