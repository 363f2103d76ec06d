#include "cache/memhier.hpp"

#include "binary/state_io.hpp"
#include "cache/shared_l2.hpp"

namespace vcfr::cache {

MemHier::MemHier(const MemHierConfig& config, SharedL2Port* shared_port)
    : config_(config),
      shared_(shared_port),
      il1_(config.il1),
      dl1_(config.dl1),
      iprefetch_(config.iprefetch),
      itlb_(config.itlb),
      dtlb_(config.dtlb) {
  if (shared_ == nullptr) {
    l2_.emplace(config.l2);
    dram_.emplace(config.dram);
  }
}

AccessResult MemHier::l2_read(uint32_t addr, uint64_t now, L2Source source) {
  switch (source) {
    case L2Source::kIl1: ++pressure_.reads_from_il1; break;
    case L2Source::kDl1: ++pressure_.reads_from_dl1; break;
    case L2Source::kIl1Prefetch: ++pressure_.reads_from_il1_prefetch; break;
    case L2Source::kDrc: ++pressure_.reads_from_drc; break;
  }
  if (shared_) {
    const uint32_t line = addr & ~(config_.l2.line_bytes - 1);
    return shared_->read(line, asid_, now, source);
  }
  const CacheOutcome outcome = l2_->access(addr, /*write=*/false);
  AccessResult result;
  result.latency = config_.l2.hit_latency;
  result.l2_hit = outcome.hit;
  if (!outcome.hit) {
    result.latency += dram_->read(addr, now + config_.l2.hit_latency);
    if (outcome.evicted_dirty) {
      dram_->write(outcome.evicted_line_addr, now + result.latency);
    }
  }
  return result;
}

void MemHier::l2_writeback(uint32_t addr, uint64_t now) {
  // Dirty L1 eviction: write-allocate into L2 without stalling the core.
  if (shared_) {
    shared_->writeback(addr & ~(config_.l2.line_bytes - 1), asid_, now);
    return;
  }
  const CacheOutcome outcome = l2_->access(addr, /*write=*/true);
  if (!outcome.hit) {
    (void)dram_->read(addr, now);  // line fill before merging the victim
    ++pressure_.reads_from_dl1;
  }
  if (outcome.evicted_dirty) dram_->write(outcome.evicted_line_addr, now);
}

AccessResult MemHier::ifetch(uint32_t addr, uint64_t now) {
  const uint32_t line_bytes = config_.il1.line_bytes;
  const uint32_t line = addr & ~(line_bytes - 1);

  AccessResult result;
  result.latency = itlb_.access(addr);

  const CacheOutcome outcome = il1_.access(line, /*write=*/false);
  result.latency += config_.il1.hit_latency;
  result.l1_hit = outcome.hit;
  if (!outcome.hit) {
    const AccessResult l2r = l2_read(line, now + result.latency, L2Source::kIl1);
    result.latency += l2r.latency;
    result.l2_hit = l2r.l2_hit;
    // Instruction lines are never dirty; no writeback needed.
  }

  // Next-line prefetch: off the critical path; lines are pulled through L2
  // into IL1 and tagged so Figure 3's prefetch-efficiency metric can be
  // computed.
  for (uint32_t k = 0;; ++k) {
    const auto cand = iprefetch_.candidate(line, line_bytes, k);
    if (!cand) break;
    if (il1_.contains(*cand)) continue;
    iprefetch_.note_issued();
    (void)l2_read(*cand, now + result.latency, L2Source::kIl1Prefetch);
    (void)il1_.fill_prefetch(*cand);
  }
  return result;
}

AccessResult MemHier::dread(uint32_t addr, uint64_t now) {
  AccessResult result;
  result.latency = dtlb_.access(addr);
  const CacheOutcome outcome = dl1_.access(addr, /*write=*/false);
  result.latency += config_.dl1.hit_latency;
  result.l1_hit = outcome.hit;
  if (!outcome.hit) {
    const AccessResult l2r = l2_read(addr & ~(config_.dl1.line_bytes - 1),
                                     now + result.latency, L2Source::kDl1);
    result.latency += l2r.latency;
    result.l2_hit = l2r.l2_hit;
    if (outcome.evicted_dirty) {
      l2_writeback(outcome.evicted_line_addr, now + result.latency);
    }
  }
  return result;
}

AccessResult MemHier::dwrite(uint32_t addr, uint64_t now) {
  AccessResult result;
  // Stores retire through the write buffer: cache state is updated but the
  // pipeline only waits for the address translation.
  result.latency = dtlb_.access(addr);
  const CacheOutcome outcome = dl1_.access(addr, /*write=*/true);
  result.l1_hit = outcome.hit;
  if (!outcome.hit) {
    (void)l2_read(addr & ~(config_.dl1.line_bytes - 1), now, L2Source::kDl1);
    if (outcome.evicted_dirty) {
      l2_writeback(outcome.evicted_line_addr, now);
    }
  }
  return result;
}

AccessResult MemHier::table_read(uint32_t addr, uint64_t now) {
  return l2_read(addr & ~(config_.l2.line_bytes - 1), now, L2Source::kDrc);
}

void MemHier::state(binary::StateIo& io) {
  io.u32(asid_);
  il1_.state(io);
  dl1_.state(io);
  if (l2_) l2_->state(io);
  iprefetch_.state(io);
  itlb_.state(io);
  dtlb_.state(io);
  if (dram_) dram_->state(io);
  io.u64(pressure_.reads_from_il1);
  io.u64(pressure_.reads_from_dl1);
  io.u64(pressure_.reads_from_il1_prefetch);
  io.u64(pressure_.reads_from_drc);
}

void MemHier::register_stats(const telemetry::Scope& scope) const {
  il1_.register_stats(scope.scope("il1"));
  dl1_.register_stats(scope.scope("dl1"));
  itlb_.register_stats(scope.scope("itlb"));
  dtlb_.register_stats(scope.scope("dtlb"));
  if (l2_) {
    l2_->register_stats(scope.scope("l2"));
    dram_->register_stats(scope.scope("dram"));
  }
  const telemetry::Scope pressure = scope.scope("l2_pressure");
  pressure.counter("il1", &pressure_.reads_from_il1);
  pressure.counter("dl1", &pressure_.reads_from_dl1);
  pressure.counter("il1_prefetch", &pressure_.reads_from_il1_prefetch);
  pressure.counter("drc", &pressure_.reads_from_drc);
  scope.counter("prefetches_issued", &iprefetch_.stats().issued);
}

}  // namespace vcfr::cache
