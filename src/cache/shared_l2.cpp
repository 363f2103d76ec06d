#include "cache/shared_l2.hpp"

#include <algorithm>

#include "binary/state_io.hpp"

namespace vcfr::cache {

namespace {

constexpr uint32_t kAsidHash = 2654435761u;  // Knuth multiplicative hash

[[nodiscard]] bool is_demand_read(const L2Request& r) {
  return !r.write && r.source != L2Source::kIl1Prefetch;
}

}  // namespace

AccessResult SharedL2Port::read(uint32_t line, uint32_t asid, uint64_t now,
                                L2Source source) {
  const bool hit = owner_->probe(asid, line);
  AccessResult result;
  result.latency = owner_->config().l2.hit_latency +
                   (hit ? 0 : owner_->config().est_miss_latency);
  result.l2_hit = hit;
  log_.push_back({.now = now,
                  .line = line,
                  .asid = asid,
                  .source = source,
                  .write = false,
                  .est_latency = result.latency});
  return result;
}

void SharedL2Port::writeback(uint32_t line, uint32_t asid, uint64_t now) {
  log_.push_back({.now = now,
                  .line = line,
                  .asid = asid,
                  .source = L2Source::kDl1,
                  .write = true,
                  .est_latency = 0});
}

SharedL2::SharedL2(const SharedL2Config& config, uint32_t cores)
    : config_(config), dram_(config.dram) {
  num_sets_ = config_.l2.size_bytes / (config_.l2.line_bytes * config_.l2.assoc);
  for (line_shift_ = 0; (1u << line_shift_) < config_.l2.line_bytes;
       ++line_shift_) {
  }
  lines_.resize(static_cast<size_t>(num_sets_) * config_.l2.assoc);
  ports_.resize(cores);
  for (uint32_t c = 0; c < cores; ++c) {
    ports_[c].owner_ = this;
    ports_[c].core_ = c;
  }
}

uint32_t SharedL2::set_index(uint32_t asid, uint32_t line) const {
  return ((line >> line_shift_) ^ (asid * kAsidHash)) % num_sets_;
}

uint32_t SharedL2::fold_phys(uint32_t asid, uint32_t line) const {
  const uint32_t row_bits = config_.dram.row_bytes;
  return line ^ ((asid * kAsidHash) & ~(row_bits - 1));
}

bool SharedL2::probe(uint32_t asid, uint32_t line) const {
  const uint64_t key = key_of(asid, line);
  const uint32_t set = set_index(asid, line);
  const Line* base = &lines_[static_cast<size_t>(set) * config_.l2.assoc];
  for (uint32_t w = 0; w < config_.l2.assoc; ++w) {
    if (base[w].valid && base[w].key == key) return true;
  }
  return false;
}

uint32_t SharedL2::apply(const L2Request& request, uint64_t start) {
  const uint64_t key = key_of(request.asid, request.line);
  const uint32_t set = set_index(request.asid, request.line);
  Line* base = &lines_[static_cast<size_t>(set) * config_.l2.assoc];

  ++stats_.l2.accesses;
  switch (request.source) {
    case L2Source::kIl1: ++stats_.pressure.reads_from_il1; break;
    case L2Source::kDl1: ++stats_.pressure.reads_from_dl1; break;
    case L2Source::kIl1Prefetch:
      ++stats_.pressure.reads_from_il1_prefetch;
      break;
    case L2Source::kDrc: ++stats_.pressure.reads_from_drc; break;
  }
  if (is_demand_read(request)) ++reads_by_asid_[request.asid];

  for (uint32_t w = 0; w < config_.l2.assoc; ++w) {
    if (base[w].valid && base[w].key == key) {
      ++stats_.l2.hits;
      base[w].lru = ++tick_;
      if (request.write) base[w].dirty = true;
      return config_.l2.hit_latency;
    }
  }

  // Miss: fill from DRAM, evicting the set's LRU way.
  ++stats_.l2.misses;
  Line* victim = base;
  for (uint32_t w = 1; w < config_.l2.assoc; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].lru < victim->lru) victim = &base[w];
  }
  const uint32_t dram_latency =
      dram_.read(fold_phys(request.asid, request.line),
                 start + config_.l2.hit_latency);
  if (victim->valid && victim->dirty) {
    ++stats_.l2.writebacks;
    dram_.write(fold_phys(static_cast<uint32_t>(victim->key >> 32),
                          static_cast<uint32_t>(victim->key)),
                start + config_.l2.hit_latency + dram_latency);
  }
  victim->valid = true;
  victim->dirty = request.write;
  victim->key = key;
  victim->lru = ++tick_;
  return config_.l2.hit_latency + dram_latency;
}

std::vector<uint64_t> SharedL2::commit_round(
    std::vector<std::map<uint32_t, uint64_t>>* blame) {
  std::vector<uint64_t> penalty(ports_.size(), 0);
  if (blame != nullptr) {
    blame->clear();
    blame->resize(ports_.size());
  }

  // Deterministic global order: request cycle, then core id, then the
  // core-local sequence implied by log position (std::sort would lose it,
  // so the index is part of the key).
  struct Ref {
    uint64_t now;
    uint32_t core;
    uint32_t seq;
  };
  std::vector<Ref> order;
  for (uint32_t c = 0; c < ports_.size(); ++c) {
    for (uint32_t i = 0; i < ports_[c].log_.size(); ++i) {
      order.push_back({ports_[c].log_[i].now, c, i});
    }
  }
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.now != b.now) return a.now < b.now;
    if (a.core != b.core) return a.core < b.core;
    return a.seq < b.seq;
  });

  // One serial pass in the merged order, interleaving port queueing, tag
  // updates and DRAM.
  uint64_t port_free = 0;
  uint32_t port_owner_asid = 0;
  for (const Ref& ref : order) {
    const L2Request& request = ports_[ref.core].log_[ref.seq];
    const uint64_t start = std::max(request.now, port_free);
    const uint64_t queued = start - request.now;
    const uint32_t blocker_asid = port_owner_asid;
    port_free = start + config_.service_cycles;
    port_owner_asid = request.asid;
    // The DRAM model tracks absolute bank-busy horizons, so it must see
    // a monotonic clock even though core clocks drift between rounds;
    // the clamp never reaches the penalty arithmetic.
    serve_now_ = std::max(serve_now_, start);
    const uint32_t actual = apply(request, serve_now_);
    ++stats_.commits;
    if (is_demand_read(request)) {
      stats_.queue_delay_cycles += queued;
      penalty[ref.core] += queued;
      if (blame != nullptr && queued > 0) {
        (*blame)[ref.core][blocker_asid] += queued;
      }
      if (actual > request.est_latency) {
        penalty[ref.core] += actual - request.est_latency;
        if (blame != nullptr) {
          (*blame)[ref.core][request.asid] += actual - request.est_latency;
        }
      }
    }
  }
  for (auto& port : ports_) port.log_.clear();
  return penalty;
}

void SharedL2::register_stats(const telemetry::Scope& scope) const {
  scope.counter("accesses", &stats_.l2.accesses);
  scope.counter("hits", &stats_.l2.hits);
  scope.counter("misses", &stats_.l2.misses);
  scope.counter("writebacks", &stats_.l2.writebacks);
  scope.counter("queue_delay_cycles", &stats_.queue_delay_cycles);
  scope.counter("commits", &stats_.commits);
  scope.gauge("miss_rate", [this] { return stats_.l2.miss_rate(); });
  const telemetry::Scope pressure = scope.scope("pressure");
  pressure.counter("il1", &stats_.pressure.reads_from_il1);
  pressure.counter("dl1", &stats_.pressure.reads_from_dl1);
  pressure.counter("il1_prefetch", &stats_.pressure.reads_from_il1_prefetch);
  pressure.counter("drc", &stats_.pressure.reads_from_drc);
  dram_.register_stats(scope.scope("dram"));
}

void SharedL2::state(binary::StateIo& io) {
  io.u64(tick_);
  io.u64(serve_now_);
  io.fixed(lines_.size(), 1u << 28, "checkpoint L2 geometry mismatch");
  for (Line& line : lines_) {
    io.b(line.valid);
    io.b(line.dirty);
    io.u64(line.key);
    io.u64(line.lru);
  }
  dram_.state(io);
  io.u64(stats_.l2.accesses);
  io.u64(stats_.l2.hits);
  io.u64(stats_.l2.misses);
  io.u64(stats_.l2.writebacks);
  io.u64(stats_.l2.prefetch_fills);
  io.u64(stats_.l2.prefetch_hits);
  io.u64(stats_.l2.prefetch_evicted_unused);
  io.u64(stats_.pressure.reads_from_il1);
  io.u64(stats_.pressure.reads_from_dl1);
  io.u64(stats_.pressure.reads_from_il1_prefetch);
  io.u64(stats_.pressure.reads_from_drc);
  io.u64(stats_.queue_delay_cycles);
  io.u64(stats_.commits);
  std::vector<std::pair<uint32_t, uint64_t>> reads(reads_by_asid_.begin(),
                                                   reads_by_asid_.end());
  io.vec(reads, 1u << 20, [&io](std::pair<uint32_t, uint64_t>& r) {
    io.u32(r.first);
    io.u64(r.second);
  });
  if (io.loading()) {
    reads_by_asid_.clear();
    for (const auto& [asid, n] : reads) reads_by_asid_[asid] = n;
  }
}

}  // namespace vcfr::cache
