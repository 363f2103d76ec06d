#include "dram/dram.hpp"

#include "binary/state_io.hpp"

namespace vcfr::dram {

Dram::Dram(const DramConfig& config) : config_(config) {
  banks_.resize(config.banks);
}

uint32_t Dram::service(uint32_t addr, uint64_t now) {
  const uint32_t row_id = addr / config_.row_bytes;
  const uint32_t bank_idx = row_id % config_.banks;
  const uint32_t row = row_id / config_.banks;
  Bank& bank = banks_[bank_idx];

  uint64_t start = now;
  if (bank.busy_until > start) start = bank.busy_until;

  // Refresh: when the access lands inside the per-interval refresh window,
  // it waits until the refresh completes.
  const uint64_t refi_cpu =
      static_cast<uint64_t>(config_.t_refi) * config_.cpu_per_mem_cycle;
  const uint64_t rfc_cpu =
      static_cast<uint64_t>(config_.t_rfc) * config_.cpu_per_mem_cycle;
  if (refi_cpu > 0 && start % refi_cpu < rfc_cpu) {
    start += rfc_cpu - start % refi_cpu;
    ++stats_.refresh_stalls;
  }

  uint32_t mem_cycles = 0;
  if (bank.open && bank.open_row == row) {
    ++stats_.row_hits;
    mem_cycles = config_.t_cl + config_.t_burst;
  } else {
    ++stats_.row_misses;
    mem_cycles = (bank.open ? config_.t_rp : 0) + config_.t_rcd +
                 config_.t_cl + config_.t_burst;
    bank.open = true;
    bank.open_row = row;
  }
  const uint64_t done =
      start + static_cast<uint64_t>(mem_cycles) * config_.cpu_per_mem_cycle;
  bank.busy_until = done;
  return static_cast<uint32_t>(done - now);
}

uint32_t Dram::read(uint32_t addr, uint64_t now) {
  ++stats_.reads;
  return service(addr, now);
}

void Dram::write(uint32_t addr, uint64_t now) {
  ++stats_.writes;
  (void)service(addr, now);  // posted; occupies the bank but nobody waits
}

void Dram::state(binary::StateIo& io) {
  io.fixed(banks_.size(), 1u << 16, "checkpoint DRAM bank count mismatch");
  for (Bank& bank : banks_) {
    io.b(bank.open);
    io.u32(bank.open_row);
    io.u64(bank.busy_until);
  }
  io.u64(stats_.reads);
  io.u64(stats_.writes);
  io.u64(stats_.row_hits);
  io.u64(stats_.row_misses);
  io.u64(stats_.refresh_stalls);
}

void Dram::register_stats(const telemetry::Scope& scope) const {
  scope.counter("reads", &stats_.reads);
  scope.counter("writes", &stats_.writes);
  scope.counter("row_hits", &stats_.row_hits);
  scope.counter("row_misses", &stats_.row_misses);
  scope.counter("refresh_stalls", &stats_.refresh_stalls);
  scope.gauge("row_hit_rate", [this] { return stats_.row_hit_rate(); });
}

}  // namespace vcfr::dram
