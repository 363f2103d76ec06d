// DDR3-style main-memory model in the spirit of DRAMSim2 (the paper's
// memory backend, §VI-C): per-bank row buffers with an open-page policy,
// activate/precharge/CAS timing, bank busy tracking, and periodic refresh.
// Latencies are returned in CPU cycles (1.6 GHz core, 800 MHz DDR bus).
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/stat_registry.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::dram {

struct DramConfig {
  uint32_t banks = 8;
  uint32_t row_bytes = 8192;      // row-buffer (page) size per bank
  uint32_t cpu_per_mem_cycle = 2; // 1.6 GHz core / 800 MHz memory clock

  // JEDEC-style timings in memory cycles (DDR3-1600 CL11-ish).
  uint32_t t_cl = 11;    // CAS latency
  uint32_t t_rcd = 11;   // RAS-to-CAS
  uint32_t t_rp = 11;    // precharge
  uint32_t t_burst = 4;  // data burst for one 64-byte line
  uint32_t t_refi = 6240;  // refresh interval
  uint32_t t_rfc = 208;    // refresh cycle time
};

struct DramStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t row_hits = 0;
  uint64_t row_misses = 0;
  uint64_t refresh_stalls = 0;

  [[nodiscard]] double row_hit_rate() const {
    const uint64_t total = row_hits + row_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(row_hits) /
                            static_cast<double>(total);
  }
};

class Dram {
 public:
  explicit Dram(const DramConfig& config);

  /// Latency in CPU cycles to read the line containing `addr`, issued at
  /// CPU cycle `now`. Accounts for bank busy time, row-buffer state, and
  /// refresh overlap.
  uint32_t read(uint32_t addr, uint64_t now);

  /// Write-back of an evicted dirty line. Row-buffer state is updated; the
  /// caller does not wait (posted write), so no latency is returned.
  void write(uint32_t addr, uint64_t now);

  [[nodiscard]] const DramStats& stats() const { return stats_; }
  [[nodiscard]] const DramConfig& config() const { return config_; }

  /// Binds this DRAM channel's live statistics into `scope`.
  void register_stats(const telemetry::Scope& scope) const;

  /// Checkpoint support: bank row-buffer/busy state + statistics.
  void state(binary::StateIo& io);

 private:
  struct Bank {
    bool open = false;
    uint32_t open_row = 0;
    uint64_t busy_until = 0;  // CPU cycles
  };

  /// Services an access and returns its CPU-cycle latency.
  uint32_t service(uint32_t addr, uint64_t now);

  DramConfig config_;
  std::vector<Bank> banks_;
  DramStats stats_;
};

}  // namespace vcfr::dram
