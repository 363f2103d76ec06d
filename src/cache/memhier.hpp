// Memory hierarchy glue: IL1 + DL1 -> unified L2 -> DRAM, with the
// next-line instruction prefetcher and the I/D TLBs. Machine parameters
// default to the paper's §VI-C configuration.
//
// The unified L2 additionally services DRC-miss table walks (the paper's
// "DRC shares L2 with IL1" design); per-source read counters expose the
// "L2 pressure" metric of Figure 3.
#pragma once

#include <cstdint>
#include <optional>

#include "cache/cache.hpp"
#include "cache/prefetcher.hpp"
#include "cache/tlb.hpp"
#include "dram/dram.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::cache {

struct MemHierConfig {
  CacheConfig il1{.name = "IL1",
                  .size_bytes = 32 * 1024,
                  .assoc = 2,
                  .line_bytes = 64,
                  .hit_latency = 2};
  CacheConfig dl1{.name = "DL1",
                  .size_bytes = 32 * 1024,
                  .assoc = 2,
                  .line_bytes = 64,
                  .hit_latency = 2};
  CacheConfig l2{.name = "L2",
                 .size_bytes = 512 * 1024,
                 .assoc = 8,
                 .line_bytes = 64,
                 .hit_latency = 12};
  PrefetcherConfig iprefetch{};
  TlbConfig itlb{};
  TlbConfig dtlb{};
  dram::DramConfig dram{};
};

/// Who initiated an L2 read (for the pressure breakdown).
enum class L2Source { kIl1, kDl1, kIl1Prefetch, kDrc };

struct L2PressureStats {
  uint64_t reads_from_il1 = 0;
  uint64_t reads_from_dl1 = 0;
  uint64_t reads_from_il1_prefetch = 0;
  uint64_t reads_from_drc = 0;

  [[nodiscard]] uint64_t total_reads() const {
    return reads_from_il1 + reads_from_dl1 + reads_from_il1_prefetch +
           reads_from_drc;
  }
};

struct AccessResult {
  uint32_t latency = 0;
  bool l1_hit = false;
  bool l2_hit = false;  // meaningful only when !l1_hit
};

class SharedL2Port;

class MemHier {
 public:
  /// With a null `shared_port` the hierarchy owns a private L2 + DRAM (the
  /// single-process simulator). With a port, L2-level traffic is routed to
  /// the fleet's shared L2 (cache/shared_l2.hpp) and the hierarchy has no
  /// L2 or DRAM of its own.
  explicit MemHier(const MemHierConfig& config,
                   SharedL2Port* shared_port = nullptr);

  /// Address-space id tagged onto shared-L2 traffic (the running process's
  /// pid). Ignored in private-L2 mode.
  void set_asid(uint32_t asid) { asid_ = asid; }

  /// Instruction fetch of the line containing `addr` (drives the next-line
  /// prefetcher).
  AccessResult ifetch(uint32_t addr, uint64_t now);

  /// Data read / write through DL1 (write-allocate, write-back; store
  /// latency is absorbed by the write buffer but contents are updated).
  AccessResult dread(uint32_t addr, uint64_t now);
  AccessResult dwrite(uint32_t addr, uint64_t now);

  /// DRC-miss table walk: reads the translation-table line directly from
  /// the unified L2 (missing to DRAM), bypassing the L1s.
  AccessResult table_read(uint32_t addr, uint64_t now);

  [[nodiscard]] const Cache& il1() const { return il1_; }
  [[nodiscard]] const Cache& dl1() const { return dl1_; }
  /// The private L2 and DRAM: private-L2 mode only
  /// (std::bad_optional_access with a shared port).
  [[nodiscard]] const Cache& l2() const { return l2_.value(); }
  [[nodiscard]] Tlb& itlb() { return itlb_; }
  [[nodiscard]] Tlb& dtlb() { return dtlb_; }
  [[nodiscard]] const Tlb& itlb() const { return itlb_; }
  [[nodiscard]] const Tlb& dtlb() const { return dtlb_; }
  [[nodiscard]] const dram::Dram& dram() const { return dram_.value(); }
  [[nodiscard]] const L2PressureStats& l2_pressure() const { return pressure_; }
  [[nodiscard]] const PrefetcherStats& prefetch_stats() const {
    return iprefetch_.stats();
  }
  [[nodiscard]] const MemHierConfig& config() const { return config_; }

  /// Binds the whole hierarchy into `scope`: il1/dl1/itlb/dtlb sub-scopes
  /// always; l2/dram only in private-L2 mode (in fleet mode that traffic
  /// lives in the shared cache's own scope); plus the L2 pressure
  /// breakdown and the prefetcher counter.
  void register_stats(const telemetry::Scope& scope) const;

  /// Checkpoint support: every cache/TLB/DRAM component it owns plus the
  /// asid — the asid matters because a restored kernel skips the
  /// re-install that would otherwise call set_asid().
  void state(binary::StateIo& io);

 private:
  /// Read through L2 (filling it), returning latency beyond the L2 probe.
  AccessResult l2_read(uint32_t addr, uint64_t now, L2Source source);
  void l2_writeback(uint32_t addr, uint64_t now);

  MemHierConfig config_;
  SharedL2Port* shared_ = nullptr;
  uint32_t asid_ = 0;
  Cache il1_;
  Cache dl1_;
  std::optional<Cache> l2_;  // private-L2 mode only, as is dram_
  NextLinePrefetcher iprefetch_;
  Tlb itlb_;
  Tlb dtlb_;
  std::optional<dram::Dram> dram_;
  L2PressureStats pressure_;
};

}  // namespace vcfr::cache
