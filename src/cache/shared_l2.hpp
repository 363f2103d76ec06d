// Shared last-level cache + DRAM backend for the multi-core fleet runtime.
//
// In the single-process simulator every MemHier owns a private L2 and DRAM.
// The OS/fleet runtime (src/os/) instead gives each core private IL1/DL1
// (and a private DRC) while all cores contend on one L2 and one DRAM — the
// configuration the paper's §IV-B cost argument assumes when it says DRC
// table walks "share the unified L2" with instruction fetch.
//
// Determinism under host-thread parallelism is achieved with a two-phase
// round protocol (in the spirit of quantum-synchronized parallel
// simulators such as Graphite/Sniper, but exactly repeatable):
//
//   * execute phase (parallel): each core runs one scheduler time slice.
//     L2-level requests are *probed* against the tag state frozen at the
//     start of the round (read-only, hence safe concurrently) and appended
//     to a per-core log; the probe's estimated latency is what the core's
//     pipeline observes during the slice.
//   * commit phase (serial): the logs are merged in (cycle, core, seq)
//     order and replayed into the real tag array and the DRAM model. The
//     replay produces the authoritative hit/miss statistics plus a
//     per-core penalty — port queueing delay and any latency the estimate
//     under-charged — which the kernel adds to the core's clock before the
//     next round.
//
// Lines are tagged with the owning process's address-space id, so two
// processes loaded at identical virtual addresses never alias (their
// backing physical pages are distinct); the asid also perturbs the set
// index and the DRAM row bits the way distinct physical pages would.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cache/cache.hpp"
#include "cache/memhier.hpp"
#include "dram/dram.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::cache {

struct SharedL2Config {
  CacheConfig l2{.name = "SL2",
                 .size_bytes = 512 * 1024,
                 .assoc = 8,
                 .line_bytes = 64,
                 .hit_latency = 12};
  dram::DramConfig dram{};
  /// Execute-phase estimate of the DRAM portion of an L2 miss (the commit
  /// phase reconciles against the real DRAM model).
  uint32_t est_miss_latency = 40;
  /// L2 port occupancy per request (queueing-model service time).
  uint32_t service_cycles = 1;
  /// Ignored: perfbench/ still assigns it; the next benchmark change drops it.
  uint32_t commit_shards = 8;
};

struct SharedL2Stats {
  CacheStats l2;
  L2PressureStats pressure;
  /// Cycles demand requests spent queued behind the busy L2 port.
  uint64_t queue_delay_cycles = 0;
  uint64_t commits = 0;
};

/// One deferred L2-level request from a core's execute phase.
struct L2Request {
  uint64_t now = 0;       // core cycle at which the request was issued
  uint32_t line = 0;      // line-aligned address in the process's space
  uint32_t asid = 0;      // owning process (address-space id)
  L2Source source = L2Source::kIl1;
  bool write = false;     // dirty L1 writeback (never stalls the core)
  uint32_t est_latency = 0;
};

class SharedL2;

/// Per-core adapter handed to that core's MemHier. During the execute
/// phase it probes the frozen shared state and logs the request; only the
/// owning core touches it, so no locking is needed.
class SharedL2Port {
 public:
  AccessResult read(uint32_t line, uint32_t asid, uint64_t now,
                    L2Source source);
  void writeback(uint32_t line, uint32_t asid, uint64_t now);

 private:
  friend class SharedL2;
  SharedL2* owner_ = nullptr;
  uint32_t core_ = 0;
  std::vector<L2Request> log_;
};

class SharedL2 {
 public:
  SharedL2(const SharedL2Config& config, uint32_t cores);

  [[nodiscard]] SharedL2Port& port(uint32_t core) { return ports_[core]; }
  [[nodiscard]] uint32_t cores() const {
    return static_cast<uint32_t>(ports_.size());
  }

  /// Commit phase: replays every port's log in deterministic merged order,
  /// clears the logs, and returns the penalty cycles each core must add to
  /// its clock (queue delay + under-estimated miss latency).
  ///
  /// With `blame` non-null it is resized to one map per core and filled
  /// with the same penalty cycles keyed by the address space responsible:
  /// queueing delay is blamed on the asid whose request holds the port,
  /// under-estimated miss latency on the requester itself (its own miss
  /// cost, merely discovered late). Each map's values sum exactly to the
  /// core's penalty — the fleet profiler's contention attribution.
  std::vector<uint64_t> commit_round(
      std::vector<std::map<uint32_t, uint64_t>>* blame = nullptr);

  /// Read-only probe against the committed state (execute phase).
  [[nodiscard]] bool probe(uint32_t asid, uint32_t line) const;

  [[nodiscard]] const SharedL2Config& config() const { return config_; }
  [[nodiscard]] const SharedL2Stats& stats() const { return stats_; }
  [[nodiscard]] const dram::Dram& dram() const { return dram_; }
  /// Demand-read counts per address space (fleet "L2 pressure by tenant").
  [[nodiscard]] const std::map<uint32_t, uint64_t>& reads_by_asid() const {
    return reads_by_asid_;
  }

  /// Binds the shared cache + its DRAM channel into `scope`.
  void register_stats(const telemetry::Scope& scope) const;

  /// Checkpoint support. Port logs are empty between rounds (commit
  /// clears them), so only the committed tag/DRAM/stat state is written.
  void state(binary::StateIo& io);

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    uint64_t key = 0;  // (asid << 32) | line address
    uint64_t lru = 0;
  };

  [[nodiscard]] uint32_t set_index(uint32_t asid, uint32_t line) const;
  [[nodiscard]] static uint64_t key_of(uint32_t asid, uint32_t line) {
    return (static_cast<uint64_t>(asid) << 32) | line;
  }
  /// Distinct processes occupy distinct physical pages: perturb the bits
  /// above the DRAM row offset so row-buffer behaviour decorrelates.
  [[nodiscard]] uint32_t fold_phys(uint32_t asid, uint32_t line) const;

  /// Replays one request; returns its authoritative latency (reads only).
  uint32_t apply(const L2Request& request, uint64_t start);

  SharedL2Config config_;
  uint32_t num_sets_ = 0;
  uint32_t line_shift_ = 0;
  std::vector<Line> lines_;
  uint64_t tick_ = 0;
  /// Monotonic commit-replay clock: the DRAM model's bank-busy horizons
  /// are absolute, so replays must never step time backwards even when a
  /// lagging core's requests carry older cycle numbers.
  uint64_t serve_now_ = 0;
  dram::Dram dram_;
  SharedL2Stats stats_;
  std::map<uint32_t, uint64_t> reads_by_asid_;
  std::vector<SharedL2Port> ports_;
};

}  // namespace vcfr::cache
