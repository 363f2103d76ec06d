// Front-end predictors: 2-level gshare direction predictor, branch target
// buffer, and return address stack (§VI-C).
//
// Under VCFR, prediction operates in the *original* (de-randomized) address
// space (§IV-D): the BTB stores both the randomized target (to verify the
// resolved instruction's encoded target without a DRC access) and the
// original target (to steer fetch); the RAS stores (randomized, original)
// return-address pairs pushed by calls. A correctly predicted transfer
// therefore needs no DRC lookup — the key property behind the paper's 2.1%
// overhead claim.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::sim {

/// An address expressed in both instruction spaces.
struct AddrPair {
  uint32_t rand = 0;  // randomized (architectural) space
  uint32_t orig = 0;  // original (fetch) space
};

struct BpredConfig {
  uint32_t gshare_history_bits = 12;
  uint32_t gshare_table_bits = 12;  // 4096 2-bit counters
  uint32_t btb_sets = 128;
  uint32_t btb_assoc = 4;
  uint32_t ras_entries = 16;
};

struct BpredStats {
  uint64_t cond_predictions = 0;
  uint64_t cond_mispredicts = 0;
  uint64_t btb_lookups = 0;
  uint64_t btb_hits = 0;
  uint64_t ras_pops = 0;
  uint64_t ras_mispredicts = 0;

  [[nodiscard]] double cond_accuracy() const {
    return cond_predictions == 0
               ? 1.0
               : 1.0 - static_cast<double>(cond_mispredicts) /
                           static_cast<double>(cond_predictions);
  }
};

class Gshare {
 public:
  explicit Gshare(const BpredConfig& config);
  [[nodiscard]] bool predict(uint32_t pc) const;
  void update(uint32_t pc, bool taken);

  void state(binary::StateIo& io);

 private:
  [[nodiscard]] uint32_t index(uint32_t pc) const;
  uint32_t history_mask_;
  uint32_t table_mask_;
  uint32_t history_ = 0;
  std::vector<uint8_t> counters_;  // 2-bit saturating
};

class Btb {
 public:
  explicit Btb(const BpredConfig& config);
  [[nodiscard]] std::optional<AddrPair> lookup(uint32_t pc);
  void update(uint32_t pc, AddrPair target);

  void state(binary::StateIo& io);

 private:
  struct Entry {
    bool valid = false;
    uint32_t tag = 0;
    AddrPair target;
    uint64_t lru = 0;
  };
  uint32_t sets_;
  uint32_t assoc_;
  std::vector<Entry> entries_;
  uint64_t tick_ = 0;
};

class Ras {
 public:
  explicit Ras(const BpredConfig& config) : capacity_(config.ras_entries) {}
  void push(AddrPair pair);
  [[nodiscard]] std::optional<AddrPair> pop();

  void state(binary::StateIo& io);

 private:
  uint32_t capacity_;
  std::vector<AddrPair> stack_;
};

}  // namespace vcfr::sim
