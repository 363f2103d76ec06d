// Table-walk layer between the DRC and the memory hierarchy (§IV-B).
//
// The randomization/de-randomization tables occupy a dedicated, user-
// invisible region of the simulated address space; only its addresses are
// modelled, the contents are the image's maps. A DRC miss reads the
// entry's line through the unified L2 (falling through to DRAM) — "such
// design eliminates the necessity of trapping into the kernel when entries
// of the DRC lookup buffer need to be updated".
#pragma once

#include <cstdint>

#include "binary/image.hpp"
#include "binary/loader.hpp"
#include "cache/memhier.hpp"
#include "core/drc.hpp"

namespace vcfr::core {

struct WalkResult {
  DrcEntryValue value;
  uint32_t latency = 0;  // cycles spent in the L2/DRAM walk
  bool l2_hit = false;
};

class TranslationWalker {
 public:
  /// `tables` must outlive the walker. The walker registers the table pages
  /// as user-invisible in the data TLB (the paper's visibility-bit
  /// protection, §IV-B).
  TranslationWalker(const binary::TranslationTables& tables,
                    cache::MemHier& mem);

  /// Resolves one translation with its memory-walk cost. `derand` selects
  /// direction (true: randomized -> original). Identity translations are
  /// produced for un-randomized addresses, with the randomized tag clear.
  WalkResult walk(uint32_t key, bool derand, uint64_t now);

  [[nodiscard]] uint64_t walks() const { return walks_; }

 private:
  const binary::TranslationTables& tables_;
  cache::MemHier& mem_;
  uint64_t walks_ = 0;
};

}  // namespace vcfr::core
