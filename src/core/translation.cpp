#include "core/translation.hpp"

namespace vcfr::core {

TranslationWalker::TranslationWalker(const binary::TranslationTables& tables,
                                     cache::MemHier& mem)
    : tables_(tables), mem_(mem) {
  if (tables.table_bytes != 0) {
    mem_.dtlb().set_invisible(tables.table_base, tables.table_bytes);
  }
}

WalkResult TranslationWalker::walk(uint32_t key, bool derand, uint64_t now) {
  ++walks_;
  WalkResult result;
  // Timing: one line read of the entry's address through the unified L2.
  const cache::AccessResult mem_access =
      mem_.table_read(binary::table_entry_addr(tables_, key), now);
  result.latency = mem_access.latency;
  result.l2_hit = mem_access.l2_hit || mem_access.l1_hit;

  // Functional translation always comes from the exact tables; only the
  // entry's address is modelled, to give the walk a line to fetch.
  if (derand) {
    result.value.translation = tables_.to_original(key);
    result.value.randomized_tag = tables_.is_randomized_addr(key);
  } else {
    result.value.translation = tables_.to_randomized(key);
    result.value.randomized_tag = result.value.translation != key;
  }
  return result;
}

}  // namespace vcfr::core
