// Process-context management for randomization state (§IV-B / §IV-D).
//
// The paper stores the randomization/de-randomization tables "in the
// kernel as part of the process context and protected from illegitimate
// accesses", and notes that "at system level, the main impact is to extend
// application context to include the de-randomization/randomization
// tables". This module models that OS-visible surface:
//
//   * each process carries a pointer to its (kernel-owned) tables and the
//     placement seed epoch;
//   * a context switch installs the new tables and flushes the DRC —
//     cached translations are per-process secrets, and letting them
//     linger would leak one process's layout to another;
//   * re-randomization (§V-C) bumps the epoch: the tables are re-placed
//     in place and every cached translation is invalidated.
#pragma once

#include <cstdint>
#include <string>

#include "binary/image.hpp"
#include "core/drc.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::core {

/// Kernel-side per-process randomization state.
struct ProcessContext {
  uint32_t pid = 0;
  std::string name;
  /// Kernel-owned translation tables (never user-visible; the data TLB
  /// marks their pages invisible). Must outlive the context.
  const binary::TranslationTables* tables = nullptr;
  /// Re-randomization epoch: bumped each time the process is re-imaged
  /// with a fresh seed.
  uint64_t epoch = 0;
};

struct ContextStats {
  uint64_t switches = 0;
  uint64_t entries_flushed = 0;
  uint64_t bitmap_entries_flushed = 0;
  uint64_t rerandomizations = 0;
};

class RetBitmapCache;

/// Models the kernel's handling of the per-process micro-architectural
/// randomization state (DRC + return-bitmap cache) across context
/// switches.
class ContextManager {
 public:
  explicit ContextManager(Drc& drc) : drc_(drc) {}

  /// Also flush this return-bitmap cache on every switch/re-randomization
  /// (its fragments describe the outgoing process's stack, §IV-C).
  void attach_ret_bitmap(RetBitmapCache* bitmap) { bitmap_ = bitmap; }

  /// Installs `next` as the running context. Flushes the DRC (and any
  /// attached bitmap cache) unless the context is unchanged (same pid and
  /// epoch). Returns the number of translations lost to the flush.
  uint32_t switch_to(const ProcessContext& next);

  /// Registers a re-randomization of the *current* process: its tables
  /// were patched in place (the context keeps pointing at them), and the
  /// epoch bumps. Legacy (`epoch_tags` false): mandatory flush — the old
  /// translations are dead. Epoch-tagged (`epoch_tags` true): no flush;
  /// the DRC epoch is bumped and stale lines revalidate lazily against the
  /// patched tables on their next lookup, and the bitmap cache keeps its
  /// fragments (stack slot addresses are epoch-invariant). Returns the
  /// number of translations lost (0 when tagged).
  uint32_t rerandomize_current(bool epoch_tags = false);

  [[nodiscard]] const ProcessContext& current() const { return current_; }
  [[nodiscard]] const ContextStats& stats() const { return stats_; }

  /// Checkpoint support. The tables pointer is process-owned and must be
  /// rebound by the kernel after the owning process is restored — a
  /// restored context deliberately skips the flush a switch_to() would
  /// trigger (the DRC state was checkpointed warm).
  void state(binary::StateIo& io);
  void rebind_tables(const binary::TranslationTables* tables) {
    current_.tables = tables;
    // If epoch revalidation was armed at checkpoint time, the restored
    // process's reallocated tables are the live revalidation source.
    drc_.rebind_reval(tables);
  }

 private:
  Drc& drc_;
  RetBitmapCache* bitmap_ = nullptr;
  ProcessContext current_;
  ContextStats stats_;
};

}  // namespace vcfr::core
