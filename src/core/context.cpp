#include "core/context.hpp"

#include "binary/state_io.hpp"
#include "core/ret_bitmap.hpp"

namespace vcfr::core {

uint32_t ContextManager::switch_to(const ProcessContext& next) {
  if (next.pid == current_.pid && next.epoch == current_.epoch &&
      current_.tables != nullptr) {
    return 0;  // resuming the same image: cached translations stay valid
  }
  ++stats_.switches;
  const uint32_t flushed = drc_.flush();
  stats_.entries_flushed += flushed;
  if (bitmap_) stats_.bitmap_entries_flushed += bitmap_->flush();
  current_ = next;
  return flushed;
}

uint32_t ContextManager::rerandomize_current(bool epoch_tags) {
  ++stats_.rerandomizations;
  ++current_.epoch;
  if (epoch_tags) {
    // Continuous re-rand: keep warm state. DRC lines revalidate lazily
    // against the patched tables; bitmap fragments stay valid because the
    // marked slot *addresses* did not move (only the values, which the
    // firing rewrote in place).
    drc_.bump_epoch(current_.tables);
    if (bitmap_) bitmap_->note_rerand();
    return 0;
  }
  const uint32_t flushed = drc_.flush();
  stats_.entries_flushed += flushed;
  if (bitmap_) stats_.bitmap_entries_flushed += bitmap_->flush();
  return flushed;
}

void ContextManager::state(binary::StateIo& io) {
  io.u64(stats_.switches);
  io.u64(stats_.entries_flushed);
  io.u64(stats_.bitmap_entries_flushed);
  io.u64(stats_.rerandomizations);
  io.u32(current_.pid);
  io.str(current_.name);
  io.u64(current_.epoch);
  // The flag marks whether a context was installed; the actual pointer is
  // rebound by the kernel once the owning process exists again. Keeping
  // tables_ null until then makes a missed rebind fail the switch_to()
  // same-context test instead of dereferencing a stale pointer.
  bool installed = current_.tables != nullptr;
  io.b(installed);
  if (io.loading()) current_.tables = nullptr;
}

}  // namespace vcfr::core
