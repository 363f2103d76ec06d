// Flight recorder: a bounded, deterministic journal of kernel-level
// lifecycle events (spawns, faults, watchdog/budget kills, restarts,
// re-randomization epochs, tenant-down verdicts), each stamped with the
// simulated cycle and — when one is in flight — the request id it hit.
//
// The journal answers "what happened right before this tenant died?"
// without replaying the run: the kernel logs as it goes, the ring keeps
// the most recent `capacity` entries (oldest dropped, counted), and the
// CLI dumps the JSONL post-mortem when a tenant goes down or
// --journal-out is set. Entries carry only simulated state, so
// same-seed runs produce byte-identical journals.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vcfr::telemetry {

enum class JournalKind : uint8_t {
  kSpawn,        // process admitted (arg = home core; detail = workload)
  kFault,        // typed trap raised (detail = fault kind)
  kWatchdog,     // watchdog kill (arg = life instructions at the kill)
  kBudget,       // instruction budget exhausted (arg = total instructions)
  kRestart,      // kernel restarted the process (arg = restart count)
  kRerandEpoch,  // live re-randomization epoch bump (arg = regions patched)
  kTenantDown,   // tenant unrecoverable (arg = queued requests dropped)
  kCheckpoint,   // fleet state serialized (arg = scheduler round)
  kRestore,      // run resumed from a checkpoint (arg = scheduler round)
  kRerandForced, // forced-quiescence re-rand: the deferral cap expired and
                 // the kernel re-randomized around pinned registers via
                 // alias translation entries (arg = deferral streak broken)
  kLeak,         // taint sink fired: a randomized-layout secret reached
                 // program output (arg = propagation depth; detail =
                 // origin/rpc/epoch/sink provenance)
};

[[nodiscard]] const char* journal_kind_name(JournalKind kind);

struct JournalEntry {
  uint64_t cycle = 0;  // owning core's simulated cycle
  JournalKind kind = JournalKind::kSpawn;
  uint32_t pid = 0;
  int64_t req = -1;    // in-flight request id, -1 = none
  uint64_t arg = 0;    // kind-specific detail (see JournalKind)
  std::string detail;  // optional human string (workload, fault kind)

  bool operator==(const JournalEntry&) const = default;
};

class Journal {
 public:
  explicit Journal(size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void log(JournalEntry entry);

  /// Retained entries, oldest first.
  [[nodiscard]] std::vector<JournalEntry> entries() const;
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

  /// All-time per-kind totals (counts entries the ring already evicted).
  [[nodiscard]] std::map<std::string, uint64_t> counts() const;

  /// One JSON object per line, fixed key order
  /// {"cycle","kind","pid"[,"req"],"arg"[,"detail"]}, oldest first.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  size_t capacity_;
  std::vector<JournalEntry> ring_;
  size_t next_ = 0;   // slot the next entry lands in
  size_t count_ = 0;  // valid entries (<= capacity)
  uint64_t dropped_ = 0;
  std::map<std::string, uint64_t> counts_;
};

/// Reads back exactly what Journal::to_jsonl() writes: the fixed key
/// order, the kind names of journal_kind_name, and the escapes json_escape
/// emits. Throws binary::FormatError (kTruncated / kImplausible) prefixed
/// "name:line: ".
[[nodiscard]] std::vector<JournalEntry> read_jsonl(std::string_view text,
                                                   const std::string& name);

}  // namespace vcfr::telemetry
