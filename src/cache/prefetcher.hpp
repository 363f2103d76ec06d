// Hardware instruction prefetcher (next-line / sequential-stream), the kind
// whose efficiency Figure 3 shows collapsing under naive hardware ILR.
#pragma once

#include <cstdint>
#include <optional>

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::cache {

struct PrefetcherConfig {
  bool enabled = true;
  /// How many sequential next lines to prefetch on a demand access.
  uint32_t degree = 1;
};

struct PrefetcherStats {
  uint64_t issued = 0;
};

/// Stateless next-line policy: on a demand access to line L it proposes
/// lines L+1..L+degree. MemHier filters already-resident lines and performs
/// the fills.
class NextLinePrefetcher {
 public:
  explicit NextLinePrefetcher(const PrefetcherConfig& config)
      : config_(config) {}

  /// Returns the k-th (0-based) prefetch candidate for a demand access to
  /// `line_addr`, or nullopt when k >= degree or prefetching is disabled.
  [[nodiscard]] std::optional<uint32_t> candidate(uint32_t line_addr,
                                                  uint32_t line_bytes,
                                                  uint32_t k) const {
    if (!config_.enabled || k >= config_.degree) return std::nullopt;
    return line_addr + (k + 1) * line_bytes;
  }

  void note_issued() { ++stats_.issued; }

  /// Checkpoint support: the issued counter is the prefetcher's only
  /// state (the policy itself is stateless).
  void state(binary::StateIo& io);

  [[nodiscard]] const PrefetcherConfig& config() const { return config_; }
  [[nodiscard]] const PrefetcherStats& stats() const { return stats_; }

 private:
  PrefetcherConfig config_;
  PrefetcherStats stats_;
};

}  // namespace vcfr::cache
