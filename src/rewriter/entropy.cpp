#include "rewriter/entropy.hpp"

#include <cmath>

namespace vcfr::rewriter {

EntropyReport analyze_entropy(const RandomizeResult& result,
                              const RandomizeOptions& options) {
  EntropyReport report;
  report.randomized_instructions = result.vcfr.tables.rand.size();
  report.failover_instructions = result.program.analysis.unrandomized.size();

  double positions = 1.0;
  if (options.placement == PlacementPolicy::kFullSpread) {
    // An instruction lands in one of `slots` line-sized slots, at one of
    // (slot_bytes - len + 1) byte offsets inside it; use the mean
    // instruction length of 4 for the jitter term.
    const double slots =
        static_cast<double>(result.vcfr.rand_size) / options.slot_bytes;
    const double jitter = options.slot_bytes - 4 + 1;
    positions = slots * jitter;
  } else {
    // Page-confined: anywhere inside its dedicated 4 KiB page.
    positions = 4096.0;
  }
  if (positions < 1.0) positions = 1.0;
  report.bits_per_instruction = std::log2(positions);
  report.single_guess_probability = 1.0 / positions;
  report.expected_attempts = positions;
  return report;
}

}  // namespace vcfr::rewriter
