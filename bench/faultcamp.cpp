// BENCH_faultcamp.json: the pinned reference dependability campaign
// (2 workloads x 3 layouts x 5 sites x 2 trials, seed 7).
//
// The configuration is pinned, not flag-driven: the committed file must
// mean the same thing on every machine, and any change to the injector's
// selection streams, the trap model, or the campaign classifier shows up
// as a diff here.
#include "fault/campaign.hpp"
#include "snapshot.hpp"

namespace vcfr::bench {

std::string faultcamp_snapshot() {
  fault::CampaignConfig config;
  config.workloads = {"bzip2", "libquantum"};
  config.scale = 0;
  config.trials = 2;
  config.seed = 7;
  config.max_instructions = 2'000'000;

  const fault::CampaignReport report = fault::run_campaign(config);

  // The snapshot doubles as the acceptance gate for the paper's
  // dependability claim: VCFR must detect strictly more of the applied
  // corruptions than the native layout.
  const auto* native = report.layout_counts("native");
  const auto* vcfr = report.layout_counts("vcfr");
  if (native == nullptr || vcfr == nullptr ||
      vcfr->detection_rate() <= native->detection_rate()) {
    gate_failed("vcfr detection rate not above native");
  }
  return report.to_json();
}

}  // namespace vcfr::bench
