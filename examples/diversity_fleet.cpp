// Software-diversity fleet study (§V-C "a common practice ... is to apply
// regular re-randomization", and the N-variant deployments of §VIII).
//
// Randomizes one binary N times with independent seeds and measures, over
// the fleet:
//   * placement overlap between variants (how much two randomized images
//     agree on any instruction's location — should be ~0);
//   * the entropy of a single instruction's location;
//   * the attacker's hit probability: the chance that an address learned
//     from one variant still names an instruction start in another (the
//     "outdated tables" argument of §V-C);
//   * gadget survival: only the failover set survives in *every* variant.
//
// The variants are spawned as real processes of the OS/fleet runtime
// (os::Kernel) — the same per-process tables the scheduler installs and
// flushes at context switches are what this study inspects.
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "gadget/scanner.hpp"
#include "os/kernel.hpp"
#include "workloads/suite.hpp"

int main() {
  using namespace vcfr;
  constexpr int kVariants = 8;

  const binary::Image base = workloads::make("xalan", 0);
  std::printf("fleet of %d independently randomized variants of '%s' "
              "(%zu code bytes)\n\n",
              kVariants, base.name.c_str(), base.code.size());

  os::Kernel kernel(os::KernelConfig{});
  for (int v = 0; v < kVariants; ++v) {
    os::ProcessConfig pc;
    pc.workload = "xalan";
    pc.scale = 0;
    pc.seed = 0x9e3779b97f4a7c15ull * (v + 1);
    kernel.spawn(pc);
  }
  // The kernel's per-process randomization state, without running anyone.
  std::vector<const binary::Image*> fleet;
  fleet.reserve(kVariants);
  for (int v = 0; v < kVariants; ++v) {
    fleet.push_back(&kernel.randomization(v));
  }

  // --- placement overlap -----------------------------------------------------
  double total_pairs = 0, same_placement = 0;
  for (int a = 0; a < kVariants; ++a) {
    for (int b = a + 1; b < kVariants; ++b) {
      for (const auto& [orig, addr] : fleet[a]->tables.rand.entries()) {
        if (const uint32_t* other = fleet[b]->tables.rand.lookup(orig)) {
          ++total_pairs;
          if (*other == addr) ++same_placement;
        }
      }
    }
  }
  std::printf("placement overlap between variant pairs: %.4f%% "
              "(%g of %g instruction pairs)\n",
              100.0 * same_placement / total_pairs, same_placement,
              total_pairs);

  // --- per-instruction location entropy --------------------------------------
  const auto& first = *fleet.front();
  const double slots = first.rand_size / 64.0;  // one per 64B slot
  const double entropy_bits = std::log2(slots * 59.0);  // slot * jitter
  std::printf("randomized-space entropy per instruction: ~%.1f bits "
              "(region 0x%x bytes)\n",
              entropy_bits, first.rand_size);

  // --- cross-variant address knowledge ----------------------------------------
  // The attacker learns variant 0's layout (say, by a leak), then the fleet
  // re-randomizes: how many of those addresses still hit an instruction?
  uint64_t still_instr = 0, probes = 0;
  std::unordered_set<uint32_t> v1_starts;
  for (const auto& [orig, addr] : fleet[1]->tables.rand.entries()) {
    v1_starts.insert(addr);
  }
  for (const auto& [orig, addr] : fleet[0]->tables.rand.entries()) {
    ++probes;
    if (v1_starts.contains(addr)) ++still_instr;
  }
  std::printf("addresses leaked from variant 0 that still name an "
              "instruction start in variant 1: %llu of %llu (%.3f%%)\n",
              static_cast<unsigned long long>(still_instr),
              static_cast<unsigned long long>(probes),
              100.0 * still_instr / probes);

  // --- fleet-wide gadget survival ---------------------------------------------
  const auto scan0 = gadget::scan(base);
  size_t min_survivors = SIZE_MAX;
  std::unordered_set<uint32_t> common;
  bool first_variant = true;
  for (const binary::Image* image : fleet) {
    const auto sv =
        gadget::survival_after_randomization(scan0, image->tables);
    min_survivors = std::min(min_survivors, sv.after);
    std::unordered_set<uint32_t> here;
    for (const auto& g : sv.surviving) here.insert(g.addr);
    if (first_variant) {
      common = std::move(here);
      first_variant = false;
    } else {
      std::erase_if(common, [&](uint32_t a) { return !here.contains(a); });
    }
  }
  std::printf("gadgets in the original binary: %zu\n", scan0.gadgets.size());
  std::printf("gadgets surviving in every variant (the failover set): %zu\n",
              common.size());
  std::printf("\nConclusion: re-randomization invalidates leaked layouts; "
              "only the analysis-bounded failover set persists.\n");
  return 0;
}
