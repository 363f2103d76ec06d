// BENCH_rerand.json: continuous re-randomization under load, three
// experiments in one committed file (docs/DEPENDABILITY.md).
//
//   * "sweep"   — a 4-tenant fleet re-randomized every {64, 16, 4}
//     slices under both rebuild modes. Legacy full rebuild patches every
//     table/code/stack entry and flushes the warm DRC/bitmap state;
//     incremental re-places 25% of the code pages per firing with
//     epoch-tagged (lazy) invalidation. With a per-entry rewrite cost the
//     IPC degradation at the densest period MUST be measurably smaller
//     for incremental — the snapshot gates on that.
//   * "on_trap" — seeded corruptions against tenants whose restart
//     policy is `never`: under --rerand-on-trap every attack-signal trap
//     buys the victim a fresh placement (recovered), under a purely
//     periodic policy the victim stays down. Recovered counts for both
//     policies are committed; on-trap must recover at least as many.
//   * "serve"   — p99 request latency with re-randomization off /
//     full / incremental while serving (the moving target keeps moving
//     under traffic).
//
// The configuration is pinned — the file is committed at the repo root
// and must mean the same thing everywhere.
#include <string>
#include <vector>

#include "os/kernel.hpp"
#include "serve/server.hpp"
#include "snapshot.hpp"
#include "telemetry/json_writer.hpp"

namespace vcfr::bench {
namespace {

constexpr uint32_t kCores = 4;
constexpr uint32_t kTenants = 4;
constexpr uint64_t kSlice = 2'000;
constexpr uint64_t kMaxInstr = 120'000;
constexpr uint64_t kSeed = 7;
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;
/// Victim-core stall per patched entry: what makes rebuild work visible
/// in IPC (the lever the incremental path is built to shrink).
constexpr uint64_t kCostPerEntry = 2;

const char* kMix[] = {"bzip2", "gcc", "mcf", "hmmer"};

struct FleetPoint {
  uint32_t period = 0;  // slices between firings; 0 = re-rand off
  std::string mode;     // "off" | "full" | "incremental"
  uint64_t fleet_cycles = 0;
  uint64_t fleet_instructions = 0;
  double fleet_ipc = 0.0;
  double ipc_degradation = 0.0;  // vs the re-rand-off baseline
  uint64_t rerandomizations = 0;
  uint64_t deferred = 0;
  uint64_t forced = 0;
  uint64_t regions_patched = 0;
  uint64_t entries_patched = 0;
  uint64_t drc_flush_losses = 0;
};

FleetPoint run_fleet_point(uint32_t period, bool incremental) {
  os::KernelConfig kc;
  kc.cores = kCores;
  kc.sched.slice_instructions = kSlice;
  kc.measure_isolated = false;
  kc.rerand_cost_per_entry = kCostPerEntry;
  os::Kernel kernel(kc);
  for (uint32_t i = 0; i < kTenants; ++i) {
    os::ProcessConfig pc;
    pc.workload = kMix[i % 4];
    pc.scale = 0;
    pc.seed = kSeed ^ (kSeedMix * (i + 1));
    pc.max_instructions = kMaxInstr;
    pc.rerandomize.every_slices = period;
    if (incremental) {
      pc.rerandomize.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
      pc.rerandomize.epoch_tags = true;
    }
    pc.rerandomize.max_defer = 4;
    kernel.spawn(pc);
  }
  const os::FleetReport r = kernel.run();
  FleetPoint pt;
  pt.period = period;
  pt.mode = period == 0 ? "off" : (incremental ? "incremental" : "full");
  pt.fleet_cycles = r.fleet_cycles;
  pt.fleet_instructions = r.fleet_instructions;
  pt.fleet_ipc = r.fleet_ipc;
  pt.rerandomizations = r.rerandomizations;
  pt.forced = r.rerand_forced;
  pt.regions_patched = r.rerand_regions_patched;
  pt.entries_patched = r.rerand_entries_patched;
  pt.drc_flush_losses = r.drc_entries_flushed;
  for (const auto& p : r.processes) {
    pt.deferred += p.rerandomizations_deferred;
  }
  return pt;
}

struct TrapTrial {
  std::string site;
  uint64_t inject_seed = 0;
  std::string policy;  // "periodic" | "on_trap"
  std::string victim_exit;
  uint32_t victim_restarts = 0;
  bool recovered = false;  // victim left the run cleanly halted
};

TrapTrial run_trap_trial(const std::string& site_name, fault::FaultSite site,
                         uint64_t inject_seed, bool on_trap) {
  os::KernelConfig kc;
  kc.cores = 2;
  kc.sched.slice_instructions = kSlice;
  kc.measure_isolated = false;
  os::Kernel kernel(kc);
  for (uint32_t i = 0; i < 2; ++i) {
    os::ProcessConfig pc;
    pc.workload = kMix[i % 4];
    pc.scale = 0;
    pc.seed = kSeed ^ (kSeedMix * (i + 1));
    pc.max_instructions = 400'000;  // room to halt even after a restart
    // Both policies re-randomize; only one turns traps into placements.
    // restart stays `never`: any recovery is the moving-target policy's.
    if (on_trap) {
      pc.rerandomize.on_trap = true;
      pc.rerandomize.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
      pc.rerandomize.epoch_tags = true;
    } else {
      pc.rerandomize.every_slices = 8;
    }
    if (i == 0) {
      pc.inject.site = site;
      pc.inject.at_instruction = 5'000;
      pc.inject.seed = inject_seed;
      pc.inject_enabled = true;
    }
    kernel.spawn(pc);
  }
  const os::FleetReport r = kernel.run();
  const os::ProcessReport& victim = r.processes[0];
  TrapTrial t;
  t.site = site_name;
  t.inject_seed = inject_seed;
  t.policy = on_trap ? "on_trap" : "periodic";
  t.victim_exit = victim.exit;
  t.victim_restarts = victim.restarts;
  t.recovered = victim.halted && victim.exit == "halted";
  return t;
}

struct ServePoint {
  std::string mode;  // "off" | "full" | "incremental"
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t p99_max = 0;  // worst tenant's p99, cycles
  uint64_t rounds = 0;
};

ServePoint run_serve_point(const std::string& mode) {
  serve::ServeConfig sc;
  sc.tenants = 4;
  sc.cores = 2;
  sc.duration = 100'000;
  sc.mean_interarrival = 10'000;
  sc.scale = 0;
  sc.seed = kSeed;
  sc.slice_instructions = 500;  // requests span slices -> firings under load
  sc.rerand_cost_per_entry = kCostPerEntry;
  if (mode != "off") {
    sc.rerandomize.every_slices = 2;
    sc.rerandomize.max_defer = 4;
    if (mode == "incremental") {
      sc.rerandomize.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
      sc.rerandomize.epoch_tags = true;
    }
  }
  const serve::ServeReport r = serve::run_serve(sc);
  ServePoint pt;
  pt.mode = mode;
  pt.completed = r.completed;
  pt.failed = r.failed;
  pt.rounds = r.rounds;
  for (const auto& t : r.tenants) {
    if (t.p99 > pt.p99_max) pt.p99_max = t.p99;
  }
  return pt;
}

double degradation(const FleetPoint& baseline, const FleetPoint& pt) {
  return baseline.fleet_ipc == 0.0
             ? 0.0
             : (baseline.fleet_ipc - pt.fleet_ipc) / baseline.fleet_ipc;
}

}  // namespace

std::string rerand_snapshot() {
  // -- experiment A: period x rebuild-mode sweep ---------------------------
  const FleetPoint baseline = run_fleet_point(0, false);
  std::vector<FleetPoint> sweep;
  for (const uint32_t period : {64u, 16u, 4u}) {
    for (const bool incremental : {false, true}) {
      sweep.push_back(run_fleet_point(period, incremental));
      sweep.back().ipc_degradation = degradation(baseline, sweep.back());
    }
  }
  // The whole point: at the densest period the incremental+epoch-tagged
  // path must hurt IPC measurably less than legacy full-flush rebuild.
  const FleetPoint& densest_full = sweep[sweep.size() - 2];
  const FleetPoint& densest_inc = sweep[sweep.size() - 1];
  if (densest_inc.ipc_degradation >= densest_full.ipc_degradation) {
    gate_failed(
        "incremental degradation (%.4f) not below legacy full rebuild "
        "(%.4f) at period %u",
        densest_inc.ipc_degradation, densest_full.ipc_degradation,
        densest_full.period);
  }

  // -- experiment B: on-trap vs periodic containment -----------------------
  std::vector<TrapTrial> trials;
  uint64_t recovered_on_trap = 0, recovered_periodic = 0;
  const std::pair<const char*, fault::FaultSite> sites[] = {
      {"code_byte", fault::FaultSite::kCodeByte},
      {"translation_entry", fault::FaultSite::kTranslationEntry},
      {"payload", fault::FaultSite::kPayload},
  };
  for (const auto& [name, site] : sites) {
    for (const uint64_t inject_seed : {1u, 2u, 3u}) {
      for (const bool on_trap : {false, true}) {
        trials.push_back(run_trap_trial(name, site, inject_seed, on_trap));
        (on_trap ? recovered_on_trap : recovered_periodic) +=
            trials.back().recovered;
      }
    }
  }
  if (recovered_on_trap < recovered_periodic) {
    gate_failed(
        "on-trap recovered fewer victims (%llu) than the periodic baseline "
        "(%llu)",
        static_cast<unsigned long long>(recovered_on_trap),
        static_cast<unsigned long long>(recovered_periodic));
  }

  // -- experiment C: p99 while serving -------------------------------------
  std::vector<ServePoint> serve_points;
  for (const char* mode : {"off", "full", "incremental"}) {
    serve_points.push_back(run_serve_point(mode));
  }

  telemetry::JsonWriter w;
  w.begin_object(telemetry::JsonWriter::Style::kPretty);
  w.key("bench").value("rerand");
  w.key("simulated").begin_object();
  w.key("config").begin_object();
  w.key("cores").value(uint64_t{kCores});
  w.key("tenants").value(uint64_t{kTenants});
  w.key("slice").value(kSlice);
  w.key("scale").value(uint64_t{0});
  w.key("seed").value(kSeed);
  w.key("max_instructions").value(kMaxInstr);
  w.key("rerand_cost_per_entry").value(kCostPerEntry);
  w.key("region_percent").value(uint64_t{25});
  w.key("max_defer").value(uint64_t{4});
  w.end_object();
  w.key("baseline").begin_object();
  w.key("fleet_cycles").value(baseline.fleet_cycles);
  w.key("fleet_instructions").value(baseline.fleet_instructions);
  w.key("fleet_ipc").raw_value(telemetry::json_double(baseline.fleet_ipc));
  w.end_object();
  w.key("sweep").begin_array();
  for (const FleetPoint& pt : sweep) {
    w.begin_object();
    w.key("period").value(uint64_t{pt.period});
    w.key("mode").value(pt.mode);
    w.key("fleet_cycles").value(pt.fleet_cycles);
    w.key("fleet_ipc").raw_value(telemetry::json_double(pt.fleet_ipc));
    w.key("ipc_degradation")
        .raw_value(telemetry::json_double(pt.ipc_degradation));
    w.key("rerandomizations").value(pt.rerandomizations);
    w.key("deferred").value(pt.deferred);
    w.key("forced").value(pt.forced);
    w.key("regions_patched").value(pt.regions_patched);
    w.key("entries_patched").value(pt.entries_patched);
    w.key("drc_flush_losses").value(pt.drc_flush_losses);
    w.end_object();
  }
  w.end_array();
  w.key("incremental_beats_full_at_densest").value(true);
  w.key("on_trap").begin_object();
  w.key("trials").begin_array();
  for (const TrapTrial& t : trials) {
    w.begin_object();
    w.key("site").value(t.site);
    w.key("inject_seed").value(t.inject_seed);
    w.key("policy").value(t.policy);
    w.key("victim_exit").value(t.victim_exit);
    w.key("victim_restarts").value(uint64_t{t.victim_restarts});
    w.key("recovered").value(t.recovered);
    w.end_object();
  }
  w.end_array();
  w.key("recovered_on_trap").value(recovered_on_trap);
  w.key("recovered_periodic").value(recovered_periodic);
  w.key("on_trap_at_least_periodic").value(true);
  w.end_object();
  w.key("serve").begin_array();
  for (const ServePoint& pt : serve_points) {
    w.begin_object();
    w.key("mode").value(pt.mode);
    w.key("rounds").value(pt.rounds);
    w.key("completed").value(pt.completed);
    w.key("failed").value(pt.failed);
    w.key("p99_max").value(pt.p99_max);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace vcfr::bench
