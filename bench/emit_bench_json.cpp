// BENCH_fleet.json and BENCH_hotpath.json: the reference fleet and the
// emulator hot path.
//
// BENCH_fleet.json is the CI smoke fleet (4 workloads on 2 cores, short
// slices, smoke scale, seed 7). BENCH_hotpath.json pins the hot path's
// deterministic side: the instruction count and decode-cache
// hit/miss/invalidation counters of the VCFR image of gcc, cache-on/off
// equivalence, and pool dispatch counts of the reference fleet and of a
// 4-core fleet under 1/2/4 pool workers. The sweep is a gate: simulated
// results must not depend on host parallelism.
//
// The configurations are pinned: the files are committed at the repo
// root and must mean the same thing on every machine.
#include <vector>

#include "emu/emulator.hpp"
#include "os/kernel.hpp"
#include "rewriter/randomizer.hpp"
#include "snapshot.hpp"
#include "telemetry/json_writer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::bench {
namespace {

const char* kMix[] = {"bzip2", "gcc", "mcf", "hmmer"};

/// One emulator run of `image` with the decode cache toggled; returns the
/// result and (out-param) the cache counters of this run.
emu::RunResult run_once(const binary::Image& image, bool cache_on,
                        emu::DecodeCacheStats* cache_stats = nullptr) {
  binary::Memory mem;
  binary::load(image, mem);
  emu::Emulator emulator(image, mem);
  emulator.set_decode_cache(cache_on);
  emu::RunResult result = emulator.run();
  if (cache_stats != nullptr) *cache_stats = emulator.decode_cache_stats();
  return result;
}

bool results_match(const emu::RunResult& a, const emu::RunResult& b) {
  return a.halted == b.halted && a.error == b.error && a.output == b.output &&
         a.mem_checksum == b.mem_checksum &&
         a.stats.instructions == b.stats.instructions &&
         a.final_state.pc == b.final_state.pc &&
         a.final_state.regs == b.final_state.regs;
}

struct ReferenceFleet {
  os::FleetReport report;
  uint64_t pool_rounds = 0;
  uint32_t pool_workers = 0;
};

ReferenceFleet run_reference_fleet() {
  os::KernelConfig kc;
  kc.cores = 2;
  kc.sched.slice_instructions = 2000;
  os::Kernel kernel(kc);
  for (uint32_t i = 0; i < 4; ++i) {
    os::ProcessConfig pc;
    pc.workload = kMix[i];
    pc.scale = 0;
    pc.seed = 7ull ^ (0x9e3779b97f4a7c15ull * (i + 1));
    kernel.spawn(pc);
  }
  ReferenceFleet f;
  f.report = kernel.run();
  f.pool_rounds = kernel.pool_rounds();
  f.pool_workers = kernel.pool_workers();
  return f;
}

}  // namespace

std::string fleet_snapshot() {
  const os::FleetReport r = run_reference_fleet().report;
  uint64_t drc_lookups = 0, drc_misses = 0;
  for (const auto& c : r.cores) {
    drc_lookups += c.drc.lookups;
    drc_misses += c.drc.misses;
  }
  const double drc_miss_rate =
      drc_lookups == 0
          ? 0.0
          : static_cast<double>(drc_misses) / static_cast<double>(drc_lookups);

  telemetry::JsonWriter w;
  w.begin_object(telemetry::JsonWriter::Style::kPretty);
  w.key("bench").value("fleet");
  w.key("config").begin_object();
  w.key("procs").value(uint64_t{4});
  w.key("cores").value(uint64_t{2});
  w.key("slice").value(uint64_t{2000});
  w.key("scale").value(uint64_t{0});
  w.key("seed").value(uint64_t{7});
  w.end_object();
  w.key("fleet_ipc").raw_value(telemetry::json_double(r.fleet_ipc));
  w.key("drc_miss_rate").raw_value(telemetry::json_double(drc_miss_rate));
  w.key("fleet_cycles").value(r.fleet_cycles);
  w.key("fleet_instructions").value(r.fleet_instructions);
  w.key("drc_lookups").value(drc_lookups);
  w.key("drc_misses").value(drc_misses);
  w.end_object();
  return w.str() + "\n";
}

std::string hotpath_snapshot() {
  const ReferenceFleet fleet = run_reference_fleet();

  // The VCFR image of gcc at bench scale: the suite's largest code
  // footprint, so the decode cache's steady state dominates.
  const binary::Image original = workloads::make("gcc", 1);
  rewriter::RandomizeOptions ro;
  ro.seed = 7;
  const binary::Image vcfr_image = rewriter::randomize(original, ro).vcfr;

  emu::DecodeCacheStats cache_stats;
  const emu::RunResult on = run_once(vcfr_image, true, &cache_stats);
  const emu::RunResult off = run_once(vcfr_image, false);
  const bool match = results_match(on, off);

  // Worker-pool sweep: the same 4-core fleet under 1/2/4 pool workers.
  struct SweepPoint {
    uint32_t workers_requested = 0;
    uint32_t pool_workers = 0;
    uint64_t pool_rounds = 0;
    uint64_t rounds = 0;
    uint64_t fleet_cycles = 0;
    uint64_t fleet_instructions = 0;
  };
  std::vector<SweepPoint> sweep;
  for (const uint32_t workers : {1u, 2u, 4u}) {
    os::KernelConfig sc;
    sc.cores = 4;
    sc.sched.slice_instructions = 2000;
    sc.measure_isolated = false;
    sc.pool_workers = workers;
    os::Kernel sk(sc);
    for (uint32_t i = 0; i < 8; ++i) {
      os::ProcessConfig pc;
      pc.workload = kMix[i % 4];
      pc.scale = 0;
      pc.seed = 7ull ^ (0x9e3779b97f4a7c15ull * (i + 1));
      sk.spawn(pc);
    }
    const os::FleetReport sr = sk.run();
    sweep.push_back({workers, sk.pool_workers(), sk.pool_rounds(), sr.rounds,
                     sr.fleet_cycles, sr.fleet_instructions});
  }
  for (const SweepPoint& pt : sweep) {
    if (pt.fleet_cycles != sweep[0].fleet_cycles ||
        pt.fleet_instructions != sweep[0].fleet_instructions ||
        pt.rounds != sweep[0].rounds) {
      gate_failed(
          "pool sweep diverged at %u workers: simulated results must not "
          "depend on host parallelism",
          pt.workers_requested);
    }
  }

  telemetry::JsonWriter h;
  h.begin_object(telemetry::JsonWriter::Style::kPretty);
  h.key("bench").value("hotpath");
  h.key("simulated").begin_object();
  h.key("emu").begin_object();
  h.key("workload").value("gcc");
  h.key("scale").value(uint64_t{1});
  h.key("layout").value("vcfr");
  h.key("seed").value(uint64_t{7});
  h.key("instructions").value(on.stats.instructions);
  h.key("decode_cache_hits").value(cache_stats.hits);
  h.key("decode_cache_misses").value(cache_stats.misses);
  h.key("decode_cache_invalidations").value(cache_stats.invalidations);
  h.key("cache_off_match").value(match);
  h.end_object();
  h.key("fleet").begin_object();
  h.key("rounds").value(fleet.report.rounds);
  h.key("pool_rounds").value(fleet.pool_rounds);
  h.key("pool_workers").value(uint64_t{fleet.pool_workers});
  h.end_object();
  h.end_object();
  h.key("pool_sweep").begin_object();
  h.key("config").begin_object();
  h.key("procs").value(uint64_t{8});
  h.key("cores").value(uint64_t{4});
  h.key("slice").value(uint64_t{2000});
  h.key("scale").value(uint64_t{0});
  h.key("seed").value(uint64_t{7});
  h.end_object();
  h.key("points").begin_array();
  for (const SweepPoint& pt : sweep) {
    h.begin_object();
    h.key("workers_requested").value(uint64_t{pt.workers_requested});
    h.key("pool_workers").value(uint64_t{pt.pool_workers});
    h.key("pool_rounds").value(pt.pool_rounds);
    h.key("rounds").value(pt.rounds);
    h.key("fleet_cycles").value(pt.fleet_cycles);
    h.key("fleet_instructions").value(pt.fleet_instructions);
    h.end_object();
  }
  h.end_array();
  h.key("identical_across_workers").value(true);
  h.end_object();
  h.end_object();
  return h.str() + "\n";
}

}  // namespace vcfr::bench
