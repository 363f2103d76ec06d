// BENCH_scale.json: 256 tenant processes on a 64-core fleet, swept
// across execute-phase worker-pool sizes {1, 2, 4, 8}.
//
// The point of the sweep is the determinism contract, not throughput
// curves: worker count is host parallelism only, so every sweep point
// MUST produce bit-identical simulated results (cycles, instructions,
// rounds). The snapshot gates on that itself; the per-point rounds/cycles
// also land in the file so the committed copy re-checks the invariant.
// Host time for this configuration is perfbench's fleet-64x256 workload.
//
// The configuration is pinned: the file is committed at the repo root and
// must mean the same thing everywhere.
// The per-tenant instruction budget is small (20k) to keep the
// 4 x (64-core, 256-tenant) sweep tractable on unoptimized CI builds.
#include <vector>

#include "os/kernel.hpp"
#include "snapshot.hpp"
#include "telemetry/json_writer.hpp"

namespace vcfr::bench {
namespace {

constexpr uint32_t kCores = 64;
constexpr uint32_t kTenants = 256;
constexpr uint64_t kSlice = 2'000;
constexpr uint64_t kMaxInstr = 20'000;
constexpr uint64_t kSeed = 7;
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

struct SweepPoint {
  uint32_t workers_requested = 0;
  uint32_t pool_workers = 0;  // resolved (0 = auto -> cores - 1)
  uint64_t pool_rounds = 0;
  uint64_t rounds = 0;
  uint64_t fleet_cycles = 0;
  uint64_t fleet_instructions = 0;
  double fleet_ipc = 0.0;
};

SweepPoint run_point(uint32_t workers) {
  os::KernelConfig kc;
  kc.cores = kCores;
  kc.sched.slice_instructions = kSlice;
  kc.measure_isolated = false;  // 256 isolated re-runs would dwarf the fleet
  kc.pool_workers = workers;
  os::Kernel kernel(kc);
  const char* mix[] = {"bzip2", "gcc", "mcf", "hmmer"};
  for (uint32_t i = 0; i < kTenants; ++i) {
    os::ProcessConfig pc;
    pc.workload = mix[i % 4];
    pc.scale = 0;
    pc.seed = kSeed ^ (kSeedMix * (i + 1));
    pc.max_instructions = kMaxInstr;
    kernel.spawn(pc);
  }
  const os::FleetReport r = kernel.run();
  SweepPoint pt;
  pt.workers_requested = workers;
  pt.pool_workers = kernel.pool_workers();
  pt.pool_rounds = kernel.pool_rounds();
  pt.rounds = r.rounds;
  pt.fleet_cycles = r.fleet_cycles;
  pt.fleet_instructions = r.fleet_instructions;
  pt.fleet_ipc = r.fleet_ipc;
  return pt;
}

}  // namespace

std::string scale_snapshot() {
  std::vector<SweepPoint> sweep;
  for (const uint32_t workers : {1u, 2u, 4u, 8u}) {
    sweep.push_back(run_point(workers));
  }

  for (const SweepPoint& pt : sweep) {
    if (pt.fleet_cycles != sweep[0].fleet_cycles ||
        pt.fleet_instructions != sweep[0].fleet_instructions ||
        pt.rounds != sweep[0].rounds || pt.pool_rounds != sweep[0].pool_rounds) {
      gate_failed(
          "scale sweep diverged at %u workers: simulated results must not "
          "depend on host parallelism",
          pt.workers_requested);
    }
  }

  telemetry::JsonWriter w;
  w.begin_object(telemetry::JsonWriter::Style::kPretty);
  w.key("bench").value("scale");
  w.key("simulated").begin_object();
  w.key("config").begin_object();
  w.key("cores").value(uint64_t{kCores});
  w.key("tenants").value(uint64_t{kTenants});
  w.key("slice").value(kSlice);
  w.key("scale").value(uint64_t{0});
  w.key("seed").value(kSeed);
  w.key("max_instructions").value(kMaxInstr);
  w.end_object();
  w.key("rounds").value(sweep[0].rounds);
  w.key("fleet_cycles").value(sweep[0].fleet_cycles);
  w.key("fleet_instructions").value(sweep[0].fleet_instructions);
  w.key("fleet_ipc").raw_value(telemetry::json_double(sweep[0].fleet_ipc));
  w.key("points").begin_array();
  for (const SweepPoint& pt : sweep) {
    w.begin_object();
    w.key("workers_requested").value(uint64_t{pt.workers_requested});
    w.key("pool_workers").value(uint64_t{pt.pool_workers});
    w.key("pool_rounds").value(pt.pool_rounds);
    w.key("rounds").value(pt.rounds);
    w.key("fleet_cycles").value(pt.fleet_cycles);
    w.key("fleet_instructions").value(pt.fleet_instructions);
    w.end_object();
  }
  w.end_array();
  w.key("identical_across_workers").value(true);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace vcfr::bench
