// Fleet scale-out snapshot (BENCH_scale.json; simulated section diffed
// by CI): 256 tenant processes on a 64-core fleet, swept across
// execute-phase worker-pool sizes {1, 2, 4, 8}.
//
// The point of the sweep is the determinism contract, not throughput
// curves: worker count is host parallelism only, so every sweep point
// MUST produce bit-identical simulated results (cycles, instructions,
// rounds). The binary checks that itself and exits non-zero on
// divergence; the per-point rounds/cycles also land in the "simulated"
// section so CI re-checks the invariant by diffing the committed file.
//
// Two sections, same discipline as BENCH_hotpath.json:
//   * "simulated" — deterministic; CI strips "host" and diffs the rest;
//   * "host" — per sweep point, wall-clock of set-up (spawn_ms: kernel
//     construction plus the 256 spawns) and of Kernel::run() (wall_ms),
//     plus the host CPU count. Informational only (build type, machine, and core count all move
//     it); no derived "speedup" is reported because a 1-CPU CI host
//     cannot honestly show one.
//
// The configuration is pinned (not bench_util env knobs): the file is
// committed at the repo root and must mean the same thing everywhere.
// The per-tenant instruction budget is small (20k) to keep the
// 4 x (64-core, 256-tenant) sweep tractable on unoptimized CI builds.
//
// Usage: scale [scale.json]   (default BENCH_scale.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "os/kernel.hpp"
#include "telemetry/json_writer.hpp"

namespace {

using namespace vcfr;
using Clock = std::chrono::steady_clock;

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
  double spawn_ms = 0.0;
  double wall_ms = 0.0;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

SweepPoint run_point(uint32_t workers) {
  os::KernelConfig kc;
  kc.cores = kCores;
  kc.sched.slice_instructions = kSlice;
  kc.measure_isolated = false;  // 256 isolated re-runs would dwarf the fleet
  kc.pool_workers = workers;
  const auto spawn_start = Clock::now();
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
  const double spawn_ms = ms_since(spawn_start);
  const auto start = Clock::now();
  const os::FleetReport r = kernel.run();
  SweepPoint pt;
  pt.workers_requested = workers;
  pt.pool_workers = kernel.pool_workers();
  pt.pool_rounds = kernel.pool_rounds();
  pt.rounds = r.rounds;
  pt.fleet_cycles = r.fleet_cycles;
  pt.fleet_instructions = r.fleet_instructions;
  pt.fleet_ipc = r.fleet_ipc;
  pt.spawn_ms = spawn_ms;
  pt.wall_ms = ms_since(start);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = argc > 1 ? argv[1] : "BENCH_scale.json";

  std::vector<SweepPoint> sweep;
  for (const uint32_t workers : {1u, 2u, 4u, 8u}) {
    sweep.push_back(run_point(workers));
    std::printf(
        "scale: %3u workers -> %llu rounds, %llu cycles, spawn %.0f ms, "
        "run %.0f ms\n",
        workers, static_cast<unsigned long long>(sweep.back().rounds),
        static_cast<unsigned long long>(sweep.back().fleet_cycles),
        sweep.back().spawn_ms, sweep.back().wall_ms);
  }

  for (const SweepPoint& pt : sweep) {
    if (pt.fleet_cycles != sweep[0].fleet_cycles ||
        pt.fleet_instructions != sweep[0].fleet_instructions ||
        pt.rounds != sweep[0].rounds || pt.pool_rounds != sweep[0].pool_rounds) {
      std::fprintf(stderr,
                   "scale sweep diverged at %u workers: simulated results "
                   "must not depend on host parallelism\n",
                   pt.workers_requested);
      return 1;
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
  w.key("host").begin_object();
  w.key("cpus").value(
      static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.key("points").begin_array();
  for (const SweepPoint& pt : sweep) {
    w.begin_object();
    w.key("workers_requested").value(uint64_t{pt.workers_requested});
    w.key("spawn_ms").raw_value(telemetry::json_double(pt.spawn_ms));
    w.key("wall_ms").raw_value(telemetry::json_double(pt.wall_ms));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  out << w.str() << "\n";
  std::printf("scale: 64x256 sweep identical across workers -> %s\n", path);
  return 0;
}
