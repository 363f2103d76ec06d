// BENCH_leaks.json: the address-taint tracker against a planted
// Heartbleed-style over-read, three arms in one committed file
// (docs/OBSERVABILITY.md, docs/DEPENDABILITY.md).
//
//   * "native"         — the leaky handler on the original layout. No
//     randomized secret ever enters the handler's frame, so the tracker
//     must stay silent by construction (0 sources, 0 leaks).
//   * "vcfr"           — seed-randomized siblings of the same image. The
//     over-reading request echoes the saved (randomized) return address,
//     so every trial must fire the sink with full provenance: origin
//     ret_push, sink out, the leaked randomized address recorded.
//   * "rerand_on_leak" — leaky tenants served under --rerand-on-leak.
//     The kernel must treat each sink firing as an attack signal and
//     re-key the leaking tenant at its next request boundary (at least
//     one fresh placement scheduled and fired, no tenant down).
//
// Each arm is a gate: the snapshot fails if any of the three does. The
// configuration is pinned — the file is committed at the repo root and
// must mean the same thing everywhere.
#include <string>
#include <vector>

#include "binary/image.hpp"
#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "emu/taint.hpp"
#include "rewriter/randomizer.hpp"
#include "serve/server.hpp"
#include "snapshot.hpp"
#include "telemetry/json_writer.hpp"
#include "workloads/wl_server.hpp"

namespace vcfr::bench {
namespace {

constexpr uint64_t kSeed = 5;
constexpr uint32_t kTrials = 4;
/// The over-read: the handler's stack buffer is 64 bytes with the saved
/// (randomized) return address directly above it, so echoing 68 bytes
/// discloses all four return-address bytes.
constexpr uint32_t kRespLen = 68;

struct Arm {
  bool halted = false;
  uint64_t sources = 0;
  uint64_t leaks = 0;
  uint64_t max_depth = 0;
  std::vector<emu::LeakRecord> records;
};

Arm run_arm(const binary::Image& image) {
  binary::Memory mem;
  binary::load(image, mem);
  const std::vector<uint8_t> req = workloads::build_leak_request(kRespLen);
  for (size_t i = 0; i < req.size(); ++i) {
    mem.write8(workloads::kServerRequestBase + static_cast<uint32_t>(i),
               req[i]);
  }
  emu::Emulator emulator(image, mem);
  emulator.set_taint_tracking(true);
  uint64_t steps = 0;
  while (steps < 2'000'000 && emulator.step()) {
    ++steps;
    if (emulator.halted()) break;
  }
  Arm a;
  a.halted = emulator.halted();
  a.sources = emulator.taint_stats().sources;
  a.leaks = emulator.taint_stats().leaks;
  a.max_depth = emulator.taint_stats().max_depth;
  a.records = emulator.leaks();
  return a;
}

}  // namespace

std::string leaks_snapshot() {
  const binary::Image original = workloads::make_leaky_server();

  // -- arm A: native layout must stay silent -------------------------------
  const Arm native = run_arm(original);
  if (!native.halted || native.leaks != 0) {
    gate_failed("tracker fired on the native layout");
  }

  // -- arm B: randomized siblings must detect with provenance --------------
  struct Trial {
    uint64_t seed = 0;
    Arm arm;
  };
  std::vector<Trial> trials;
  for (uint32_t t = 0; t < kTrials; ++t) {
    rewriter::RandomizeOptions opts;
    opts.seed = kSeed + t;
    const rewriter::RandomizeResult rr = rewriter::randomize(original, opts);
    Trial tr;
    tr.seed = opts.seed;
    tr.arm = run_arm(rr.vcfr);
    bool ok = tr.arm.halted && tr.arm.leaks > 0 && !tr.arm.records.empty();
    for (const emu::LeakRecord& l : tr.arm.records) {
      if (l.origin != emu::TaintOrigin::kRetPush) ok = false;
      if (l.sink != emu::LeakSink::kOut) ok = false;
    }
    if (!ok) {
      gate_failed(
          "seed %llu did not detect the planted leak with ret_push/out "
          "provenance",
          static_cast<unsigned long long>(tr.seed));
    }
    trials.push_back(std::move(tr));
  }

  // -- arm C: --rerand-on-leak must re-key the leaking tenant --------------
  serve::ServeConfig sc;
  sc.tenants = 2;
  sc.cores = 1;
  sc.duration = 60'000;
  sc.model = serve::ArrivalModel::kOpen;
  sc.dist = serve::Distribution::kFixed;
  sc.mean_interarrival = 4'000;
  sc.workloads = {"leaky"};
  sc.seed = kSeed;
  sc.taint = true;
  sc.rerandomize.on_leak = true;
  const serve::ServeReport sr = serve::run_serve(sc);
  if (sr.leaks == 0 || sr.leak_rerands == 0 || sr.tenants_down != 0) {
    gate_failed("--rerand-on-leak did not re-key the leaking tenant cleanly");
  }

  telemetry::JsonWriter w;
  w.begin_object(telemetry::JsonWriter::Style::kPretty);
  w.key("bench").value("leaks");
  w.key("simulated").begin_object();
  w.key("config").begin_object();
  w.key("seed").value(kSeed);
  w.key("trials").value(uint64_t{kTrials});
  w.key("request_resp_len").value(uint64_t{kRespLen});
  w.end_object();
  w.key("native").begin_object();
  w.key("halted").value(native.halted);
  w.key("taint_sources").value(native.sources);
  w.key("leaks").value(native.leaks);
  w.key("silent").value(true);
  w.end_object();
  w.key("vcfr").begin_array(telemetry::JsonWriter::Style::kPretty);
  for (const Trial& tr : trials) {
    const Arm& a = tr.arm;
    w.begin_object(telemetry::JsonWriter::Style::kCompact);
    w.key("seed").value(tr.seed);
    w.key("halted").value(a.halted);
    w.key("taint_sources").value(a.sources);
    w.key("leaks").value(a.leaks);
    w.key("max_depth").value(a.max_depth);
    w.key("origin").value(
        std::string(emu::taint_origin_name(a.records[0].origin)));
    w.key("sink").value(std::string(emu::leak_sink_name(a.records[0].sink)));
    w.key("origin_rpc").value(a.records[0].origin_rpc);
    w.end_object();
  }
  w.end_array();
  w.key("rerand_on_leak").begin_object();
  w.key("leaks").value(sr.leaks);
  w.key("leak_rerands").value(sr.leak_rerands);
  w.key("tenants_down").value(uint64_t{sr.tenants_down});
  w.key("rekeyed").value(true);
  w.end_object();
  w.key("pass").value(true);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace vcfr::bench
