// Address-taint telemetry (docs/OBSERVABILITY.md).
//
// The tracker is pure shadow state: switching it on must never change an
// architectural result, a simulated cycle, or an output byte — on any
// workload, any layout, any seed. The planted "leaky" handler pins down
// the detection side: native silent by construction, randomized siblings
// fire the sink with full ret_push/out provenance, and --rerand-on-leak
// turns each firing into a fresh placement for the leaking tenant.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "emu/taint.hpp"
#include "rewriter/randomizer.hpp"
#include "serve/server.hpp"
#include "workloads/suite.hpp"
#include "workloads/wl_server.hpp"

namespace vcfr {
namespace {

/// The over-read request: the handler's buffer is 64 bytes with the saved
/// return address directly above it, so echoing 68 bytes discloses all
/// four (randomized) return-address bytes.
constexpr uint32_t kOverRead = 68;

struct ArmResult {
  bool halted = false;
  std::vector<uint32_t> output;
  uint64_t instructions = 0;
  uint64_t mem_checksum = 0;
  emu::TaintStats stats;
  std::vector<emu::LeakRecord> records;
};

ArmResult run_image_taint(const binary::Image& image, bool taint,
                          const std::vector<uint8_t>* request = nullptr) {
  binary::Memory mem;
  binary::load(image, mem);
  if (request != nullptr) {
    for (size_t i = 0; i < request->size(); ++i) {
      mem.write8(workloads::kServerRequestBase + static_cast<uint32_t>(i),
                 (*request)[i]);
    }
  }
  emu::Emulator emulator(image, mem);
  emulator.set_taint_tracking(taint);
  uint64_t steps = 0;
  while (steps < 2'000'000 && emulator.step()) {
    ++steps;
    if (emulator.halted()) break;
  }
  ArmResult r;
  r.halted = emulator.halted();
  r.output = emulator.output();
  r.instructions = emulator.stats().instructions;
  r.mem_checksum = mem.checksum();
  r.stats = emulator.taint_stats();
  r.records = emulator.leaks();
  return r;
}

// Tracking on vs off must be invisible to everything architectural, on
// every suite workload and on all three layouts of each.
TEST(TaintTest, ObserverNeutralAcrossSuiteAndLayouts) {
  for (const std::string& name : workloads::spec_names()) {
    const binary::Image original = workloads::make(name, 0);
    rewriter::RandomizeOptions opts;
    opts.seed = 11;
    const rewriter::RandomizeResult rr = rewriter::randomize(original, opts);
    const binary::Image naive = rewriter::naive_ilr(rr.vcfr);
    for (const binary::Image* image : {&original, &naive, &rr.vcfr}) {
      const ArmResult off = run_image_taint(*image, false);
      const ArmResult on = run_image_taint(*image, true);
      EXPECT_EQ(off.halted, on.halted) << name;
      EXPECT_EQ(off.output, on.output) << name;
      EXPECT_EQ(off.instructions, on.instructions) << name;
      EXPECT_EQ(off.mem_checksum, on.mem_checksum) << name;
    }
  }
}

// Same image, same request, run twice: the provenance chain is replayed
// bit for bit (counters and every record field).
TEST(TaintTest, LeakRecordsAreDeterministic) {
  const binary::Image original = workloads::make_leaky_server();
  rewriter::RandomizeOptions opts;
  opts.seed = 5;
  const rewriter::RandomizeResult rr = rewriter::randomize(original, opts);
  const std::vector<uint8_t> req = workloads::build_leak_request(kOverRead);
  const ArmResult a = run_image_taint(rr.vcfr, true, &req);
  const ArmResult b = run_image_taint(rr.vcfr, true, &req);
  EXPECT_EQ(a.stats.sources, b.stats.sources);
  EXPECT_EQ(a.stats.propagations, b.stats.propagations);
  EXPECT_EQ(a.stats.leaks, b.stats.leaks);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].origin, b.records[i].origin);
    EXPECT_EQ(a.records[i].origin_rpc, b.records[i].origin_rpc);
    EXPECT_EQ(a.records[i].epoch, b.records[i].epoch);
    EXPECT_EQ(a.records[i].depth, b.records[i].depth);
    EXPECT_EQ(a.records[i].sink, b.records[i].sink);
    EXPECT_EQ(a.records[i].sink_rpc, b.records[i].sink_rpc);
    EXPECT_EQ(a.records[i].instruction, b.records[i].instruction);
  }
}

// The planted over-read: silent on the original layout (no randomized
// secret exists), detected with full provenance on randomized siblings.
TEST(TaintTest, NativeSilentVcfrDetects) {
  const binary::Image original = workloads::make_leaky_server();
  const std::vector<uint8_t> req = workloads::build_leak_request(kOverRead);

  const ArmResult native = run_image_taint(original, true, &req);
  EXPECT_TRUE(native.halted);
  EXPECT_EQ(native.stats.sources, 0u);
  EXPECT_EQ(native.stats.leaks, 0u);

  for (const uint64_t seed : {5u, 6u, 7u}) {
    rewriter::RandomizeOptions opts;
    opts.seed = seed;
    const rewriter::RandomizeResult rr = rewriter::randomize(original, opts);
    const ArmResult vcfr = run_image_taint(rr.vcfr, true, &req);
    EXPECT_TRUE(vcfr.halted) << seed;
    // The echo loop discloses the four saved-return bytes, one sink
    // firing each, one hop (ldb) from the pushed secret.
    EXPECT_EQ(vcfr.stats.leaks, 4u) << seed;
    ASSERT_FALSE(vcfr.records.empty()) << seed;
    for (const emu::LeakRecord& l : vcfr.records) {
      EXPECT_EQ(l.origin, emu::TaintOrigin::kRetPush) << seed;
      EXPECT_EQ(l.sink, emu::LeakSink::kOut) << seed;
      EXPECT_EQ(l.depth, 1u) << seed;
      EXPECT_NE(l.origin_rpc, 0u) << seed;
    }
  }
}

// An in-bounds echo (resp_len <= 64) never touches the saved return:
// the tracker stays silent even on the randomized layout.
TEST(TaintTest, InBoundsEchoIsSilent) {
  const binary::Image original = workloads::make_leaky_server();
  rewriter::RandomizeOptions opts;
  opts.seed = 5;
  const rewriter::RandomizeResult rr = rewriter::randomize(original, opts);
  const std::vector<uint8_t> req = workloads::build_leak_request(32);
  const ArmResult vcfr = run_image_taint(rr.vcfr, true, &req);
  EXPECT_TRUE(vcfr.halted);
  EXPECT_GE(vcfr.stats.sources, 1u);  // the secret was born...
  EXPECT_EQ(vcfr.stats.leaks, 0u);    // ...but never escaped
}

serve::ServeConfig leaky_serve() {
  serve::ServeConfig sc;
  sc.tenants = 2;
  sc.cores = 1;
  sc.duration = 60'000;
  sc.model = serve::ArrivalModel::kOpen;
  sc.dist = serve::Distribution::kFixed;
  sc.mean_interarrival = 4'000;
  sc.workloads = {"leaky"};
  sc.seed = 5;
  sc.taint = true;
  return sc;
}

// Serving leaky tenants: sink firings are attributed to the in-flight
// request (CSV columns appear, per-tenant totals add up) and the whole
// run replays byte-identically.
TEST(TaintTest, ServeAttributionIsDeterministic) {
  const serve::ServeReport a = serve::run_serve(leaky_serve());
  const serve::ServeReport b = serve::run_serve(leaky_serve());
  EXPECT_TRUE(a.taint_enabled);
  EXPECT_GT(a.leaks, 0u);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.latency_csv(), b.latency_csv());
  EXPECT_NE(a.latency_csv().find(",leaks,leak_depth"), std::string::npos);
  // Request-attributed firings reconcile with the per-tenant totals.
  for (const serve::TenantReport& t : a.tenants) {
    uint64_t sum = 0;
    for (const serve::RequestRecord& r : t.records) sum += r.leaks;
    EXPECT_EQ(sum, t.leaks);
  }
}

// Tracking off keeps the legacy report and CSV byte-identical (the
// conditional columns/objects never render).
TEST(TaintTest, UntaintedServeRendersNoTaintFields) {
  serve::ServeConfig sc = leaky_serve();
  sc.taint = false;
  const serve::ServeReport r = serve::run_serve(sc);
  EXPECT_FALSE(r.taint_enabled);
  EXPECT_EQ(r.to_json().find("taint"), std::string::npos);
  EXPECT_EQ(r.latency_csv().find("leaks"), std::string::npos);
}

// --rerand-on-leak: every sink firing schedules a fresh placement for
// the leaking tenant, fired at its next request boundary — the tenant is
// re-keyed (epoch advances) and keeps serving.
TEST(TaintTest, RerandOnLeakRekeysLeakingTenant) {
  serve::ServeConfig sc = leaky_serve();
  sc.rerandomize.on_leak = true;
  const serve::ServeReport r = serve::run_serve(sc);
  EXPECT_GT(r.leaks, 0u);
  EXPECT_GT(r.leak_rerands, 0u);
  EXPECT_EQ(r.tenants_down, 0u);
  // Still a working service after the re-keys.
  EXPECT_GT(r.completed, 0u);
  for (const serve::TenantReport& t : r.tenants) EXPECT_FALSE(t.down);
}

// Attribution survives perturbation: a crash + restart mid-run does not
// break determinism of the leak accounting.
TEST(TaintTest, AttributionStableUnderInjectionAndRestart) {
  serve::ServeConfig sc = leaky_serve();
  sc.tenants = 3;
  sc.cores = 2;
  sc.duration = 100'000;
  sc.restart.mode = os::RestartPolicy::Mode::kOnFault;
  fault::FaultPlan plan;
  plan.site = fault::FaultSite::kCodeByte;
  plan.at_instruction = 500;
  plan.seed = 3;
  sc.injections.emplace_back(1u, plan);
  const serve::ServeReport a = serve::run_serve(sc);
  const serve::ServeReport b = serve::run_serve(sc);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.latency_csv(), b.latency_csv());
  EXPECT_GT(a.leaks, 0u);
}

}  // namespace
}  // namespace vcfr
