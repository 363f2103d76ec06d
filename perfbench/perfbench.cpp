// Host-time benchmark for the vcfr library: one named workload per
// process, timed from outside through the library's public API.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans PATH]
//
// perfbench/run.py builds this binary and is the intended entry point;
// perfbench/README.md documents the workloads, the metrics, and which
// layer metric should move which end-to-end metric.
//
// Prints one JSON line on stdout: workload, seed, build, correctness
// counts, the simulated outputs every repetition was checked against,
// and the metrics. With --trace 0 the metrics are the end-to-end ones,
// measured untraced. With --trace 1 they are the per-layer ones, derived
// from spans recorded around the same public calls; the spans are kept
// in memory and written to --spans when the run ends.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "os/kernel.hpp"
#include "rewriter/randomizer.hpp"
#include "serve/server.hpp"
#include "sim/cpu.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/suite.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace vcfr;
using Clock = std::chrono::steady_clock;
using telemetry::JsonWriter;

// The default seed is the one BENCH_scale.json and BENCH_serve.json were
// recorded with. The held-out seed is not used while tuning a change; a
// claimed gain must hold on it too. Both seeds have pinned outputs.
constexpr uint64_t kDefaultSeed = 7;
constexpr uint64_t kHeldOutSeed = 1009;
// Per-tenant seed derivation shared with bench/scale.cpp and
// serve::run_serve.
constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;
// At most two host threads per workload: the caller plus one
// execute-phase pool worker, so a 4-CPU host keeps two CPUs spare and
// scheduler noise from neighbours stays out of the barrier waits.
constexpr uint32_t kPoolWorkers = 1;

constexpr int kSuiteScale = 1;
constexpr uint64_t kSuiteMaxInstructions = 50'000'000;

struct FleetShape {
  uint32_t cores;
  uint32_t tenants;
};
// bench/scale.cpp's configuration.
constexpr FleetShape kFleetFull{64, 256};
// The fleet layers measured inside a sim-suite traced run.
constexpr FleetShape kFleetProbe{16, 64};
constexpr const char* kFleetMix[] = {"bzip2", "gcc", "mcf", "hmmer"};
constexpr uint64_t kFleetSlice = 2'000;
constexpr uint64_t kFleetMaxInstructions = 20'000;

// Arrival horizon of serve-rerand in core-clock cycles: about 4000
// scheduler rounds, 0.5-1 s of host time per repetition.
constexpr uint64_t kServeDuration = 150'000;
// The serve layers measured inside sim-suite and fleet traced runs.
constexpr uint64_t kServeProbeDuration = 60'000;
constexpr double kProbeSeconds = 2.0;

// Pinned simulated outputs. Instruction counts do not depend on the
// seed (placement never changes the dynamic instruction stream); cycles
// and the serve report digest are given at {kDefaultSeed, kHeldOutSeed}.
struct SuitePin {
  const char* app;
  uint64_t instructions;
  uint64_t cycles[2];
};
constexpr SuitePin kSuitePins[] = {
    {"bzip2", 977'957, {1'003'677, 1'004'155}},
    {"gcc", 483'697, {599'851, 598'453}},
    {"mcf", 1'361'087, {1'874'185, 1'877'315}},
    {"hmmer", 444'358, {472'082, 471'292}},
    {"sjeng", 35'936, {49'598, 49'718}},
    {"libquantum", 704'695, {916'785, 916'807}},
    {"h264ref", 351'260, {448'117, 447'155}},
    {"lbm", 706'441, {736'895, 737'127}},
    {"xalan", 528'632, {729'357, 732'846}},
    {"namd", 675'290, {810'016, 809'861}},
    {"soplex", 436'593, {511'583, 511'307}},
};
// BENCH_scale.json's "simulated" rounds / fleet_instructions /
// fleet_cycles at the default seed.
constexpr uint64_t kFleetRounds = 40;
constexpr uint64_t kFleetInstructions = 4'759'360;
constexpr uint64_t kFleetCycles[2] = {1'818'397, 1'797'774};
// FNV-1a of serve::ServeReport::to_json().
constexpr uint64_t kServeDigest[2] = {17'723'037'585'768'850'314ull,
                                      7'357'099'728'813'617'818ull};

int pin_slot(uint64_t seed) {
  if (seed == kDefaultSeed) return 0;
  if (seed == kHeldOutSeed) return 1;
  return -1;
}

uint64_t tenant_seed(uint64_t seed, uint32_t i) {
  return seed ^ (kSeedMix * (i + 1));
}

const Clock::time_point& origin() {
  static const Clock::time_point t = Clock::now();
  return t;
}

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// User + system CPU time of every thread of this process.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Peak resident set of this process image, in MB. Read from VmHWM, not
// ru_maxrss: the latter keeps the high-water mark of whatever process
// ran before exec (the Python wrapper, when started from run.py).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Full precision: the value as measured, not rounded for display.
std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void set(const std::string& name, double value, const char* unit) {
    metrics_[name] = Metric{value, unit};
  }
  // Adds the metrics of `other` that this set does not have yet.
  void fill(const MetricSet& other) {
    metrics_.insert(other.metrics_.begin(), other.metrics_.end());
  }
  void require(const std::vector<std::string>& names) const {
    for (const std::string& name : names) {
      if (metrics_.count(name) == 0) {
        throw std::logic_error("metric " + name + " was not measured");
      }
    }
  }
  void write(JsonWriter& w) const {
    w.begin_object();
    for (const auto& [name, m] : metrics_) {
      w.key(name).begin_object();
      w.key("value").raw_value(number(m.value));
      w.key("unit").value(m.unit);
      w.end_object();
    }
    w.end_object();
  }

 private:
  std::map<std::string, Metric> metrics_;
};

const std::vector<std::string> kEndToEnd = {
    "wall_s", "setup_s", "sim_mips", "req_per_s", "cpu_s", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "emu.mips",
    "emu.decode_cache.hit_rate",
    "emu.decode_cache.lookups",
    "sim.ns_per_instr",
    "sim.timing_ns_per_instr",
    "workloads.make_ms",
    "workloads.make_calls",
    "rewriter.randomize_ms",
    "rewriter.randomize_calls",
    "binary.load_ms",
    "os.spawn_ms",
    "os.run_s",
    "os.rounds",
    "os.pool_rounds",
    "os.us_per_round",
    "cache.shared_l2.accesses_per_round",
    "serve.us_per_request",
    "os.rerand.firings",
    "os.rerand.entries_patched",
    "rewriter.rerand_us_per_firing",
    "emu.taint_overhead_pct",
    "bench.trace_overhead_pct",
};

// Operations attempted and failed across the whole run; every failure
// is reported on stderr.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void record(uint64_t ops, uint64_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad != 0) {
      std::fprintf(stderr, "perfbench: %llu of %llu failed: %s\n",
                   static_cast<unsigned long long>(bad),
                   static_cast<unsigned long long>(ops), what.c_str());
    }
  }
};

// Expected simulated outputs by key. Pinned values are loaded up front;
// any other key is pinned by its first observation, so every later
// repetition of the run must reproduce it exactly.
class Expected {
 public:
  void pin(const std::string& key, uint64_t value) { values_[key] = value; }
  [[nodiscard]] bool matches(const std::string& key, uint64_t value) {
    const auto [it, fresh] = values_.emplace(key, value);
    return fresh || it->second == value;
  }
  [[nodiscard]] const std::map<std::string, uint64_t>& values() const {
    return values_;
  }

 private:
  std::map<std::string, uint64_t> values_;
};

// In-memory span recorder: name, start and end (seconds since program
// start), parent span, and the work the span did (instructions, rounds,
// requests), when it has a natural count.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    uint64_t count = 0;
  };
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    uint64_t calls = 0;
    uint64_t count = 0;
  };

  int open(const char* name) {
    spans_.push_back(
        {name, now(), 0.0, stack_.empty() ? -1 : stack_.back(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int index, uint64_t count) {
    spans_[index].end = now();
    spans_[index].count = count;
    stack_.pop_back();
  }

  // Per span name. A span's self time is its duration minus the part of
  // it that its child spans cover.
  [[nodiscard]] std::map<std::string, Totals> totals() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) covered[s.parent] += s.end - s.start;
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Totals& t = out[s.name];
      t.total_s += s.end - s.start;
      t.self_s += s.end - s.start - covered[i];
      ++t.calls;
      t.count += s.count;
    }
    return out;
  }

  void write(JsonWriter& w) const {
    w.begin_array(JsonWriter::Style::kPretty);
    for (const Span& s : spans_) {
      w.begin_object();
      w.key("name").value(s.name);
      w.key("start").raw_value(number(s.start));
      w.key("end").raw_value(number(s.end));
      w.key("parent").value(s.parent);
      w.key("count").value(s.count);
      w.end_object();
    }
    w.end_array();
  }

 private:
  static double now() { return since(origin()); }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Times one public call into `log`; does nothing when `log` is null, so
// untraced repetitions run the same code with one pointer test per call.
class SpanGuard {
 public:
  SpanGuard(SpanLog* log, const char* name)
      : log_(log), index_(log != nullptr ? log->open(name) : -1) {}
  ~SpanGuard() {
    if (log_ != nullptr) log_->close(index_, count_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  void count(uint64_t n) { count_ = n; }

 private:
  SpanLog* log_;
  int index_;
  uint64_t count_ = 0;
};

template <typename F>
auto timed(SpanLog* log, const char* name, F&& f) {
  SpanGuard span(log, name);
  return f();
}

// One traced section: its spans plus the counters read from the library
// at the same boundaries.
struct Trace {
  SpanLog log;
  std::map<std::string, uint64_t> counters;
};

const telemetry::StatRegistry::Stat& stat(const telemetry::Telemetry& tel,
                                          const std::string& name) {
  const auto& stats = tel.registry().stats();
  const auto it = stats.find(name);
  if (it == stats.end()) {
    throw std::runtime_error("telemetry registry has no " + name);
  }
  return it->second;
}

uint64_t stat_count(const telemetry::Telemetry& tel, const std::string& name) {
  const auto& s = stat(tel, name);
  return s.kind == telemetry::StatKind::kHistogram ? s.hist->count()
                                                   : s.count_value();
}

uint64_t stat_sum(const telemetry::Telemetry& tel, const std::string& name) {
  const auto& s = stat(tel, name);
  if (s.kind != telemetry::StatKind::kHistogram) {
    throw std::runtime_error(name + " is not a histogram");
  }
  return s.hist->sum();
}

// One repetition of a workload, timed from outside.
struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;  // start until the first simulated instruction
  double run_s = 0.0;    // the phase that simulates
  double cpu_s = 0.0;
  uint64_t instructions = 0;  // simulated instructions retired in run_s
  uint64_t requests = 0;      // units of work completed in run_s
};

// What a tenant (or a suite app) is built from.
struct Input {
  std::string workload;
  int scale = 0;
  uint64_t seed = 0;
};

// The placement os::Process uses for a tenant's first life.
rewriter::RandomizeOptions placement(uint64_t seed) {
  rewriter::RandomizeOptions options;
  options.seed = seed;
  return options;
}

class Workload {
 public:
  explicit Workload(Checks& checks) : checks_(checks) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // One checked repetition; `trace` is null when untraced.
  virtual Rep rep(Trace* trace) = 0;
  // Construction inputs of every tenant or app, in spawn order.
  [[nodiscard]] virtual std::vector<Input> inputs() const = 0;

  [[nodiscard]] const Expected& expected() const { return expected_; }

 protected:
  Checks& checks_;
  Expected expected_;
};

// sim-suite: the 11 SPEC-like apps, each built, randomized with its own
// seed, and simulated single-threaded on the VCFR layout.
class SimSuite final : public Workload {
 public:
  SimSuite(Checks& checks, uint64_t seed) : Workload(checks), seed_(seed) {
    const int slot = pin_slot(seed);
    for (const SuitePin& pin : kSuitePins) {
      expected_.pin(std::string(pin.app) + ".instructions", pin.instructions);
      if (slot >= 0) {
        expected_.pin(std::string(pin.app) + ".cycles", pin.cycles[slot]);
      }
    }
  }

  [[nodiscard]] std::vector<Input> inputs() const override {
    std::vector<Input> out;
    const auto& names = workloads::spec_names();
    for (uint32_t i = 0; i < names.size(); ++i) {
      out.push_back({names[i], kSuiteScale, tenant_seed(seed_, i)});
    }
    return out;
  }

  Rep rep(Trace* trace) override {
    SpanLog* log = trace != nullptr ? &trace->log : nullptr;
    Rep r;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const std::vector<Input> apps = inputs();
    std::vector<binary::Image> images;
    for (const Input& in : apps) {
      const binary::Image base = timed(log, "workloads.make", [&] {
        return workloads::make(in.workload, in.scale);
      });
      rewriter::RandomizeResult rr = timed(log, "rewriter.randomize", [&] {
        return rewriter::randomize(base, placement(in.seed));
      });
      images.push_back(std::move(rr.vcfr));
    }
    r.setup_s = since(t0);
    const auto t1 = Clock::now();
    for (size_t i = 0; i < images.size(); ++i) {
      sim::SimResult res;
      {
        SpanGuard span(log, "sim.simulate");
        res = sim::simulate(images[i], kSuiteMaxInstructions);
        span.count(res.instructions);
      }
      r.instructions += res.instructions;
      ++r.requests;
      const std::string& app = apps[i].workload;
      const bool ok =
          res.halted && res.error.empty() &&
          expected_.matches(app + ".instructions", res.instructions) &&
          expected_.matches(app + ".cycles", res.cycles);
      checks_.record(1, ok ? 0 : 1,
                     "sim-suite " + app + ": halted=" +
                         std::to_string(res.halted) + " error='" + res.error +
                         "' instructions=" + std::to_string(res.instructions) +
                         " cycles=" + std::to_string(res.cycles));
    }
    r.run_s = since(t1);
    r.wall_s = since(t0);
    r.cpu_s = cpu_seconds() - cpu0;
    return r;
  }

 private:
  uint64_t seed_;
};

// fleet-64x256: bench/scale's 64 cores x 256 tenants, one pool worker.
class Fleet final : public Workload {
 public:
  Fleet(Checks& checks, uint64_t seed, FleetShape shape)
      : Workload(checks), seed_(seed), shape_(shape) {
    if (shape.cores == kFleetFull.cores &&
        shape.tenants == kFleetFull.tenants) {
      expected_.pin("rounds", kFleetRounds);
      expected_.pin("fleet_instructions", kFleetInstructions);
      const int slot = pin_slot(seed);
      if (slot >= 0) expected_.pin("fleet_cycles", kFleetCycles[slot]);
    }
  }

  [[nodiscard]] std::vector<Input> inputs() const override {
    std::vector<Input> out;
    for (uint32_t i = 0; i < shape_.tenants; ++i) {
      out.push_back({kFleetMix[i % 4], 0, tenant_seed(seed_, i)});
    }
    return out;
  }

  Rep rep(Trace* trace) override {
    SpanLog* log = trace != nullptr ? &trace->log : nullptr;
    Rep r;
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    os::FleetReport report;
    {
      std::unique_ptr<telemetry::Telemetry> tel;
      if (trace != nullptr) tel = std::make_unique<telemetry::Telemetry>();
      os::KernelConfig kc;
      kc.cores = shape_.cores;
      kc.sched.slice_instructions = kFleetSlice;
      kc.measure_isolated = false;
      kc.pool_workers = kPoolWorkers;
      os::Kernel kernel(kc);
      if (tel != nullptr) kernel.attach_telemetry(tel.get());
      for (const Input& in : inputs()) {
        os::ProcessConfig pc;
        pc.workload = in.workload;
        pc.scale = in.scale;
        pc.seed = in.seed;
        pc.max_instructions = kFleetMaxInstructions;
        SpanGuard span(log, "os.spawn");
        kernel.spawn(pc);
      }
      r.setup_s = since(t0);
      const auto t1 = Clock::now();
      {
        SpanGuard span(log, "os.run");
        report = kernel.run();
        span.count(report.rounds);
      }
      r.run_s = since(t1);
      if (tel != nullptr) {
        trace->counters["os.pool_rounds"] +=
            stat_count(*tel, "kernel.pool.rounds");
        trace->counters["shared_l2.accesses"] +=
            stat_count(*tel, "fleet.shared_l2.accesses");
      }
    }
    r.wall_s = since(t0);
    r.cpu_s = cpu_seconds() - cpu0;
    r.instructions = report.fleet_instructions;
    r.requests = report.processes.size();

    const bool fleet_ok =
        expected_.matches("rounds", report.rounds) &&
        expected_.matches("fleet_instructions", report.fleet_instructions) &&
        expected_.matches("fleet_cycles", report.fleet_cycles);
    uint64_t bad_tenants = 0;
    for (const os::ProcessReport& p : report.processes) {
      if (p.exit != "halted" && p.exit != "budget") ++bad_tenants;
    }
    checks_.record(shape_.tenants, fleet_ok ? bad_tenants : shape_.tenants,
                   "fleet " + std::to_string(shape_.cores) + "x" +
                       std::to_string(shape_.tenants) +
                       ": rounds=" + std::to_string(report.rounds) +
                       " fleet_instructions=" +
                       std::to_string(report.fleet_instructions) +
                       " fleet_cycles=" + std::to_string(report.fleet_cycles) +
                       " tenants not halted or at budget=" +
                       std::to_string(bad_tenants));
    return r;
  }

 private:
  uint64_t seed_;
  FleetShape shape_;
};

enum class ServeVariant { kFull, kNoRerand, kNoTaint };

const char* variant_name(ServeVariant v) {
  switch (v) {
    case ServeVariant::kFull:
      return "full";
    case ServeVariant::kNoRerand:
      return "no_rerand";
    case ServeVariant::kNoTaint:
      return "no_taint";
  }
  return "?";
}

// serve-rerand: BENCH_serve's 8-tenant open-loop mix on 4 cores under
// continuous incremental re-randomization and taint tracking. Arrivals
// come at fixed gaps rather than BENCH_serve's exponential ones, so every
// seed serves the same number of requests and runs with different seeds
// do the same work; the seed still drives placements and request bodies.
// The variants switch one mechanism off for the differencing twins of
// the traced run.
serve::ServeConfig serve_config(uint64_t seed, uint64_t duration,
                                ServeVariant variant) {
  serve::ServeConfig sc;
  sc.tenants = 8;
  sc.cores = 4;
  sc.duration = duration;
  sc.model = serve::ArrivalModel::kOpen;
  sc.dist = serve::Distribution::kFixed;
  sc.mean_interarrival = 15'000;
  sc.workloads = {"server", "bzip2", "server", "mcf",
                  "server", "hmmer", "server", "libquantum"};
  sc.scale = 0;
  sc.seed = seed;
  sc.slice_instructions = 500;
  sc.pool_workers = kPoolWorkers;
  if (variant != ServeVariant::kNoRerand) {
    sc.rerandomize.every_slices = 8;
    sc.rerandomize.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
    sc.rerandomize.epoch_tags = true;
    sc.rerandomize.max_defer = 4;
  }
  sc.rerand_cost_per_entry = 2;
  sc.taint = variant != ServeVariant::kNoTaint;
  return sc;
}

// The kernel and process configurations serve::run_serve derives from a
// ServeConfig, so its set-up can be replayed and timed on its own.
os::KernelConfig serve_kernel_config(const serve::ServeConfig& sc) {
  os::KernelConfig kc;
  kc.cores = sc.cores;
  kc.sched.slice_instructions = sc.slice_instructions;
  kc.cpu.drc.entries = sc.drc_entries;
  kc.measure_isolated = false;
  kc.pool_workers = sc.pool_workers;
  kc.shared_l2.commit_shards = sc.commit_shards;
  kc.rerand_cost_per_entry = sc.rerand_cost_per_entry;
  return kc;
}

os::ProcessConfig serve_process_config(const serve::ServeConfig& sc,
                                       uint32_t i) {
  os::ProcessConfig pc;
  pc.workload = sc.workloads[i % sc.workloads.size()];
  pc.scale = sc.scale;
  pc.seed = tenant_seed(sc.seed, i);
  pc.max_instructions = sc.request_budget;
  pc.enforce_tags = sc.enforce_tags;
  pc.restart = sc.restart;
  pc.rerandomize = sc.rerandomize;
  pc.watchdog_instructions = sc.watchdog_instructions;
  pc.taint = sc.taint;
  return pc;
}

class Serve final : public Workload {
 public:
  Serve(Checks& checks, uint64_t seed, uint64_t duration)
      : Workload(checks), seed_(seed), duration_(duration) {
    const int slot = pin_slot(seed);
    if (duration == kServeDuration && slot >= 0) {
      expected_.pin("digest.full", kServeDigest[slot]);
    }
  }

  [[nodiscard]] std::vector<Input> inputs() const override {
    const serve::ServeConfig sc =
        serve_config(seed_, duration_, ServeVariant::kFull);
    std::vector<Input> out;
    for (uint32_t i = 0; i < sc.tenants; ++i) {
      const os::ProcessConfig pc = serve_process_config(sc, i);
      out.push_back({pc.workload, pc.scale, pc.seed});
    }
    return out;
  }

  Rep rep(Trace* trace) override { return run(trace, ServeVariant::kFull); }

  Rep run(Trace* trace, ServeVariant variant) {
    const serve::ServeConfig sc = serve_config(seed_, duration_, variant);
    SpanLog* log = trace != nullptr ? &trace->log : nullptr;
    Rep r;
    const auto t0 = Clock::now();
    {
      // run_serve builds its tenants internally; the same construction,
      // replayed here, is what setup_s measures.
      os::Kernel kernel(serve_kernel_config(sc));
      for (uint32_t i = 0; i < sc.tenants; ++i) {
        SpanGuard span(log, "os.spawn");
        kernel.spawn(serve_process_config(sc, i));
      }
    }
    r.setup_s = since(t0);

    const double cpu0 = cpu_seconds();
    const auto t1 = Clock::now();
    std::unique_ptr<telemetry::Telemetry> tel;
    if (trace != nullptr) tel = std::make_unique<telemetry::Telemetry>();
    serve::ServeReport report;
    {
      SpanGuard span(log, "serve.run");
      report = serve::run_serve(sc, tel.get());
      span.count(report.completed);
    }
    r.run_s = since(t1);
    r.wall_s = r.run_s;
    r.cpu_s = cpu_seconds() - cpu0;
    r.requests = report.completed;
    for (const serve::TenantReport& t : report.tenants) {
      for (const serve::RequestRecord& rec : t.records) {
        r.instructions += rec.instructions;
      }
    }
    if (tel != nullptr) {
      trace->counters["os.rounds"] += report.rounds;
      trace->counters["os.pool_rounds"] +=
          stat_count(*tel, "kernel.pool.rounds");
      trace->counters["shared_l2.accesses"] +=
          stat_count(*tel, "fleet.shared_l2.accesses");
      if (variant != ServeVariant::kNoRerand) {
        trace->counters["os.rerand.firings"] +=
            stat_count(*tel, "rerand.entries_patched");
        trace->counters["os.rerand.entries_patched"] +=
            stat_sum(*tel, "rerand.entries_patched");
      }
    }

    const std::string v = variant_name(variant);
    const uint64_t digest = fnv1a(report.to_json());
    const bool report_ok =
        report.tenants_down == 0 && report.completed != 0 &&
        expected_.matches("digest." + v, digest) &&
        expected_.matches("rounds." + v, report.rounds) &&
        expected_.matches("instructions." + v, r.instructions);
    const uint64_t bad = report.failed + report.dropped;
    checks_.record(report.generated, report_ok ? bad : report.generated,
                   std::string("serve ") + variant_name(variant) +
                       ": generated=" + std::to_string(report.generated) +
                       " completed=" + std::to_string(report.completed) +
                       " failed=" + std::to_string(report.failed) +
                       " dropped=" + std::to_string(report.dropped) +
                       " down=" + std::to_string(report.tenants_down) +
                       " digest=" + std::to_string(digest));
    return r;
  }

 private:
  uint64_t seed_;
  uint64_t duration_;
};

// ---- host-speed reference ------------------------------------------------

// A shared host runs the same repetition up to twice as slowly for
// minutes at a time, CPU time included, and every time of a run moves
// with it. Each repetition is therefore followed by a fixed piece of
// reference work, and the repetition's times are divided by how much
// slower than kReferenceSeconds the reference ran on either side of it:
// they read as seconds on a host that runs the reference in
// kReferenceSeconds. The reference calls nothing in the library, so a
// change to the library moves the corrected times as much as raw ones.
constexpr double kReferenceSeconds = 0.040;

// The reference work: an interpreter loop like the emulator's, a
// register machine stepping through a random program whose loads and
// stores hit a 4 MiB table. Program and table come from a fixed
// generator, so every run on every host does the same work.
class HostReference {
 public:
  HostReference() : program_(kOps), table_(kWords) {
    uint64_t x = 0x2545f4914f6cdd1dull;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return static_cast<uint32_t>(x);
    };
    for (uint32_t& op : program_) op = next();
    for (uint32_t& word : table_) word = next();
  }

  // Runs the reference work once; returns its wall time in seconds.
  double time() {
    const auto t0 = Clock::now();
    uint32_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    uint32_t pc = 0;
    for (uint64_t step = 0; step < kSteps; ++step) {
      const uint32_t op = program_[pc];
      const uint32_t a = (op >> 8) & 7;
      const uint32_t b = (op >> 11) & 7;
      const uint32_t c = (op >> 14) & 7;
      pc = (pc + 1) & (kOps - 1);
      switch (op & 7) {
        case 0: r[a] = r[b] + r[c]; break;
        case 1: r[a] = r[b] ^ (r[c] << 3); break;
        case 2: r[a] = table_[(r[b] + op) & (kWords - 1)]; break;
        case 3: table_[(r[b] ^ r[c]) & (kWords - 1)] = r[a]; break;
        case 4: r[a] = r[b] * 0x9e3779b1u + c; break;
        case 5:
          if ((r[b] & 1) != 0) pc = (pc + (op >> 20)) & (kOps - 1);
          break;
        case 6: r[a] = (r[b] >> (c + 1)) | r[c]; break;
        default: r[a] -= r[b] & 0xff; break;
      }
    }
    table_[0] ^= r[0] ^ r[7];  // keeps the loop's result observable
    return since(t0);
  }

 private:
  static constexpr uint32_t kOps = 1u << 12;
  static constexpr uint32_t kWords = 1u << 20;
  static constexpr uint64_t kSteps = 16'000'000;

  std::vector<uint32_t> program_;
  std::vector<uint32_t> table_;
};

// ---- untraced: the end-to-end metrics ------------------------------------

// Per-repetition samples of the end-to-end times, each multiplied by
// `scale` (1 for raw times).
struct Samples {
  std::vector<double> wall, setup, mips, rps, cpu;

  void add(const Rep& r, double scale) {
    const double run_s = r.run_s * scale;
    wall.push_back(r.wall_s * scale);
    setup.push_back(r.setup_s * scale);
    mips.push_back(static_cast<double>(r.instructions) / run_s / 1e6);
    rps.push_back(static_cast<double>(r.requests) / run_s);
    cpu.push_back(r.cpu_s * scale);
  }

  [[nodiscard]] MetricSet medians() const {
    MetricSet out;
    out.set("wall_s", median(wall), "s");
    out.set("setup_s", median(setup), "s");
    out.set("sim_mips", median(mips), "MIPS");
    out.set("req_per_s", median(rps), "1/s");
    out.set("cpu_s", median(cpu), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }
};

struct EndToEnd {
  MetricSet corrected;  // the reported metrics
  MetricSet raw;        // the same medians without the host-speed correction
  double reference_s = 0.0;  // median time of the reference work
  uint64_t reps = 0;
};

EndToEnd end_to_end(Workload& w, double seconds) {
  HostReference ref;
  w.rep(nullptr);  // warm-up: checked, not timed
  ref.time();
  Samples corrected, raw;
  std::vector<double> reference;
  double before = ref.time();
  const auto start = Clock::now();
  while (raw.wall.size() < 3 || since(start) < seconds) {
    const Rep r = w.rep(nullptr);
    const double after = ref.time();
    const double around = 0.5 * (before + after);
    before = after;
    reference.push_back(around);
    corrected.add(r, kReferenceSeconds / around);
    raw.add(r, 1.0);
  }
  return {corrected.medians(), raw.medians(), median(reference),
          raw.wall.size()};
}

// ---- traced: the per-layer metrics ---------------------------------------

double overhead_pct(const std::vector<double>& measured,
                    const std::vector<double>& base) {
  return 100.0 * (median(measured) / median(base) - 1.0);
}

// Alternates untraced and traced repetitions for `seconds`, so both see
// the same host conditions; returns the tracing overhead in percent.
double trace_window(Workload& w, Trace& trace, double seconds,
                    uint64_t* reps_out) {
  w.rep(nullptr);  // warm-up
  std::vector<double> plain, traced;
  const auto start = Clock::now();
  while (plain.size() < 2 || since(start) < seconds) {
    plain.push_back(w.rep(nullptr).wall_s);
    traced.push_back(w.rep(&trace).wall_s);
  }
  *reps_out = plain.size() + traced.size();
  return overhead_pct(traced, plain);
}

struct ServeWindow {
  std::vector<double> plain, traced, no_rerand, no_taint;
};

// serve-rerand's traced window: the untraced and traced runs plus the
// twins with re-randomization off and with taint off, round-robin.
ServeWindow serve_window(Serve& s, Trace& trace, double seconds,
                         uint64_t* reps_out) {
  s.rep(nullptr);  // warm-up
  ServeWindow w;
  const auto start = Clock::now();
  while (w.plain.size() < 2 || since(start) < seconds) {
    w.plain.push_back(s.run(nullptr, ServeVariant::kFull).wall_s);
    w.traced.push_back(s.run(&trace, ServeVariant::kFull).wall_s);
    w.no_rerand.push_back(s.run(nullptr, ServeVariant::kNoRerand).wall_s);
    w.no_taint.push_back(s.run(nullptr, ServeVariant::kNoTaint).wall_s);
  }
  *reps_out = 4 * w.plain.size();
  return w;
}

double per(double total, double n) {
  if (!(n > 0.0)) throw std::logic_error("per-unit metric over zero units");
  return total / n;
}

// os.* and cache.* from traced kernel runs: an "os.spawn" span per
// tenant and a `run_span` per run. The run's rounds come from the
// os.rounds counter when present, else from the run span's count.
void kernel_metrics(const Trace& trace, const char* run_span, MetricSet& out) {
  const auto totals = trace.log.totals();
  const SpanLog::Totals& spawn = totals.at("os.spawn");
  const SpanLog::Totals& run = totals.at(run_span);
  const auto counter = [&](const char* name) {
    const auto it = trace.counters.find(name);
    return it == trace.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double runs = static_cast<double>(run.calls);
  const double rounds = trace.counters.count("os.rounds") != 0
                            ? counter("os.rounds")
                            : static_cast<double>(run.count);
  out.set("os.spawn_ms",
          1e3 * per(spawn.total_s, static_cast<double>(spawn.calls)), "ms");
  out.set("os.run_s", per(run.total_s, runs), "s");
  out.set("os.rounds", per(rounds, runs), "count");
  out.set("os.pool_rounds", per(counter("os.pool_rounds"), runs), "count");
  out.set("os.us_per_round", 1e6 * per(run.total_s, rounds), "us");
  out.set("cache.shared_l2.accesses_per_round",
          per(counter("shared_l2.accesses"), rounds), "count");
}

void serve_metrics(const Trace& trace, const ServeWindow& w, MetricSet& out) {
  kernel_metrics(trace, "serve.run", out);
  const auto totals = trace.log.totals();
  const SpanLog::Totals& run = totals.at("serve.run");
  const double runs = static_cast<double>(run.calls);
  const double firings = per(
      static_cast<double>(trace.counters.at("os.rerand.firings")), runs);
  out.set("serve.us_per_request",
          1e6 * per(run.total_s, static_cast<double>(run.count)), "us");
  out.set("os.rerand.firings", firings, "count");
  out.set("os.rerand.entries_patched",
          per(static_cast<double>(
                  trace.counters.at("os.rerand.entries_patched")),
              runs),
          "count");
  out.set("rewriter.rerand_us_per_firing",
          1e6 * per(median(w.plain) - median(w.no_rerand), firings), "us");
  out.set("emu.taint_overhead_pct", overhead_pct(w.plain, w.no_taint), "%");
  out.set("bench.trace_overhead_pct", overhead_pct(w.traced, w.plain), "%");
}

size_t distinct_programs(const std::vector<Input>& inputs) {
  std::set<std::pair<std::string, int>> seen;
  for (const Input& in : inputs) seen.emplace(in.workload, in.scale);
  return seen.size();
}

// Replays each tenant's construction stage by stage, with the calls
// os::Process makes (make, randomize, load), so each stage gets its own
// span. Repeats whole passes until `seconds` have passed.
void setup_metrics(const std::vector<Input>& inputs, Trace& trace,
                   double seconds, MetricSet& out) {
  const auto start = Clock::now();
  uint64_t passes = 0;
  do {
    for (const Input& in : inputs) {
      const binary::Image base = timed(&trace.log, "workloads.make", [&] {
        return workloads::make(in.workload, in.scale);
      });
      const rewriter::RandomizeResult rr =
          timed(&trace.log, "rewriter.randomize",
                [&] { return rewriter::randomize(base, placement(in.seed)); });
      binary::Memory mem;
      SpanGuard span(&trace.log, "binary.load");
      binary::load(rr.vcfr, mem);
    }
    ++passes;
  } while (since(start) < seconds);

  const auto totals = trace.log.totals();
  const double distinct = static_cast<double>(distinct_programs(inputs));
  const auto& make = totals.at("workloads.make");
  const auto& randomize = totals.at("rewriter.randomize");
  const auto& load = totals.at("binary.load");
  const auto per_pass = [&](uint64_t calls) {
    return static_cast<double>(calls) / static_cast<double>(passes);
  };
  out.set("workloads.make_ms",
          1e3 * per(make.total_s, static_cast<double>(make.calls)), "ms");
  out.set("workloads.make_calls", per(per_pass(make.calls), distinct),
          "count");
  out.set("rewriter.randomize_ms",
          1e3 * per(randomize.total_s, static_cast<double>(randomize.calls)),
          "ms");
  out.set("rewriter.randomize_calls", per(per_pass(randomize.calls), distinct),
          "count");
  out.set("binary.load_ms",
          1e3 * per(load.total_s, static_cast<double>(load.calls)), "ms");
}

// Emulator::run alone and sim::simulate on one randomized image of each
// distinct program of the workload; the difference per instruction is
// the timing model's cost.
void execute_metrics(const std::vector<Input>& inputs, Trace& trace,
                     Checks& checks, double seconds, MetricSet& out) {
  std::vector<binary::Image> images;
  std::set<std::pair<std::string, int>> seen;
  for (const Input& in : inputs) {
    if (!seen.emplace(in.workload, in.scale).second) continue;
    images.push_back(rewriter::randomize(workloads::make(in.workload, in.scale),
                                         placement(in.seed))
                         .vcfr);
  }
  uint64_t hits = 0;
  uint64_t misses = 0;
  const auto start = Clock::now();
  do {
    for (const binary::Image& image : images) {
      binary::Memory mem;
      binary::load(image, mem);
      emu::Emulator emulator(image, mem);
      emu::RunResult res;
      {
        SpanGuard span(&trace.log, "emu.run");
        res = emulator.run();
        span.count(res.stats.instructions);
      }
      hits += emulator.decode_cache_stats().hits;
      misses += emulator.decode_cache_stats().misses;
      checks.record(1, res.halted && res.error.empty() ? 0 : 1,
                    "emu.run " + image.name + ": error='" + res.error + "'");
      sim::SimResult sim_res;
      {
        SpanGuard span(&trace.log, "sim.simulate");
        sim_res = sim::simulate(image, kSuiteMaxInstructions);
        span.count(sim_res.instructions);
      }
      checks.record(1, sim_res.halted && sim_res.error.empty() ? 0 : 1,
                    "sim.simulate " + image.name + ": error='" +
                        sim_res.error + "'");
    }
  } while (since(start) < seconds);

  const auto totals = trace.log.totals();
  const auto& emu_run = totals.at("emu.run");
  const auto& simulate = totals.at("sim.simulate");
  const double emu_mips =
      per(static_cast<double>(emu_run.count), emu_run.self_s) / 1e6;
  const double sim_ns =
      1e9 * per(simulate.self_s, static_cast<double>(simulate.count));
  out.set("emu.mips", emu_mips, "MIPS");
  out.set("emu.decode_cache.hit_rate",
          per(static_cast<double>(hits), static_cast<double>(hits + misses)),
          "ratio");
  out.set("emu.decode_cache.lookups",
          per(static_cast<double>(hits + misses),
              static_cast<double>(emu_run.calls)),
          "count");
  out.set("sim.ns_per_instr", sim_ns, "ns");
  out.set("sim.timing_ns_per_instr", sim_ns - 1e3 / emu_mips, "ns");
}

struct Section {
  std::string name;
  std::unique_ptr<Trace> trace;
};

Trace& add_section(std::vector<Section>& sections, const char* name) {
  sections.push_back({name, std::make_unique<Trace>()});
  return *sections.back().trace;
}

void write_spans(const std::string& path, const std::string& workload,
                 uint64_t seed, const std::vector<Section>& sections) {
  JsonWriter w;
  w.begin_object(JsonWriter::Style::kPretty);
  w.key("workload").value(workload);
  w.key("seed").value(seed);
  w.key("sections").begin_object(JsonWriter::Style::kPretty);
  for (const Section& s : sections) {
    w.key(s.name).begin_object(JsonWriter::Style::kPretty);
    w.key("self_time").begin_object(JsonWriter::Style::kPretty);
    for (const auto& [name, t] : s.trace->log.totals()) {
      w.key(name).begin_object();
      w.key("total_s").raw_value(number(t.total_s));
      w.key("self_s").raw_value(number(t.self_s));
      w.key("calls").value(t.calls);
      w.key("count").value(t.count);
      w.end_object();
    }
    w.end_object();
    w.key("counters").begin_object();
    for (const auto& [name, v] : s.trace->counters) w.key(name).value(v);
    w.end_object();
    w.key("spans");
    s.trace->log.write(w);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << "\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sim-suite|fleet-64x256|"
               "serve-rerand --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--spans") {
      o.spans = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload != "sim-suite" && o.workload != "fleet-64x256" &&
      o.workload != "serve-rerand") {
    usage("unknown or missing --workload");
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Checks& checks, uint64_t seed) {
  if (name == "sim-suite") return std::make_unique<SimSuite>(checks, seed);
  if (name == "fleet-64x256") {
    return std::make_unique<Fleet>(checks, seed, kFleetFull);
  }
  return std::make_unique<Serve>(checks, seed, kServeDuration);
}

// Each section measures the layers its workload reaches. A layer the
// workload never calls (the kernel under sim-suite, the serving layer
// under sim-suite and fleet-64x256) is measured on a short instance of
// the workload that owns it, so every traced run reports every
// per-layer metric.
MetricSet per_layer(const Options& opt, Workload& main, Checks& checks,
                    std::vector<Section>& sections, uint64_t* reps) {
  MetricSet metrics;
  Trace& own = add_section(sections, "own");
  if (opt.workload == "serve-rerand") {
    const ServeWindow w =
        serve_window(static_cast<Serve&>(main), own, opt.seconds, reps);
    serve_metrics(own, w, metrics);
  } else {
    metrics.set("bench.trace_overhead_pct",
                trace_window(main, own, opt.seconds, reps), "%");
    if (opt.workload == "fleet-64x256") {
      kernel_metrics(own, "os.run", metrics);
    } else {
      Fleet fleet(checks, opt.seed, kFleetProbe);
      Trace& t = add_section(sections, "fleet_probe");
      for (int i = 0; i < 3; ++i) fleet.rep(&t);
      MetricSet probe;
      kernel_metrics(t, "os.run", probe);
      metrics.fill(probe);
    }
    Serve serve(checks, opt.seed, kServeProbeDuration);
    Trace& t = add_section(sections, "serve_probe");
    uint64_t probe_reps = 0;
    const ServeWindow w = serve_window(serve, t, kProbeSeconds, &probe_reps);
    MetricSet probe;
    serve_metrics(t, w, probe);
    metrics.fill(probe);
  }
  setup_metrics(main.inputs(), add_section(sections, "setup"), 0.5, metrics);
  execute_metrics(main.inputs(), add_section(sections, "execute"), checks,
                  1.0, metrics);
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  origin();
  const Options opt = parse(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to time a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  try {
    Checks checks;
    const std::unique_ptr<Workload> main_workload =
        make_workload(opt.workload, checks, opt.seed);
    uint64_t reps = 0;
    MetricSet metrics;
    MetricSet raw;
    double reference_s = 0.0;
    if (opt.trace) {
      std::vector<Section> sections;
      metrics = per_layer(opt, *main_workload, checks, sections, &reps);
      metrics.require(kPerLayer);
      if (!opt.spans.empty()) {
        write_spans(opt.spans, opt.workload, opt.seed, sections);
      }
    } else {
      EndToEnd e2e = end_to_end(*main_workload, opt.seconds);
      e2e.corrected.require(kEndToEnd);
      metrics = std::move(e2e.corrected);
      raw = std::move(e2e.raw);
      reference_s = e2e.reference_s;
      reps = e2e.reps;
    }

    JsonWriter w;
    w.begin_object();
    w.key("workload").value(opt.workload);
    w.key("seed").value(opt.seed);
    w.key("pinned_seed").value(pin_slot(opt.seed) >= 0);
    w.key("held_out_seed").value(kHeldOutSeed);
    w.key("build_type").value(PERFBENCH_BUILD_TYPE);
    w.key("compiler").value(PERFBENCH_COMPILER);
    w.key("pool_workers").value(kPoolWorkers);
    w.key("reps").value(reps);
    w.key("correct").value(checks.failed == 0);
    w.key("attempted").value(checks.attempted);
    w.key("failed").value(checks.failed);
    w.key("outputs").begin_object();
    for (const auto& [key, v] : main_workload->expected().values()) {
      w.key(key).value(v);
    }
    w.end_object();
    if (!opt.trace) {
      w.key("reference_s").raw_value(number(reference_s));
      w.key("raw_metrics");
      raw.write(w);
    }
    w.key("metrics");
    metrics.write(w);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
