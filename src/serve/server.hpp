// The request-serving subsystem (ARCHITECTURE.md §12): per-tenant
// synthetic request streams driven through the fleet kernel's event
// hooks.
//
// Each tenant is one os::Process pinned to its home core. Its workload
// runs once per request: the driver re-arms the process (same
// randomization epoch — warm DRC) with the request payload, wakes it,
// and the next clean halt marks completion. Between requests the tenant
// blocks and the scheduler skips it; an all-idle core's clock is
// fast-forwarded to its next arrival so simulated time keeps moving.
//
// Determinism contract: arrivals are generated and delivered only at
// round boundaries from per-tenant splitmix64 streams, all timestamps
// are core-clock cycles, and the report/CSV renderings are fixed-order
// integer (plus %.6g derived doubles) — same seed, same bytes, any host.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/injector.hpp"
#include "os/kernel.hpp"
#include "serve/loadgen.hpp"
#include "telemetry/telemetry.hpp"

namespace vcfr::serve {

struct ServeConfig {
  uint32_t tenants = 8;
  uint32_t cores = 4;
  /// Arrival horizon in core-clock cycles: no request arrives after this.
  uint64_t duration = 200'000;
  ArrivalModel model = ArrivalModel::kOpen;
  Distribution dist = Distribution::kExponential;
  /// Mean interarrival gap (open) / think time (closed), cycles.
  uint64_t mean_interarrival = 20'000;
  /// Workload mix, cycled across tenants ("server" = the §V-A handler).
  std::vector<std::string> workloads = {"server"};
  int scale = 0;
  uint64_t seed = 7;
  uint64_t slice_instructions = 2'000;
  uint32_t drc_entries = 128;
  /// Per-request instruction budget (a life exceeding it fails kBudget).
  uint64_t request_budget = 2'000'000;
  /// Watchdog per request, in instructions (0 = off).
  uint64_t watchdog_instructions = 0;
  bool enforce_tags = true;
  os::RestartPolicy restart{};
  /// Continuous re-randomization under load (moving target while serving);
  /// defaults (all off) keep legacy serving byte-identical.
  os::RerandomizePolicy rerandomize{};
  /// Victim-core stall cycles per patched entry (os::KernelConfig knob);
  /// 0 keeps the legacy free-rerand timing model.
  uint64_t rerand_cost_per_entry = 0;
  /// Shadow taint tracking on every tenant (--taint): leaks of
  /// randomized-layout secrets are detected, attributed to the in-flight
  /// request, and journaled with provenance. Off keeps legacy serving
  /// byte-identical (report/CSV render no taint fields).
  bool taint = false;
  /// Armed corruptions, per tenant pid (same shape as `vcfr fleet`).
  std::vector<std::pair<uint32_t, fault::FaultPlan>> injections;
  // ---- rolling-window SLO monitor (0 = off) ------------------------------
  /// Latency percentile the objective is set on (500 = p50, 990 = p99,
  /// 999 = p999), evaluated per tenant over tumbling windows.
  uint32_t slo_permille = 0;
  /// The objective: windowed percentile must stay <= this many cycles.
  uint64_t slo_threshold = 0;
  /// Tumbling-window width in core-clock cycles.
  uint64_t slo_window = 50'000;
  /// Execute-phase worker-pool size; 0 = auto (cores - 1). Host
  /// parallelism only — simulated results are bit-identical.
  uint32_t pool_workers = 0;
  /// Ignored: perfbench/ still assigns it; the next benchmark change drops it.
  uint32_t commit_shards = 8;
};

/// One request's full lifecycle, all timestamps on the tenant's home-core
/// clock.
struct RequestRecord {
  uint64_t id = 0;  // per-tenant sequence number, from 0
  uint64_t arrival = 0;
  uint64_t dispatch = 0;    // left the queue / delivered to the process
  uint64_t completion = 0;  // clean halt, or the crash/kill cycle
  uint64_t instructions = 0;
  bool failed = false;  // life ended in fault/watchdog/budget, not a halt
  // Critical-path decomposition; the four components tile the latency:
  //   queue + run + restart_loss + commit_stall == completion - arrival.
  uint64_t queue_cycles = 0;         // waiting in queue / preempted
  uint64_t run_cycles = 0;           // slices + dispatch overhead
  uint64_t restart_loss_cycles = 0;  // crash->restart downtime overlap
  uint64_t commit_stall_cycles = 0;  // shared-L2 round-commit penalties
  // Taint-sink firings attributed to this request (ServeConfig.taint
  // only; both stay 0 otherwise).
  uint64_t leaks = 0;
  uint32_t leak_depth = 0;  // deepest propagation chain among them

  [[nodiscard]] uint64_t latency() const { return completion - arrival; }
  bool operator==(const RequestRecord&) const = default;
};

struct TenantReport {
  uint32_t pid = 0;
  std::string workload;
  uint32_t core = 0;
  uint64_t generated = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  /// Requests still queued/armed when the tenant went down unrecovered.
  uint64_t dropped = 0;
  uint32_t restarts = 0;
  bool down = false;  // left the fleet with no restart coming
  uint64_t queue_peak = 0;
  /// Exact nearest-rank percentiles over completed-request latencies.
  uint64_t p50 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t max = 0;
  /// Mean queue wait (dispatch - arrival) of completed requests.
  double mean_wait = 0.0;
  /// SLO windows evaluated / breached for this tenant (0 when no SLO set).
  uint64_t slo_windows = 0;
  uint64_t slo_breaches = 0;
  /// Request-attributed taint-sink firings (ServeConfig.taint only).
  uint64_t leaks = 0;
  uint32_t leak_depth_max = 0;
  std::vector<RequestRecord> records;
};

struct ServeReport {
  uint64_t rounds = 0;
  uint64_t fleet_cycles = 0;
  uint64_t generated = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t dropped = 0;
  uint32_t tenants_down = 0;
  /// Completed requests per million fleet cycles.
  double throughput_per_mcycle = 0.0;

  // ---- SLO monitor results (rendered only when an SLO was set, so the
  // JSON of an un-monitored run — BENCH_serve.json — is byte-unchanged) --
  bool slo_enabled = false;
  std::string slo_metric;       // "p50" / "p99" / "p999"
  uint64_t slo_threshold = 0;   // cycles
  uint64_t slo_window = 0;      // cycles
  uint64_t slo_windows = 0;     // tenant-windows evaluated (>=1 completion)
  uint64_t slo_breaches = 0;    // of those, windows over the threshold
  /// Fraction of evaluated windows that breached (error-budget burn).
  double slo_burn_rate = 0.0;
  /// The objective percentile over *all* completed requests, fleet-wide.
  uint64_t slo_overall = 0;
  /// slo_overall > slo_threshold — gates `vcfr serve` exit status (2).
  bool slo_violated = false;

  // ---- leak telemetry (rendered only when ServeConfig.taint was set, so
  // an untainted run's JSON/CSV — BENCH_serve.json — is byte-unchanged) --
  bool taint_enabled = false;
  /// Kernel-wide sink firings (includes boot-life leaks outside requests).
  uint64_t leaks = 0;
  /// Fresh placements scheduled by --rerand-on-leak.
  uint64_t leak_rerands = 0;

  std::vector<TenantReport> tenants;

  /// Deterministic JSON (fixed key order, integers + %.6g doubles).
  [[nodiscard]] std::string to_json() const;
  /// Per-request CSV, rows sorted by (tenant, request id).
  [[nodiscard]] std::string latency_csv() const;
  /// Short human-readable digest for the CLI.
  [[nodiscard]] std::string summary() const;
};

/// One latency-CSV row: the tenant and the record the row renders.
struct LatencyRow {
  uint32_t tenant = 0;
  RequestRecord record;

  bool operator==(const LatencyRow&) const = default;
};

struct LatencyCsv {
  bool taint = false;  // the --taint header, with leaks,leak_depth
  std::vector<LatencyRow> rows;
};

/// Reads back exactly what ServeReport::latency_csv() writes: one of its
/// two headers, and rows whose latency/wait columns agree with their
/// timestamps. Throws binary::FormatError (kTruncated / kImplausible)
/// prefixed "name:line: ".
[[nodiscard]] LatencyCsv read_latency_csv(std::string_view text,
                                          const std::string& name);

/// Exact nearest-rank percentile over a sorted ascending sample vector:
/// the k-th smallest with k = ceil(permille/1000 * n), clamped to [1, n].
/// Returns 0 for an empty vector.
[[nodiscard]] uint64_t nearest_rank_permille(
    const std::vector<uint64_t>& sorted, uint32_t permille);

/// Display name for an SLO percentile ("p50" / "p99" / "p999"; other
/// permille values render as "p<permille>m").
[[nodiscard]] std::string slo_metric_name(uint32_t permille);

/// Builds the fleet, spawns the tenants, drives the request streams to
/// completion, and returns the report. `telemetry` (optional) receives
/// fleet.* as usual plus the fleet.serve.* serving counters.
[[nodiscard]] ServeReport run_serve(const ServeConfig& config,
                                    telemetry::Telemetry* telemetry = nullptr);

}  // namespace vcfr::serve
