// Request observability (ARCHITECTURE.md §13): per-request critical-path
// conservation, Chrome flow-event matching, the flight-recorder journal,
// the rolling-window SLO monitor, and the observer-neutrality contract —
// attaching telemetry must not move a single simulated cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace vcfr::serve {
namespace {

using telemetry::JournalEntry;
using telemetry::JournalKind;
using telemetry::Telemetry;
using telemetry::TelemetryConfig;
using telemetry::TraceEvent;
using telemetry::TraceEventType;

ServeConfig small_config() {
  ServeConfig sc;
  sc.tenants = 8;
  sc.cores = 4;
  sc.duration = 100'000;
  sc.mean_interarrival = 10'000;
  sc.seed = 7;
  return sc;
}

ServeConfig inject_config() {
  ServeConfig sc;
  sc.tenants = 4;
  sc.cores = 2;
  sc.duration = 100'000;
  sc.mean_interarrival = 5'000;
  sc.seed = 7;
  sc.restart.mode = os::RestartPolicy::Mode::kOnFault;
  fault::FaultPlan plan;
  plan.site = fault::FaultSite::kCodeByte;
  plan.at_instruction = 50;
  plan.seed = 3;
  sc.injections.emplace_back(2u, plan);
  return sc;
}

TelemetryConfig full_telemetry() {
  TelemetryConfig tc;
  tc.trace = true;
  tc.journal = true;
  return tc;
}

// ---- conservation -------------------------------------------------------

// The tentpole invariant: the four critical-path components tile every
// request's latency exactly, across the whole config matrix (clean runs,
// closed loop, injected faults with restart, injected faults that take
// the tenant down).
TEST(ReqTraceTest, SpanConservationAcrossSuite) {
  std::vector<ServeConfig> configs;
  configs.push_back(small_config());
  {
    ServeConfig sc = small_config();
    sc.model = ArrivalModel::kClosed;
    configs.push_back(sc);
  }
  configs.push_back(inject_config());
  {
    ServeConfig sc = inject_config();
    sc.restart.mode = os::RestartPolicy::Mode::kNever;  // tenant goes down
    configs.push_back(sc);
  }
  for (const ServeConfig& sc : configs) {
    const ServeReport r = run_serve(sc);
    ASSERT_GT(r.generated, 0u);
    for (const TenantReport& t : r.tenants) {
      for (const RequestRecord& rec : t.records) {
        const uint64_t latency = rec.completion - rec.arrival;
        EXPECT_EQ(rec.queue_cycles + rec.run_cycles +
                      rec.restart_loss_cycles + rec.commit_stall_cycles,
                  latency)
            << "tenant " << t.pid << " request " << rec.id;
      }
    }
  }
}

TEST(ReqTraceTest, FailedRequestsHaveNoRestartLoss) {
  ServeConfig sc = inject_config();
  sc.restart.mode = os::RestartPolicy::Mode::kNever;
  const ServeReport r = run_serve(sc);
  ASSERT_GT(r.failed, 0u);
  for (const TenantReport& t : r.tenants) {
    for (const RequestRecord& rec : t.records) {
      // A failed request *is* the crash: its completion stamp is the
      // down-interval's start, so no downtime can overlap it.
      if (rec.failed) {
        EXPECT_EQ(rec.restart_loss_cycles, 0u);
      }
    }
  }
}

TEST(ReqTraceTest, RestartLossAppearsAfterRecovery) {
  const ServeReport r = run_serve(inject_config());
  uint64_t loss = 0;
  for (const TenantReport& t : r.tenants) {
    for (const RequestRecord& rec : t.records) loss += rec.restart_loss_cycles;
  }
  // Tenant 2 crashes mid-flight and restarts; the requests queued behind
  // the crash must absorb the downtime as restart loss.
  EXPECT_GT(loss, 0u);
}

// ---- determinism --------------------------------------------------------

TEST(ReqTraceTest, SameSeedTraceAndJournalByteIdentical) {
  for (const ServeConfig& sc : {small_config(), inject_config()}) {
    Telemetry a(full_telemetry());
    Telemetry b(full_telemetry());
    (void)run_serve(sc, &a);
    (void)run_serve(sc, &b);
    EXPECT_EQ(a.tracer()->to_chrome_json(), b.tracer()->to_chrome_json());
    EXPECT_EQ(a.journal()->to_jsonl(), b.journal()->to_jsonl());
  }
}

// ---- flow events --------------------------------------------------------

TEST(ReqTraceTest, FlowsMatched) {
  for (const ServeConfig& sc : {small_config(), inject_config()}) {
    Telemetry tel(full_telemetry());
    const ServeReport r = run_serve(sc, &tel);
    // Every request flow must have exactly one start and one terminating
    // end, and a start for every generated request.
    std::map<uint64_t, uint64_t> starts, ends;
    uint64_t start_events = 0;
    for (const telemetry::TraceLane* lane : tel.tracer()->lanes()) {
      for (const TraceEvent& e : lane->events()) {
        if (e.type == TraceEventType::kReqFlowStart) {
          ++starts[e.arg];
          ++start_events;
        }
        if (e.type == TraceEventType::kReqFlowEnd) ++ends[e.arg];
      }
    }
    EXPECT_EQ(start_events, r.generated);
    EXPECT_EQ(starts.size(), ends.size());
    for (const auto& [fid, n] : starts) {
      EXPECT_EQ(n, 1u) << "flow " << fid;
      ASSERT_EQ(ends.count(fid), 1u) << "flow " << fid << " never ends";
      EXPECT_EQ(ends.at(fid), 1u) << "flow " << fid;
    }
    const auto counts = tel.tracer()->event_counts();
    EXPECT_EQ(counts.at("req.s"), r.generated);
    EXPECT_EQ(counts.at("req.f"), r.generated);
  }
}

TEST(ReqTraceTest, FlowIdsAreUniquePerRequest) {
  EXPECT_NE(telemetry::request_flow_id(0, 0), telemetry::request_flow_id(1, 0));
  EXPECT_NE(telemetry::request_flow_id(0, 1), telemetry::request_flow_id(1, 0));
  EXPECT_EQ(telemetry::request_flow_id(2, 7), telemetry::request_flow_id(2, 7));
}

// Request span events land on the tenant's home-core lane with the flow
// id as the arg, and their per-request durations reproduce the CSV.
TEST(ReqTraceTest, SpanEventsMatchRecords) {
  Telemetry tel(full_telemetry());
  const ServeReport r = run_serve(small_config(), &tel);
  std::map<uint64_t, std::map<TraceEventType, uint64_t>> span_dur;
  for (const telemetry::TraceLane* lane : tel.tracer()->lanes()) {
    for (const TraceEvent& e : lane->events()) {
      switch (e.type) {
        case TraceEventType::kReqQueue:
        case TraceEventType::kReqRun:
        case TraceEventType::kReqRestartLoss:
        case TraceEventType::kReqCommitStall:
          span_dur[e.arg][e.type] += e.dur;
          break;
        default:
          break;
      }
    }
  }
  for (const TenantReport& t : r.tenants) {
    for (const RequestRecord& rec : t.records) {
      const uint64_t fid = telemetry::request_flow_id(t.pid, rec.id);
      const auto it = span_dur.find(fid);
      ASSERT_NE(it, span_dur.end()) << "no spans for flow " << fid;
      const auto get = [&](TraceEventType ty) {
        const auto jt = it->second.find(ty);
        return jt == it->second.end() ? 0u : jt->second;
      };
      EXPECT_EQ(get(TraceEventType::kReqQueue), rec.queue_cycles);
      EXPECT_EQ(get(TraceEventType::kReqRun), rec.run_cycles);
      EXPECT_EQ(get(TraceEventType::kReqRestartLoss),
                rec.restart_loss_cycles);
      EXPECT_EQ(get(TraceEventType::kReqCommitStall),
                rec.commit_stall_cycles);
    }
  }
}

// ---- journal ------------------------------------------------------------

TEST(ReqTraceTest, JournalRecordsLifecycle) {
  ServeConfig sc = inject_config();
  sc.restart.mode = os::RestartPolicy::Mode::kNever;
  Telemetry tel(full_telemetry());
  const ServeReport r = run_serve(sc, &tel);
  ASSERT_GT(r.tenants_down, 0u);
  uint64_t spawns = 0, faults = 0, downs = 0;
  for (const JournalEntry& e : tel.journal()->entries()) {
    if (e.kind == JournalKind::kSpawn) ++spawns;
    if (e.kind == JournalKind::kFault) {
      ++faults;
      EXPECT_EQ(e.pid, 2u);
      EXPECT_GE(e.req, 0);  // the fault hit while a request was in flight
      EXPECT_FALSE(e.detail.empty());
    }
    if (e.kind == JournalKind::kTenantDown) {
      ++downs;
      EXPECT_EQ(e.pid, 2u);
    }
  }
  EXPECT_EQ(spawns, sc.tenants);
  EXPECT_EQ(faults, 1u);
  EXPECT_EQ(downs, 1u);
  // The JSONL reads back to the entries it rendered, including a detail
  // that needs each kind of escape json_escape writes.
  tel.journal()->log({.cycle = 1, .kind = JournalKind::kFault, .pid = 3,
                      .req = 9, .arg = 4, .detail = "q\"b\\s\x01\n"});
  EXPECT_EQ(telemetry::read_jsonl(tel.journal()->to_jsonl(), "journal.jsonl"),
            tel.journal()->entries());
}

TEST(ReqTraceTest, JournalRecordsRestarts) {
  Telemetry tel(full_telemetry());
  (void)run_serve(inject_config(), &tel);
  const auto counts = tel.journal()->counts();
  EXPECT_EQ(counts.count("tenant_down"), 0u);  // recovery, not loss
  ASSERT_EQ(counts.count("restart"), 1u);
  EXPECT_GE(counts.at("restart"), 1u);
}

// ---- SLO monitor --------------------------------------------------------

TEST(ReqTraceTest, SloMonitorCountsAndGates) {
  ServeConfig sc = small_config();
  sc.slo_permille = 990;
  sc.slo_threshold = 1;  // impossible: every window breaches
  sc.slo_window = 25'000;
  const ServeReport tight = run_serve(sc);
  EXPECT_TRUE(tight.slo_enabled);
  EXPECT_EQ(tight.slo_metric, "p99");
  EXPECT_GT(tight.slo_windows, 0u);
  EXPECT_EQ(tight.slo_breaches, tight.slo_windows);
  EXPECT_DOUBLE_EQ(tight.slo_burn_rate, 1.0);
  EXPECT_TRUE(tight.slo_violated);
  EXPECT_GT(tight.slo_overall, 1u);

  sc.slo_threshold = 1'000'000'000;  // unreachable: nothing breaches
  const ServeReport loose = run_serve(sc);
  EXPECT_EQ(loose.slo_breaches, 0u);
  EXPECT_DOUBLE_EQ(loose.slo_burn_rate, 0.0);
  EXPECT_FALSE(loose.slo_violated);
  // Same runs, same windows — only the verdict moves with the threshold.
  EXPECT_EQ(loose.slo_windows, tight.slo_windows);

  // Tenant windows/breaches roll up to the fleet totals.
  uint64_t windows = 0, breaches = 0;
  for (const TenantReport& t : tight.tenants) {
    windows += t.slo_windows;
    breaches += t.slo_breaches;
  }
  EXPECT_EQ(windows, tight.slo_windows);
  EXPECT_EQ(breaches, tight.slo_breaches);
}

TEST(ReqTraceTest, SloSectionOnlyWhenEnabled) {
  const ServeReport off = run_serve(small_config());
  EXPECT_FALSE(off.slo_enabled);
  EXPECT_EQ(off.to_json().find("\"slo\""), std::string::npos);

  ServeConfig sc = small_config();
  sc.slo_permille = 500;
  sc.slo_threshold = 10'000;
  const ServeReport on = run_serve(sc);
  EXPECT_NE(on.to_json().find("\"slo\""), std::string::npos);
  EXPECT_EQ(on.slo_metric, "p50");
}

TEST(ReqTraceTest, SloMetricNames) {
  EXPECT_EQ(slo_metric_name(500), "p50");
  EXPECT_EQ(slo_metric_name(990), "p99");
  EXPECT_EQ(slo_metric_name(999), "p999");
  EXPECT_EQ(slo_metric_name(750), "p750m");
}

// ---- observer neutrality ------------------------------------------------

// Attaching the full observability stack must not change a single
// simulated cycle: the report and CSV are byte-identical with and
// without telemetry. This is what lets BENCH_serve.json stay untraced
// while BENCH_trace.json pins the traced view of the same run.
TEST(ReqTraceTest, ObserverNeutral) {
  for (const ServeConfig& sc : {small_config(), inject_config()}) {
    const ServeReport bare = run_serve(sc);
    Telemetry tel(full_telemetry());
    const ServeReport traced = run_serve(sc, &tel);
    EXPECT_EQ(bare.to_json(), traced.to_json());
    EXPECT_EQ(bare.latency_csv(), traced.latency_csv());
  }
}

// The latency CSV reads back to the records it rendered: a plain run, a
// run with failed requests, and a --taint run with the leak columns.
TEST(ReqTraceTest, LatencyCsvCarriesComponents) {
  ServeConfig leaky = small_config();
  leaky.workloads = {"leaky", "server"};
  leaky.taint = true;
  for (const ServeConfig& sc : {small_config(), inject_config(), leaky}) {
    const ServeReport r = run_serve(sc);
    if (sc.taint) {
      EXPECT_GT(r.leaks, 0u);  // the leak columns carry data
    }
    std::vector<LatencyRow> want;
    for (const TenantReport& t : r.tenants) {
      std::vector<RequestRecord> records = t.records;
      std::sort(records.begin(), records.end(),
                [](const RequestRecord& a, const RequestRecord& b) {
                  return a.id < b.id;
                });
      for (const RequestRecord& rec : records) want.push_back({t.pid, rec});
    }
    const LatencyCsv csv = read_latency_csv(r.latency_csv(), "latency.csv");
    EXPECT_EQ(csv.taint, sc.taint);
    EXPECT_EQ(csv.rows, want);
  }
}

}  // namespace
}  // namespace vcfr::serve
