// Tests for the telemetry subsystem (src/telemetry/): JSON writer
// escaping and layout, registry scoping and duplicate detection,
// histogram bucket edges, tracer ring wraparound and deterministic
// export, sampler interval semantics, byte-identical telemetry across
// two same-seed fleet runs, and pinned digests of every kernel event
// export.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "os/kernel.hpp"
#include "serve/server.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/stat_registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace vcfr::telemetry {
namespace {

// ---- json_writer ----

TEST(JsonWriterTest, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonWriterTest, CompactAndPrettyContainers) {
  JsonWriter w;
  w.begin_object(JsonWriter::Style::kPretty);
  w.key("a").value(uint64_t{1});
  w.key("b").begin_object();
  w.key("x").value(2);
  w.key("y").value(true);
  w.end_object();
  w.key("c").begin_array();
  w.value(uint64_t{1});
  w.value(uint64_t{2});
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": {\"x\": 2, \"y\": true},\n"
            "  \"c\": [1, 2]\n"
            "}");
}

TEST(JsonWriterTest, DoubleRenderingIsStable) {
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(json_double(0.105398), "0.105398");
  EXPECT_EQ(json_double(1.0 / 3.0), "0.333333");
}

// ---- stat registry ----

TEST(StatRegistryTest, ScopesComposeDottedNames) {
  StatRegistry reg;
  uint64_t hits = 7;
  const Scope l1 = reg.root().scope("fleet").scope("core0").scope("il1");
  l1.counter("hits", &hits);
  reg.root().scope("fleet").gauge("ipc", [] { return 0.5; });

  ASSERT_EQ(reg.stats().size(), 2u);
  const auto& stats = reg.stats();
  ASSERT_TRUE(stats.count("fleet.core0.il1.hits"));
  ASSERT_TRUE(stats.count("fleet.ipc"));
  EXPECT_EQ(stats.at("fleet.core0.il1.hits").count_value(), 7u);
  hits = 8;
  EXPECT_EQ(stats.at("fleet.core0.il1.hits").count_value(), 8u)
      << "counters are live bindings, not snapshots";
  EXPECT_DOUBLE_EQ(stats.at("fleet.ipc").value(), 0.5);
}

TEST(StatRegistryTest, DuplicateNamesThrow) {
  StatRegistry reg;
  uint64_t cell = 0;
  reg.root().counter("x", &cell);
  EXPECT_THROW(reg.root().counter("x", &cell), std::logic_error);
  EXPECT_THROW(reg.root().gauge("x", [] { return 0.0; }), std::logic_error);
}

TEST(StatRegistryTest, UnattachedScopeIsInert) {
  Scope scope;  // no registry behind it
  uint64_t cell = 0;
  EXPECT_FALSE(scope.attached());
  scope.counter("x", &cell);                     // must not crash
  scope.counter_fn("y", [] { return 1ull; });    // must not crash
  scope.gauge("z", [] { return 1.0; });          // must not crash
  EXPECT_EQ(scope.histogram("h"), nullptr);
}

TEST(StatRegistryTest, FreezeCapturesValuesFromDyingComponents) {
  StatRegistry reg;
  {
    uint64_t cell = 41;
    reg.root().counter("c", &cell);
    reg.root().gauge("g", [&cell] { return static_cast<double>(cell) / 2; });
    cell = 42;
    reg.freeze();
  }  // cell is gone; reads must use the captured values
  EXPECT_EQ(reg.stats().at("c").count_value(), 42u);
  EXPECT_DOUBLE_EQ(reg.stats().at("g").value(), 21.0);
}

TEST(HistogramTest, BucketEdgesAreLog2) {
  // Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of((1ull << 33) - 1), 33u);

  Histogram h(4);  // tiny: overflow clamps into the last bucket
  h.record(0);
  h.record(1);
  h.record(100);  // bucket_of = 7, clamped to 3
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 101u);
  EXPECT_EQ(h.max(), 100u);
}

TEST(HistogramTest, ZeroAndSaturatingValueEdges) {
  // The unclamped bucket index is the bit width: 0 maps to the dedicated
  // zero bucket, UINT64_MAX to index 64, clamped into the last bucket.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 64u);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX >> 1), 63u);

  Histogram h;  // default 32 buckets
  h.record(0);
  h.record(UINT64_MAX);
  EXPECT_EQ(h.buckets()[0], 1u) << "zero lands in the zero bucket";
  EXPECT_EQ(h.buckets()[31], 1u) << "UINT64_MAX clamps into the last bucket";
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), UINT64_MAX);
  EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(HistogramTest, EdgeValuesRenderDeterministicallyInJson) {
  StatRegistry reg;
  Histogram* h = reg.root().histogram("h");
  h->record(0);
  h->record(UINT64_MAX);

  // Bucket 0 and bucket 31 are occupied; the 30 in between render as
  // explicit zeros (only *trailing* zero buckets are dropped).
  std::string buckets = "\"buckets\": [1";
  for (int i = 0; i < 30; ++i) buckets += ", 0";
  buckets += ", 1]";
  const std::string json = reg.to_json();
  EXPECT_NE(json.find(buckets), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 18446744073709551615"), std::string::npos)
      << "sum must not be rendered through a double";
  EXPECT_NE(json.find("\"max\": 18446744073709551615"), std::string::npos);
  // Percentiles in the JSON shape: p50 selects the zero sample, p99/p999
  // the saturating sample (single-sample last bucket reports max).
  EXPECT_NE(json.find("\"p50\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\": 1.84467e+19"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\": 1.84467e+19"), std::string::npos) << json;
}

TEST(HistogramTest, PercentileEdgeCases) {
  // Empty histogram: every percentile is 0.
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(99.9), 0.0);

  // All zeros: the dedicated zero bucket reports exactly 0.
  Histogram zeros;
  for (int i = 0; i < 10; ++i) zeros.record(0);
  EXPECT_DOUBLE_EQ(zeros.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(zeros.percentile(100.0), 0.0);

  // Single sample: every percentile reports that bucket's low edge (and
  // the last bucket reports max() exactly, so UINT64_MAX round-trips).
  Histogram one;
  one.record(6);  // bucket [4, 7]
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(one.percentile(50.0), 4.0);
  EXPECT_DOUBLE_EQ(one.percentile(100.0), 4.0);

  Histogram sat;
  sat.record(UINT64_MAX);  // clamps into the last bucket; max() is its top
  EXPECT_DOUBLE_EQ(sat.percentile(50.0), static_cast<double>(UINT64_MAX));
  EXPECT_DOUBLE_EQ(sat.percentile(99.9), static_cast<double>(UINT64_MAX));

  // Interpolation across a bucket: three samples in [8, 15] place the
  // first at the low edge, the last at the high edge, the middle halfway.
  Histogram tri;
  tri.record(8);
  tri.record(9);
  tri.record(15);
  EXPECT_DOUBLE_EQ(tri.percentile(1.0), 8.0);
  EXPECT_DOUBLE_EQ(tri.percentile(50.0), 11.5);
  EXPECT_DOUBLE_EQ(tri.percentile(100.0), 15.0);

  // Mixed buckets: ranks route to the right bucket before interpolating.
  Histogram mix;
  for (int i = 0; i < 99; ++i) mix.record(1);
  mix.record(1000);  // bucket [512, 1023], single sample -> low edge... but
                     // it is the last occupied, not the clamp bucket.
  EXPECT_DOUBLE_EQ(mix.percentile(50.0), 1.0);
  EXPECT_DOUBLE_EQ(mix.percentile(99.0), 1.0);
  EXPECT_DOUBLE_EQ(mix.percentile(100.0), 512.0);
}

// ---- tracer ----

TEST(TracerTest, RingWrapsKeepingMostRecentEvents) {
  TraceLane lane(0, 4);
  for (uint64_t i = 0; i < 6; ++i) {
    lane.instant(TraceEventType::kDrcMiss, 0, /*cycle=*/i, /*arg=*/i);
  }
  EXPECT_EQ(lane.dropped(), 2u);
  const auto events = lane.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (cycles 0, 1) were overwritten.
  EXPECT_EQ(events.front().cycle, 2u);
  EXPECT_EQ(events.back().cycle, 5u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].cycle, events[i].cycle) << "oldest-first order";
  }
}

TEST(TracerTest, ChromeExportMergesLanesDeterministically) {
  Tracer tracer(8);
  tracer.name_lane(0, "core 0");
  tracer.name_asid(0, 3, "pid 3");
  tracer.lane(1)->span(TraceEventType::kSlice, 1, /*cycle=*/10, /*dur=*/5);
  tracer.lane(0)->instant(TraceEventType::kDrcMiss, 3, /*cycle=*/10);
  tracer.lane(0)->span(TraceEventType::kTableWalk, 3, /*cycle=*/2, /*dur=*/7);

  const std::string json = tracer.to_chrome_json();
  // Metadata first, then events sorted by (cycle, lane).
  const size_t meta = json.find("process_name");
  const size_t walk = json.find("table_walk");
  const size_t miss = json.find("drc_miss");
  const size_t slice = json.find("\"slice\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(walk, std::string::npos);
  ASSERT_NE(miss, std::string::npos);
  ASSERT_NE(slice, std::string::npos);
  EXPECT_LT(meta, walk);
  EXPECT_LT(walk, miss) << "cycle 2 sorts before cycle 10";
  EXPECT_LT(miss, slice) << "same cycle: lane 0 sorts before lane 1";
  // Spans are complete events, instants are marked as thread-scoped.
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

// ---- sampler ----

TEST(SamplerTest, PollsOnIntervalBoundaries) {
  StatRegistry reg;
  uint64_t cell = 0;
  reg.root().counter("c", &cell);
  Sampler sampler(&reg);
  sampler.set_interval(100);

  sampler.poll(50);  // before the first boundary: no row
  EXPECT_EQ(sampler.rows(), 0u);
  cell = 1;
  sampler.poll(120);  // crossed 100
  cell = 2;
  sampler.poll(130);  // same window: no new row
  cell = 3;
  sampler.poll(460);  // crossed (several) boundaries: one row
  ASSERT_EQ(sampler.rows(), 2u);

  const std::string csv = sampler.to_csv();
  EXPECT_EQ(csv,
            "cycle,c\n"
            "120,1\n"
            "460,3\n");
}

TEST(SamplerTest, LateRegisteredCountersJoinTheColumnUnion) {
  StatRegistry reg;
  uint64_t a = 1;
  reg.root().counter("a", &a);
  Sampler sampler(&reg);
  sampler.take(10);  // first epoch: only "a" exists

  // Components registered after the first snapshot (a lazily-constructed
  // core, a process spawned mid-run) must still appear in the export,
  // with the earlier rows zero-filled — not silently dropped.
  uint64_t m = 5;
  uint64_t z = 7;
  reg.root().counter("m", &m);
  reg.root().counter("z", &z);
  reg.root().gauge("g", [] { return 2.5; });
  a = 2;
  sampler.take(20);

  EXPECT_EQ(sampler.columns(),
            (std::vector<std::string>{"a", "g", "m", "z"}));
  EXPECT_EQ(sampler.to_csv(),
            "cycle,a,g,m,z\n"
            "10,1,0,0,0\n"
            "20,2,2.5,5,7\n");
  const std::string json = sampler.to_json();
  EXPECT_NE(json.find("[10, 1, 0, 0, 0]"), std::string::npos) << json;
  EXPECT_NE(json.find("[20, 2, 2.5, 5, 7]"), std::string::npos) << json;
}

TEST(SamplerTest, HistogramsExportPercentileColumns) {
  StatRegistry reg;
  Histogram* h = reg.root().histogram("lat");
  uint64_t c = 3;
  reg.root().counter("c", &c);
  for (uint64_t v = 1; v <= 100; ++v) h->record(v);
  Sampler sampler(&reg);
  sampler.take(10);

  // One p50 + one p99 column per histogram; the log2-bucket percentile is
  // an upper bucket edge, so pin the exact values the bucketing gives.
  EXPECT_EQ(sampler.columns(),
            (std::vector<std::string>{"c", "lat.p50", "lat.p99"}));
  const std::string csv = sampler.to_csv();
  std::stringstream ss(csv);
  std::string header, row;
  std::getline(ss, header);
  std::getline(ss, row);
  EXPECT_EQ(header, "cycle,c,lat.p50,lat.p99");
  // Percentiles render as %.6g doubles; both must be positive and ordered.
  const size_t c1 = row.find(',', row.find(',') + 1);
  const std::string p50s = row.substr(c1 + 1, row.find(',', c1 + 1) - c1 - 1);
  const std::string p99s = row.substr(row.rfind(',') + 1);
  EXPECT_GT(std::stod(p50s), 0.0);
  EXPECT_GE(std::stod(p99s), std::stod(p50s));
}

TEST(SamplerTest, HistogramPercentileColumnsStaySorted) {
  // "lat.p50" must not break the sorted-column invariant the zero-fill
  // merge relies on: a stat registered *under* the histogram's name
  // ("lat.alpha") sorts between "lat" and "lat.p50" in the registry walk,
  // so the derived percentile columns must be re-sorted into place.
  StatRegistry reg;
  Histogram* h = reg.root().histogram("lat");
  h->record(8);
  uint64_t a = 1;
  reg.root().scope("lat").counter("alpha", &a);
  Sampler sampler(&reg);
  sampler.take(10);
  // Adding columns later exercises the union merge against the re-sorted
  // first epoch.
  uint64_t z = 2;
  reg.root().counter("zz", &z);
  sampler.take(20);
  EXPECT_EQ(sampler.columns(),
            (std::vector<std::string>{"lat.alpha", "lat.p50", "lat.p99",
                                      "zz"}));
  const std::string csv = sampler.to_csv();
  EXPECT_NE(csv.find("cycle,lat.alpha,lat.p50,lat.p99,zz\n"),
            std::string::npos)
      << csv;
  // The zero-filled first row carries zz=0; the second carries zz=2.
  EXPECT_NE(csv.find(",0\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find(",2\n"), std::string::npos) << csv;
}

TEST(TracerTest, DroppedCountersLandInTheRegistry) {
  StatRegistry reg;
  Tracer tracer(/*lane_capacity=*/4);
  tracer.register_stats(reg.root().scope("telemetry").scope("trace"));
  TraceLane* lane = tracer.lane(0);
  for (uint64_t i = 0; i < 10; ++i) {
    lane->instant(TraceEventType::kDrcMiss, 0, i);
  }
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"telemetry.trace.dropped\": 6"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"telemetry.trace.lane0.dropped\": 6"),
            std::string::npos)
      << json;
}

TEST(TracerTest, SealedTracerStillFindsExistingLanes) {
  Tracer tracer;
  TraceLane* lane = tracer.lane(3);
  tracer.seal();
  EXPECT_TRUE(tracer.sealed());
  EXPECT_EQ(tracer.find_lane(3), lane);
  EXPECT_EQ(tracer.find_lane(9), nullptr);
  EXPECT_EQ(tracer.lane(3), lane);  // lookup of an existing lane is fine
  ASSERT_EQ(tracer.lanes().size(), 1u);
  EXPECT_EQ(tracer.lanes()[0]->lane_id(), 3u);
}

#ifndef NDEBUG
TEST(TracerDeathTest, CreatingLaneAfterSealAsserts) {
  // Lazy lane creation from a worker thread would race the parallel
  // execute phase; the kernel pre-creates every lane then seals.
  Tracer tracer;
  (void)tracer.lane(0);
  tracer.seal();
  EXPECT_DEATH((void)tracer.lane(1), "seal");
}
#endif

TEST(SamplerTest, DisabledSamplerNeverRecords) {
  StatRegistry reg;
  uint64_t cell = 0;
  reg.root().counter("c", &cell);
  Sampler sampler(&reg);
  for (uint64_t c = 0; c < 1000; c += 10) sampler.poll(c);
  EXPECT_EQ(sampler.rows(), 0u);
}

// ---- end-to-end determinism ----

os::KernelConfig fleet_config() {
  os::KernelConfig kc;
  kc.cores = 2;
  kc.sched.slice_instructions = 1000;
  kc.measure_isolated = false;
  return kc;
}

struct FleetTelemetry {
  std::string stats;
  std::string trace;
  std::string samples;
};

FleetTelemetry run_fleet_with_telemetry(uint64_t seed) {
  TelemetryConfig tc;
  tc.trace = true;
  tc.sample_interval = 2000;
  Telemetry tel(tc);

  os::Kernel kernel(fleet_config());
  kernel.attach_telemetry(&tel);
  const char* names[] = {"bzip2", "libquantum", "sjeng"};
  for (int i = 0; i < 3; ++i) {
    os::ProcessConfig pc;
    pc.workload = names[i];
    pc.scale = 0;
    pc.seed = seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
    kernel.spawn(pc);
  }
  (void)kernel.run();
  return {tel.registry().to_json(), tel.tracer()->to_chrome_json(),
          tel.sampler().to_csv()};
}

TEST(TelemetryDeterminismTest, SameSeedFleetsExportIdenticalBytes) {
  const FleetTelemetry a = run_fleet_with_telemetry(7);
  const FleetTelemetry b = run_fleet_with_telemetry(7);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.samples, b.samples);

  // The exports carry real content, not just identical emptiness.
  EXPECT_NE(a.stats.find("fleet.core0.il1.accesses"), std::string::npos);
  EXPECT_NE(a.stats.find("fleet.proc2.instructions"), std::string::npos);
  EXPECT_NE(a.trace.find("context_switch"), std::string::npos);
  EXPECT_NE(a.trace.find("round_commit"), std::string::npos);
  EXPECT_NE(a.samples.find("fleet.shared_l2.accesses"), std::string::npos);
  EXPECT_GT(a.samples.size(), a.samples.find('\n') + 1)
      << "at least one sample row";

  const FleetTelemetry c = run_fleet_with_telemetry(8);
  EXPECT_NE(a.trace, c.trace) << "different seed changes the trace";
}

// ---- journal capacity (--journal-capacity) ----

TEST(TelemetryTest, JournalCapacityBoundsRingAndCountsDrops) {
  TelemetryConfig tc;
  tc.journal = true;
  tc.journal_capacity = 4;
  Telemetry tel(tc);
  Journal* j = tel.journal();
  ASSERT_NE(j, nullptr);
  for (uint64_t i = 0; i < 10; ++i) {
    j->log({i, JournalKind::kSpawn, static_cast<uint32_t>(i), -1, 0, ""});
  }
  const auto kept = j->entries();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().cycle, 6u) << "oldest entries dropped first";
  EXPECT_EQ(j->dropped(), 6u);
  // The drop total is exported as telemetry.journal.dropped so an
  // truncated post-mortem is visible in the stats snapshot.
  EXPECT_NE(tel.registry().to_json().find(
                "\"telemetry.journal.dropped\": 6"),
            std::string::npos);
}

// ---- kernel event outputs (pinned) ----
//
// Every per-process kernel event (fault, restart, watchdog, budget,
// re-rand epoch, forced re-rand, leak, checkpoint, restore) lands in the
// trace, the journal, the stat registry and — for tenant-charged stalls —
// the profiles and the request records. These digests pin all of those
// exports for three event-heavy runs, so any reshuffle of the kernel's
// event path that changes a byte fails here.

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest of every export one run produced, in a fixed order.
uint64_t digest(const std::vector<std::string>& docs) {
  std::string all;
  for (const std::string& d : docs) all += std::to_string(fnv1a(d)) + ";";
  return fnv1a(all);
}

TelemetryConfig event_telemetry() {
  TelemetryConfig tc;
  tc.trace = true;
  tc.journal = true;
  return tc;
}

os::KernelConfig event_fleet_config() {
  os::KernelConfig kc;
  kc.cores = 3;
  kc.sched.slice_instructions = 1'500;
  kc.measure_isolated = false;
  kc.rerand_cost_per_entry = 2;
  return kc;
}

/// Six tenants on three cores: an injected code byte under on-fault
/// restart, fleet-scope re-rand on trap, incremental periodic re-rand
/// with a deferral cap of one, a watchdog victim and budget exits.
void spawn_event_fleet(os::Kernel& kernel) {
  const char* mix[] = {"bzip2", "gcc", "mcf", "hmmer", "sjeng", "libquantum"};
  for (uint32_t i = 0; i < 6; ++i) {
    os::ProcessConfig pc;
    pc.workload = mix[i];
    pc.scale = 0;
    pc.seed = 1 ^ (0x9e3779b97f4a7c15ull * (i + 1));
    pc.max_instructions = 40'000;
    pc.rerandomize.every_slices = 2;
    pc.rerandomize.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
    pc.rerandomize.epoch_tags = true;
    pc.rerandomize.on_trap = true;
    pc.rerandomize.scope = os::RerandomizePolicy::Scope::kFleet;
    pc.rerandomize.max_defer = 1;
    pc.restart.mode = os::RestartPolicy::Mode::kOnFault;
    pc.restart.backoff_rounds = 1;
    if (i == 1) {
      pc.inject.site = fault::FaultSite::kCodeByte;
      pc.inject.at_instruction = 3'000;
      pc.inject.seed = 1;
      pc.inject_enabled = true;
    }
    if (i == 0) pc.watchdog_instructions = 15'000;
    kernel.spawn(pc);
  }
}

std::vector<std::string> kernel_exports(Telemetry& tel,
                                        const os::FleetReport& report) {
  return {tel.tracer()->to_chrome_json(), tel.journal()->to_jsonl(),
          tel.registry().to_json(), report.to_json()};
}

TEST(KernelEvents, OutputsPinned) {
  // (1) The event-heavy fleet, profiled.
  {
    Telemetry tel(event_telemetry());
    os::Kernel kernel(event_fleet_config());
    kernel.attach_telemetry(&tel);
    kernel.enable_profiling();
    spawn_event_fleet(kernel);
    const os::FleetReport report = kernel.run();
    std::vector<std::string> docs = kernel_exports(tel, report);
    for (uint32_t pid = 0; pid < kernel.process_count(); ++pid) {
      profile::ProfileMeta meta;
      meta.app = kernel.process(pid).config().workload;
      meta.layout = "vcfr";
      meta.seed = kernel.process(pid).config().seed;
      meta.expected_cycles = kernel.profiler(pid)->attributed_cycles();
      docs.push_back(kernel.profiler(pid)->to_json(meta));
    }
    const auto kinds = tel.journal()->counts();
    for (const char* kind : {"spawn", "fault", "watchdog", "budget", "restart",
                             "rerand_epoch", "rerand_forced"}) {
      EXPECT_GT(kinds.count(kind), 0u) << "fleet run never journals " << kind;
    }
    EXPECT_EQ(digest(docs), 16728480523259202528ull) << "fleet";
  }
  // (2) The same fleet checkpointed at round 8, then resumed in a fresh
  // kernel. The path is relative and fixed: it is the checkpoint entry's
  // journal detail.
  const std::string path = "kernel_events_ckpt.bin";
  {
    Telemetry tel(event_telemetry());
    os::Kernel kernel(event_fleet_config());
    kernel.attach_telemetry(&tel);
    spawn_event_fleet(kernel);
    kernel.set_checkpoint(8, path);
    const os::FleetReport report = kernel.run();
    ASSERT_EQ(kernel.checkpoint_writes(), 1u);
    EXPECT_EQ(digest(kernel_exports(tel, report)), 13736626797154444548ull)
        << "checkpoint";
  }
  {
    Telemetry tel(event_telemetry());
    os::Kernel kernel(event_fleet_config());
    kernel.attach_telemetry(&tel);
    spawn_event_fleet(kernel);
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    kernel.restore(in);
    const os::FleetReport report = kernel.run();
    EXPECT_EQ(tel.journal()->counts().count("restore"), 1u);
    EXPECT_EQ(digest(kernel_exports(tel, report)), 9054899664801188151ull)
        << "restore";
  }
  std::remove(path.c_str());
  // (3) Serving leaky tenants under taint with re-key on leak.
  {
    serve::ServeConfig sc;
    sc.tenants = 4;
    sc.cores = 2;
    sc.seed = 7;
    sc.duration = 80'000;
    sc.workloads = {"leaky", "server"};
    sc.taint = true;
    sc.rerandomize.on_leak = true;
    sc.rerand_cost_per_entry = 1;
    Telemetry tel(event_telemetry());
    const serve::ServeReport report = serve::run_serve(sc, &tel);
    const auto kinds = tel.journal()->counts();
    EXPECT_GT(kinds.count("leak"), 0u);
    EXPECT_GT(kinds.count("rerand_epoch"), 0u);
    EXPECT_EQ(digest({tel.tracer()->to_chrome_json(),
                      tel.journal()->to_jsonl(), tel.registry().to_json(),
                      report.to_json(), report.latency_csv()}),
              1906001650067207094ull)
        << "serve";
  }
}

}  // namespace
}  // namespace vcfr::telemetry
