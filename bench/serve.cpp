// BENCH_serve.json and BENCH_trace.json: a pinned 8-tenant mix (the §V-A
// server handler interleaved with four SPEC-like programs) driven
// through the event-driven serve subsystem.
//
// BENCH_serve.json's "simulated" section is the full deterministic
// report: rounds, fleet cycles, request accounting, throughput, and
// per-tenant latency percentiles in fleet-clock cycles.
//
// BENCH_trace.json comes from a second, fully-traced run of the same
// config: per-label trace event counts, flow matching, and journal entry
// counts by kind. The serve run stays untraced so the BENCH_serve
// numbers keep proving the serve path is observer-neutral.
#include "serve/server.hpp"
#include "snapshot.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/telemetry.hpp"

namespace vcfr::bench {
namespace {

serve::ServeConfig reference_config() {
  serve::ServeConfig sc;
  sc.tenants = 8;
  sc.cores = 4;
  sc.duration = 300'000;
  sc.model = serve::ArrivalModel::kOpen;
  sc.dist = serve::Distribution::kExponential;
  sc.mean_interarrival = 15'000;
  sc.workloads = {"server", "bzip2", "server", "mcf",
                  "server", "hmmer", "server", "libquantum"};
  sc.scale = 0;
  sc.seed = 7;
  sc.slice_instructions = 2'000;
  return sc;
}

}  // namespace

std::string serve_snapshot() {
  const serve::ServeConfig sc = reference_config();
  const serve::ServeReport report = serve::run_serve(sc);

  // to_json already renders the full deterministic report (pretty,
  // trailing newline stripped to nest cleanly).
  std::string simulated = report.to_json();
  while (!simulated.empty() && simulated.back() == '\n') simulated.pop_back();

  using telemetry::JsonWriter;
  JsonWriter w;
  w.begin_object(JsonWriter::Style::kPretty);
  w.key("bench").value("serve");
  w.key("config").begin_object();
  w.key("tenants").value(sc.tenants);
  w.key("cores").value(sc.cores);
  w.key("duration").value(sc.duration);
  w.key("arrival").value("open");
  w.key("dist").value("exp");
  w.key("interarrival").value(sc.mean_interarrival);
  w.key("scale").value(static_cast<uint64_t>(sc.scale));
  w.key("seed").value(sc.seed);
  w.key("slice").value(sc.slice_instructions);
  w.end_object();
  w.key("simulated").raw_value(simulated);
  w.end_object();
  return w.str() + "\n";
}

std::string trace_snapshot() {
  // Flight recorder + tracer on: the counts below pin the observability
  // surface (event mix, flow matching, journal kinds) the same way
  // BENCH_serve pins the latency numbers.
  telemetry::TelemetryConfig tc;
  tc.trace = true;
  tc.journal = true;
  telemetry::Telemetry tel(tc);
  const serve::ServeReport traced = serve::run_serve(reference_config(), &tel);

  using telemetry::JsonWriter;
  JsonWriter tw;
  tw.begin_object(JsonWriter::Style::kPretty);
  tw.key("bench").value("serve-trace");
  tw.key("simulated").begin_object();
  tw.key("rounds").value(traced.rounds);
  tw.key("completed").value(traced.completed);
  tw.key("trace").begin_object();
  tw.key("dropped").value(tel.tracer()->dropped());
  tw.key("events").begin_object();
  for (const auto& [label, n] : tel.tracer()->event_counts()) {
    tw.key(label).value(n);
  }
  tw.end_object();
  tw.end_object();
  tw.key("journal").begin_object();
  tw.key("entries").value(static_cast<uint64_t>(tel.journal()->entries().size()));
  tw.key("dropped").value(tel.journal()->dropped());
  tw.key("by_kind").begin_object();
  for (const auto& [kind, n] : tel.journal()->counts()) {
    tw.key(kind).value(n);
  }
  tw.end_object();
  tw.end_object();
  tw.end_object();
  tw.end_object();
  return tw.str() + "\n";
}

}  // namespace vcfr::bench
