// BENCH_attrib.json: the reference workload (gcc at bench scale, seed 7)
// profiled natively and as its VCFR sibling — per-layout
// instruction/cycle counts, the full cause-bucket breakdown, the
// conservation flag (buckets sum exactly to the core's cycles), fold-back
// resolution, and the VCFR/native overhead ratio.
#include "profile/profiler.hpp"
#include "rewriter/randomizer.hpp"
#include "sim/cpu.hpp"
#include "snapshot.hpp"
#include "telemetry/json_writer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::bench {
namespace {

/// One profiled layout's section.
void emit_layout(telemetry::JsonWriter& w, const char* key,
                 const profile::Profiler& prof, const sim::SimResult& r) {
  w.key(key).begin_object(telemetry::JsonWriter::Style::kPretty);
  w.key("instructions").value(r.instructions);
  w.key("cycles").value(r.cycles);
  w.key("conserved").value(prof.attributed_cycles() == r.cycles);
  w.key("resolved_fraction")
      .raw_value(telemetry::json_double(prof.resolved_fraction()));
  w.key("causes").begin_object();
  for (size_t c = 0; c < profile::kNumCauses; ++c) {
    const auto cause = static_cast<profile::Cause>(c);
    w.key(std::string(profile::cause_name(cause)))
        .value(prof.cause_cycles(cause));
  }
  w.end_object();
  w.end_object();
}

}  // namespace

std::string attrib_snapshot() {
  const binary::Image original = workloads::make("gcc", 1);
  rewriter::RandomizeOptions ro;
  ro.seed = 7;
  const auto rr = rewriter::randomize(original, ro);

  sim::CpuConfig config;
  profile::Profiler native_prof(original);
  const auto native =
      sim::simulate(original, 200'000'000, config, nullptr, &native_prof);
  profile::Profiler vcfr_prof(rr.vcfr);
  const auto vcfr =
      sim::simulate(rr.vcfr, 200'000'000, config, nullptr, &vcfr_prof);

  const double overhead =
      native.cycles == 0 ? 0.0
                         : static_cast<double>(vcfr.cycles) /
                               static_cast<double>(native.cycles);

  telemetry::JsonWriter w;
  w.begin_object(telemetry::JsonWriter::Style::kPretty);
  w.key("bench").value("attrib");
  w.key("simulated").begin_object(telemetry::JsonWriter::Style::kPretty);
  w.key("config").begin_object();
  w.key("workload").value("gcc");
  w.key("scale").value(uint64_t{1});
  w.key("seed").value(uint64_t{7});
  w.end_object();
  emit_layout(w, "native", native_prof, native);
  emit_layout(w, "vcfr", vcfr_prof, vcfr);
  w.key("overhead").raw_value(telemetry::json_double(overhead));
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace vcfr::bench
