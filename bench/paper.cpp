// BENCH_paper.json: the paper's §VI evaluation (Figs 2-4, 9, 11-15 and
// Tables I-II), the four ablations, the fleet slice-length sweep and the
// two §IX future-work studies. Each exhibit is one section with one row
// per app (or per sweep point) and its summary values; EXPERIMENTS.md's
// tables are generated from this file by tools/paper_tables.py.
//
// The configuration is pinned: scale 1, seed 2015 (the paper's year) and
// a 5 M instruction cap per run. Each app's image and randomization are
// built once, and each distinct (image, machine) pair is simulated once:
// the five suite runs most exhibits share (base@128, naive@128 and
// vcfr@128/512/64, DRC entries after the @) live in the `App` table, and
// an exhibit simulates only the configurations no other exhibit needs.
//
// The snapshot gates the paper's headline shapes (Figs 11, 12, 13 and
// 15) and fails naming the exhibit.
#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <variant>
#include <vector>

#include "core/context.hpp"
#include "core/drc.hpp"
#include "emu/emulator.hpp"
#include "emu/ilr_emulator.hpp"
#include "gadget/payload.hpp"
#include "gadget/scanner.hpp"
#include "os/kernel.hpp"
#include "rewriter/randomizer.hpp"
#include "sim/cpu.hpp"
#include "sim/ooo.hpp"
#include "snapshot.hpp"
#include "telemetry/json_writer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::bench {
namespace {

using telemetry::JsonWriter;
using Style = JsonWriter::Style;

constexpr int kScale = 1;
constexpr uint64_t kSeed = 2015;
constexpr uint64_t kMaxInstr = 5'000'000;

// Gate thresholds, from the paper's headline claims.
constexpr double kMinAvgSpeedup = 1.5;    // Fig 12, suite average
constexpr double kMinNamedSpeedup = 2.0;  // Fig 12, gcc/h264ref/xalan
constexpr double kMinDrc64Ipc = 0.95;     // Fig 13, suite average
constexpr double kMaxDrcPowerPct = 1.0;   // Fig 15, every app

sim::CpuConfig machine(uint32_t drc_entries, uint32_t issue_width = 1) {
  sim::CpuConfig config;
  config.drc.entries = drc_entries;
  config.issue_width = issue_width;
  return config;
}

sim::SimResult run(const binary::Image& image, const sim::CpuConfig& config) {
  return sim::simulate(image, kMaxInstr, config);
}

rewriter::RandomizeResult randomized(const binary::Image& image,
                                     rewriter::RandomizeOptions options = {}) {
  options.seed = kSeed;
  return rewriter::randomize(image, options);
}

double ratio(double num, double den) { return num / std::max(1e-12, den); }

/// One app: its image, default randomization (with its static analysis)
/// and that placement's naive-ILR image, built once, plus the shared runs.
/// Fig 2's two extra apps (memcpy, python) carry only `base`; the suite
/// apps carry all five.
struct App {
  std::string name;
  binary::Image image;
  rewriter::RandomizeResult rr;
  binary::Image naive_image;
  sim::SimResult base, naive, vcfr128, vcfr512, vcfr64;

  [[nodiscard]] const rewriter::StaticStats& stats() const {
    return rr.program.analysis.stats;
  }
};

using Apps = std::vector<const App*>;

App make_app(const std::string& name) {
  App a;
  a.name = name;
  a.image = workloads::make(name, kScale);
  a.rr = randomized(a.image);
  a.naive_image = rewriter::naive_ilr(a.rr.vcfr);
  a.base = run(a.image, machine(128));
  return a;
}

/// The suite apps in spec_names() order, then Fig 2's extra apps.
std::vector<App> make_apps() {
  const auto& spec = workloads::spec_names();
  std::vector<App> apps;
  for (const auto& name : spec) {
    App a = make_app(name);
    a.naive = run(a.naive_image, machine(128));
    a.vcfr128 = run(a.rr.vcfr, machine(128));
    a.vcfr512 = run(a.rr.vcfr, machine(512));
    a.vcfr64 = run(a.rr.vcfr, machine(64));
    apps.push_back(std::move(a));
  }
  for (const auto& name : workloads::fig2_names()) {
    if (std::find(spec.begin(), spec.end(), name) == spec.end()) {
      apps.push_back(make_app(name));
    }
  }
  return apps;
}

/// The apps named `names`, in that order.
Apps pick(const std::vector<App>& apps,
          const std::vector<std::string>& names) {
  Apps out;
  for (const auto& name : names) {
    out.push_back(&*std::find_if(apps.begin(), apps.end(),
                                 [&](const App& a) { return a.name == name; }));
  }
  return out;
}

/// Opens exhibit `name`'s section and its "rows" array.
void begin_rows(JsonWriter& w, const char* name) {
  w.key(name).begin_object(Style::kPretty);
  w.key("rows").begin_array(Style::kPretty);
}

/// One cell of a row: a measured value, a count or a flag.
using Value = std::variant<double, uint64_t, bool>;
using Row = std::vector<Value>;

/// Writes an exhibit with one row per app of the `columns` that `row`
/// computes. Leaves the section open for the summary values and returns
/// the rows they and the gates are read from.
template <typename RowFn>
std::vector<Row> app_rows(JsonWriter& w, const char* name, const Apps& apps,
                          std::initializer_list<const char*> columns,
                          RowFn row) {
  begin_rows(w, name);
  std::vector<Row> rows;
  for (const App* a : apps) {
    rows.push_back(row(*a));
    w.begin_object().key("app").value(a->name);
    size_t i = 0;
    for (const char* column : columns) {
      w.key(column);
      std::visit([&](auto v) { w.value(v); }, rows.back().at(i++));
    }
    w.end_object();
  }
  w.end_array();
  return rows;
}

/// The average of double column `c`, summed in row order.
double mean(const std::vector<Row>& rows, size_t c) {
  double sum = 0;
  for (const Row& r : rows) sum += std::get<double>(r[c]);
  return sum / static_cast<double>(rows.size());
}

void fig02_emulation(JsonWriter& w, const Apps& apps) {
  const auto rows = app_rows(
      w, "fig02_emulation", apps,
      {"native_cpi", "emu_cycles_per_instr", "slowdown"}, [](const App& a) {
        emu::RunLimits limits;
        limits.max_instructions = kMaxInstr;
        const auto e = emu::emulate_ilr(a.naive_image, a.base.cpi(), limits);
        return Row{a.base.cpi(), e.host_cycles_per_instr,
                   e.slowdown_vs_native};
      });
  w.key("average_slowdown").value(mean(rows, 2));
  w.end_object();
}

void fig03_naive_cache(JsonWriter& w, const Apps& suite) {
  const auto rows = app_rows(
      w, "fig03_naive_cache", suite,
      {"il1_miss_ratio", "prefetch_miss_pp", "l2_pressure_pct"},
      [](const App& a) {
        // L2 pressure: read operations from the L1s (instruction and data
        // side) into the unified L2 per retired instruction, the paper's
        // "number of read operation from L1 cache to L2 cache".
        const auto l2_reads = [](const sim::SimResult& r) {
          return static_cast<double>(r.l2_pressure.total_reads()) /
                 static_cast<double>(r.instructions);
        };
        return Row{ratio(a.naive.il1.miss_rate(), a.base.il1.miss_rate()),
                   100.0 * (a.naive.il1.prefetch_useless_rate() -
                            a.base.il1.prefetch_useless_rate()),
                   100.0 * (ratio(l2_reads(a.naive), l2_reads(a.base)) - 1.0)};
      });
  w.key("average_il1_miss_ratio").value(mean(rows, 0));
  w.key("average_prefetch_miss_pp").value(mean(rows, 1));
  w.key("average_l2_pressure_pct").value(mean(rows, 2));
  w.end_object();
}

void fig04_naive_ipc(JsonWriter& w, const Apps& suite) {
  const auto rows = app_rows(
      w, "fig04_naive_ipc", suite, {"base_ipc", "naive_ipc", "normalized"},
      [](const App& a) {
        return Row{a.base.ipc(), a.naive.ipc(),
                   ratio(a.naive.ipc(), a.base.ipc())};
      });
  w.key("average_normalized").value(mean(rows, 2));
  w.end_object();
}

/// Table I backs the paper's checkmarks with measured values for gcc:
/// one row per layout, plus the share of instructions relocated.
void table1_comparison(JsonWriter& w, const App& a) {
  begin_rows(w, "table1_comparison");
  const std::pair<const char*, const sim::SimResult*> layouts[] = {
      {"native", &a.base}, {"naive", &a.naive}, {"vcfr", &a.vcfr128}};
  for (const auto& [layout, r] : layouts) {
    w.begin_object().key("layout").value(layout);
    w.key("il1_miss_pct").value(100 * r->il1.miss_rate());
    w.key("prefetch_useful_pct")
        .value(100 * (1 - r->il1.prefetch_useless_rate()));
    w.key("ipc").value(r->ipc());
    w.end_object();
  }
  w.end_array();
  w.key("app").value(a.name);
  w.key("relocated_pct")
      .value(100.0 * static_cast<double>(a.rr.vcfr.tables.rand.size()) /
             static_cast<double>(
                 std::max<size_t>(1, a.stats().instructions)));
  w.end_object();
}

void table2_static_analysis(JsonWriter& w, const Apps& suite) {
  app_rows(w, "table2_static_analysis", suite,
           {"instructions", "direct_transfers", "indirect_transfers", "calls",
            "indirect_calls"},
           [](const App& a) {
             const rewriter::StaticStats& s = a.stats();
             return Row{s.instructions, s.direct_transfers,
                        s.indirect_transfers, s.function_calls,
                        s.indirect_calls};
           });
  w.end_object();
}

void fig09_functions(JsonWriter& w, const Apps& suite) {
  app_rows(w, "fig09_functions", suite,
           {"functions", "with_ret", "without_ret"}, [](const App& a) {
             const rewriter::StaticStats& s = a.stats();
             return Row{s.functions_with_ret + s.functions_without_ret,
                        s.functions_with_ret, s.functions_without_ret};
           });
  w.end_object();
}

/// Gate: payloads assemble for every app before randomization, none after.
void fig11_gadgets(JsonWriter& w, const Apps& suite) {
  const auto rows = app_rows(
      w, "fig11_gadgets", suite,
      {"before", "after", "removed_pct", "payload_pre", "payload_post"},
      [](const App& a) {
        const auto scan = gadget::scan(a.image);
        const auto survival =
            gadget::survival_after_randomization(scan, a.rr.vcfr.tables);
        const auto assembles = [](const std::vector<gadget::Gadget>& g) {
          return gadget::any_assembled(gadget::compile_payloads(g));
        };
        return Row{uint64_t{survival.before}, uint64_t{survival.after},
                   survival.removal_percent(), assembles(scan.gadgets),
                   assembles(survival.surviving)};
      });
  size_t pre = 0, post = 0;
  for (const Row& r : rows) {
    pre += std::get<bool>(r[3]);
    post += std::get<bool>(r[4]);
  }
  w.key("average_removed_pct").value(mean(rows, 2));
  w.key("payloads_pre").value(pre);
  w.key("payloads_post").value(post);
  w.end_object();
  if (pre != suite.size() || post != 0) {
    gate_failed("fig11_gadgets: payloads assemble for %zu of %zu apps "
                "before randomization and %zu after (want all, then none)",
                pre, suite.size(), post);
  }
}

/// Gate: the average speedup and gcc's, h264ref's and xalan's are above
/// their thresholds.
void fig12_speedup(JsonWriter& w, const Apps& suite) {
  const auto rows = app_rows(
      w, "fig12_speedup", suite, {"naive_ipc", "vcfr_ipc", "speedup"},
      [](const App& a) {
        return Row{a.naive.ipc(), a.vcfr128.ipc(),
                   ratio(a.vcfr128.ipc(), a.naive.ipc())};
      });
  const double avg = mean(rows, 2);
  w.key("average_speedup").value(avg);
  w.end_object();
  for (size_t i = 0; i < suite.size(); ++i) {
    const std::string& name = suite[i]->name;
    const bool named = name == "gcc" || name == "h264ref" || name == "xalan";
    const double speedup = std::get<double>(rows[i][2]);
    if (named && speedup <= kMinNamedSpeedup) {
      gate_failed("fig12_speedup: %s speedup %.3fx is not above %.2fx",
                  name.c_str(), speedup, kMinNamedSpeedup);
    }
  }
  if (avg <= kMinAvgSpeedup) {
    gate_failed("fig12_speedup: average speedup %.3fx is not above %.2fx",
                avg, kMinAvgSpeedup);
  }
}

/// Gate: every app's IPC is non-increasing from DRC-512 to 128 to 64,
/// and the DRC-64 average is at least kMinDrc64Ipc of baseline.
void fig13_drc_ipc(JsonWriter& w, const Apps& suite) {
  const auto rows = app_rows(
      w, "fig13_drc_ipc", suite, {"base_ipc", "drc512", "drc128", "drc64"},
      [](const App& a) {
        return Row{a.base.ipc(), ratio(a.vcfr512.ipc(), a.base.ipc()),
                   ratio(a.vcfr128.ipc(), a.base.ipc()),
                   ratio(a.vcfr64.ipc(), a.base.ipc())};
      });
  const double avg64 = mean(rows, 3);
  w.key("average_drc512").value(mean(rows, 1));
  w.key("average_drc128").value(mean(rows, 2));
  w.key("average_drc64").value(avg64);
  w.end_object();
  for (size_t i = 0; i < suite.size(); ++i) {
    const double n512 = std::get<double>(rows[i][1]);
    const double n128 = std::get<double>(rows[i][2]);
    const double n64 = std::get<double>(rows[i][3]);
    if (n128 > n512 || n64 > n128) {
      gate_failed("fig13_drc_ipc: %s IPC rises as the DRC shrinks "
                  "(%.4f / %.4f / %.4f at 512/128/64)",
                  suite[i]->name.c_str(), n512, n128, n64);
    }
  }
  if (avg64 < kMinDrc64Ipc) {
    gate_failed("fig13_drc_ipc: DRC-64 average %.4f is below %.4f", avg64,
                kMinDrc64Ipc);
  }
}

void fig14_drc_missrate(JsonWriter& w, const Apps& suite) {
  // Lookup volume is reported too, since miss rate alone is noisy for
  // apps that rarely consult the DRC. It is kept as counts: %.6g would
  // round lookups per kilo-instruction a second time.
  const auto rows = app_rows(
      w, "fig14_drc_missrate", suite,
      {"drc512_miss_pct", "drc64_miss_pct", "drc64_lookups",
       "drc64_instructions"},
      [](const App& a) {
        return Row{100.0 * a.vcfr512.drc.miss_rate(),
                   100.0 * a.vcfr64.drc.miss_rate(), a.vcfr64.drc.lookups,
                   a.vcfr64.instructions};
      });
  w.key("average_drc512_miss_pct").value(mean(rows, 0));
  w.key("average_drc64_miss_pct").value(mean(rows, 1));
  w.end_object();
}

/// Gate: every app's DRC dynamic power is below kMaxDrcPowerPct of the
/// CPU's.
void fig15_power(JsonWriter& w, const Apps& suite) {
  const auto rows = app_rows(
      w, "fig15_power", suite, {"cpu_dyn_uj", "drc_dyn_uj", "overhead_pct"},
      [](const App& a) {
        const auto& power = a.vcfr128.power;
        return Row{power.cpu_total() * 1e-6, power.drc * 1e-6,
                   power.drc_overhead_percent()};
      });
  w.key("average_overhead_pct").value(mean(rows, 2));
  w.end_object();
  for (size_t i = 0; i < suite.size(); ++i) {
    const double pct = std::get<double>(rows[i][2]);
    if (pct >= kMaxDrcPowerPct) {
      gate_failed("fig15_power: %s DRC power %.3f%% is not below %.2f%%",
                  suite[i]->name.c_str(), pct, kMaxDrcPowerPct);
    }
  }
}

/// §IV-A option 1 (software rewrite) against option 2 (architectural,
/// the shared vcfr@128 run).
void ablation_return_options(JsonWriter& w, const Apps& suite) {
  const auto rows = app_rows(
      w, "ablation_return_options", suite,
      {"expansion_pct", "instr_inflation_pct", "ipc_sw", "ipc_arch",
       "cover_sw_pct", "cover_arch_pct"},
      [](const App& a) {
        rewriter::RandomizeOptions sw_options;
        sw_options.return_option = rewriter::ReturnOption::kSoftwareRewrite;
        const auto rr_sw = randomized(a.image, sw_options);
        const auto r_sw = run(rr_sw.vcfr, machine(128));
        const auto& r_arch = a.vcfr128;
        // Coverage: share of static call sites whose returns are
        // randomized.
        const double calls =
            static_cast<double>(a.stats().function_calls);
        const double unsafe =
            static_cast<double>(
                a.rr.program.analysis.unsafe_return_sites.size());
        return Row{
            rr_sw.sw_stats.expansion_percent(),
            100.0 * (static_cast<double>(r_sw.instructions) /
                         static_cast<double>(
                             std::max<uint64_t>(1, r_arch.instructions)) -
                     1.0),
            r_sw.ipc(),
            r_arch.ipc(),
            calls == 0 ? 0 : 100.0 * rr_sw.sw_stats.calls_rewritten / calls,
            calls == 0 ? 0 : 100.0 * (calls - unsafe) / calls};
      });
  w.key("average_expansion_pct").value(mean(rows, 0));
  w.end_object();
}

/// §IV-D: naive ILR under full-spread (the shared naive@128 run) and
/// page-confined placement, with the entropy each costs.
void ablation_page_confined(JsonWriter& w, const Apps& suite) {
  app_rows(w, "ablation_page_confined", suite,
           {"itlb_miss_pct_full", "itlb_miss_pct_page", "ipc_full",
            "ipc_page", "entropy_bits_full"},
           [](const App& a) {
             rewriter::RandomizeOptions pc_options;
             pc_options.placement = rewriter::PlacementPolicy::kPageConfined;
             const auto rr_pc = randomized(a.image, pc_options);
             const auto r_pc =
                 run(rewriter::naive_ilr(rr_pc.vcfr),
                     machine(128));
             // Full spread draws a location from the whole randomized
             // region.
             return Row{100 * a.naive.itlb.miss_rate(),
                        100 * r_pc.itlb.miss_rate(), a.naive.ipc(),
                        r_pc.ipc(),
                        std::log2(static_cast<double>(a.rr.vcfr.rand_size))};
           });
  // Page confinement draws from one 4 KiB page.
  w.key("entropy_bits_page").value(std::log2(4096.0));
  w.end_object();
}

/// §IV-B: a dedicated 2048-entry L2 DRC against sharing the unified L2
/// (the shared vcfr@64 run), on the most DRC-hungry apps.
void ablation_drc_backing(JsonWriter& w, const Apps& hungry) {
  app_rows(w, "ablation_drc_backing", hungry,
           {"ipc_shared", "ipc_dedicated", "gain_pct", "walks_shared",
            "walks_dedicated"},
           [](const App& a) {
             sim::CpuConfig dedicated = machine(64);
             dedicated.drc.l2_entries = 2048;
             const auto& shared = a.vcfr64;
             const auto r = run(a.rr.vcfr, dedicated);
             return Row{shared.ipc(), r.ipc(),
                        100.0 * (ratio(r.ipc(), shared.ipc()) - 1.0),
                        shared.drc_table_walks, r.drc_table_walks};
           });
  w.end_object();
}

struct XlatEvent {
  uint32_t key;
  bool derand;
};

/// The translation events of a golden-model run of `vcfr_image`.
std::vector<XlatEvent> record_events(const binary::Image& vcfr_image) {
  binary::Memory mem;
  binary::load(vcfr_image, mem);
  emu::Emulator emulator(vcfr_image, mem);
  std::vector<XlatEvent> events;
  emu::StepInfo si;
  uint64_t steps = 0;
  while (steps < kMaxInstr && emulator.step(&si)) {
    ++steps;
    if (si.needs_derand) events.push_back({si.derand_key, true});
    if (si.needs_rand) events.push_back({si.rand_key, false});
    if (emulator.halted()) break;
  }
  return events;
}

/// Replays two event streams round-robin through one DRC-512, `quantum`
/// events per slice, flushing on each switch when `flush_on_switch`.
core::DrcStats replay(const std::vector<XlatEvent>& a,
                      const std::vector<XlatEvent>& b, uint64_t quantum,
                      bool flush_on_switch, const binary::TranslationTables& ta,
                      const binary::TranslationTables& tb) {
  core::Drc drc({.entries = 512, .assoc = 1, .hit_latency = 1});
  core::ContextManager mgr(drc);
  core::ProcessContext pa{.pid = 1, .name = "a", .tables = &ta, .epoch = 0};
  core::ProcessContext pb{.pid = 2, .name = "b", .tables = &tb, .epoch = 0};

  size_t ia = 0, ib = 0;
  bool running_a = true;
  while (ia < a.size() || ib < b.size()) {
    const auto& stream = running_a ? a : b;
    size_t& idx = running_a ? ia : ib;
    const auto& tables = running_a ? ta : tb;
    if (flush_on_switch) mgr.switch_to(running_a ? pa : pb);
    for (uint64_t n = 0; n < quantum && idx < stream.size(); ++n, ++idx) {
      const XlatEvent& e = stream[idx];
      if (!drc.lookup(e.key, e.derand)) {
        core::DrcEntryValue v;
        if (e.derand) {
          v.translation = tables.to_original(e.key);
          v.randomized_tag = tables.is_randomized_addr(e.key);
        } else {
          v.translation = tables.to_randomized(e.key);
          v.randomized_tag = v.translation != e.key;
        }
        drc.insert(e.key, e.derand, v);
      }
    }
    running_a = !running_a;
  }
  return drc.stats();
}

/// §IV-B isolation: gcc's and xalan's translation streams share one DRC
/// under round-robin switching, with and without the per-switch flush.
void ablation_context_switch(JsonWriter& w, const App& a, const App& b) {
  const auto& ta = a.rr.vcfr.tables;
  const auto& tb = b.rr.vcfr.tables;
  const auto ev_a = record_events(a.rr.vcfr);
  const auto ev_b = record_events(b.rr.vcfr);
  begin_rows(w, "ablation_context_switch");
  for (const uint64_t quantum : {500u, 2000u, 10000u, 50000u}) {
    const auto flushed = replay(ev_a, ev_b, quantum, true, ta, tb);
    const auto shared = replay(ev_a, ev_b, quantum, false, ta, tb);
    w.begin_object().key("quantum").value(quantum);
    w.key("miss_pct").value(100 * flushed.miss_rate());
    w.key("miss_pct_no_flush").value(100 * shared.miss_rate());
    w.end_object();
  }
  w.end_array();
  w.key(a.name + "_translations").value(uint64_t{ev_a.size()});
  w.key(b.name + "_translations").value(uint64_t{ev_b.size()});
  w.end_object();
}

/// Four randomized workloads time-sliced by os::Kernel on two cores,
/// swept over the slice length: the whole §IV-B switching bill.
void fleet_context_switch(JsonWriter& w) {
  const char* mix[] = {"gcc", "xalan", "bzip2", "mcf"};
  begin_rows(w, "fleet_context_switch");
  for (const uint64_t slice : {1000u, 5000u, 20000u, 100000u}) {
    os::KernelConfig kc;
    kc.cores = 2;
    kc.sched.slice_instructions = slice;
    os::Kernel kernel(kc);
    for (uint32_t i = 0; i < 4; ++i) {
      os::ProcessConfig pc;
      pc.workload = mix[i];
      pc.scale = kScale;
      pc.seed = kSeed + i;
      pc.max_instructions = kMaxInstr;
      kernel.spawn(pc);
    }
    const os::FleetReport r = kernel.run();
    double slowdown = 0.0;
    for (const auto& p : r.processes) slowdown += p.slowdown;
    slowdown /= static_cast<double>(r.processes.size());
    w.begin_object().key("slice").value(slice);
    w.key("fleet_ipc").value(r.fleet_ipc);
    w.key("switches").value(r.context_switches);
    w.key("drc_lost").value(r.drc_entries_flushed);
    w.key("bitmap_lost").value(r.bitmap_entries_flushed);
    w.key("sl2_miss_pct").value(100 * r.shared_l2.l2.miss_rate());
    w.key("avg_slowdown").value(slowdown);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

/// §IX: VCFR overhead on a W-wide in-order core; width 1 is the shared
/// base@128 and vcfr@128 runs.
void future_superscalar(JsonWriter& w, const Apps& apps) {
  begin_rows(w, "future_superscalar");
  for (const App* a : apps) {
    for (const uint32_t width : {1u, 2u, 4u}) {
      const sim::SimResult base =
          width == 1 ? a->base : run(a->image, machine(128, width));
      const sim::SimResult vcfr =
          width == 1 ? a->vcfr128 : run(a->rr.vcfr, machine(128, width));
      w.begin_object().key("app").value(a->name);
      w.key("width").value(width);
      w.key("base_ipc").value(base.ipc());
      w.key("vcfr_ipc").value(vcfr.ipc());
      w.key("overhead_pct").value(100.0 * (1.0 - vcfr.ipc() / base.ipc()));
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
}

/// §IX: VCFR on the 4-wide out-of-order model, next to the in-order
/// overhead of the shared base@128 and vcfr@128 runs.
void future_ooo(JsonWriter& w, const Apps& suite) {
  const auto rows = app_rows(
      w, "future_ooo", suite,
      {"base_ipc", "vcfr_ipc", "overhead_pct", "in_order_overhead_pct"},
      [](const App& a) {
        sim::OooConfig ooo;
        ooo.drc.entries = 128;
        const auto base = sim::simulate_ooo(a.image, kMaxInstr, ooo);
        const auto vcfr = sim::simulate_ooo(a.rr.vcfr, kMaxInstr, ooo);
        return Row{base.ipc(), vcfr.ipc(),
                   100.0 * (1.0 - vcfr.ipc() / base.ipc()),
                   100.0 * (1.0 - a.vcfr128.ipc() / a.base.ipc())};
      });
  w.key("average_overhead_pct").value(mean(rows, 2));
  w.key("average_in_order_overhead_pct").value(mean(rows, 3));
  w.end_object();
}

}  // namespace

std::string paper_snapshot() {
  const std::vector<App> apps = make_apps();
  const Apps suite = pick(apps, workloads::spec_names());
  const Apps gcc_xalan = pick(apps, {"gcc", "xalan"});

  JsonWriter w;
  w.begin_object(Style::kPretty);
  w.key("bench").value("paper");
  w.key("simulated").begin_object(Style::kPretty);
  w.key("config").begin_object();
  w.key("scale").value(kScale);
  w.key("seed").value(kSeed);
  w.key("max_instructions").value(kMaxInstr);
  w.end_object();
  fig02_emulation(w, pick(apps, workloads::fig2_names()));
  fig03_naive_cache(w, suite);
  fig04_naive_ipc(w, suite);
  table1_comparison(w, *gcc_xalan[0]);
  table2_static_analysis(w, suite);
  fig09_functions(w, suite);
  fig11_gadgets(w, suite);
  fig12_speedup(w, suite);
  fig13_drc_ipc(w, suite);
  fig14_drc_missrate(w, suite);
  fig15_power(w, suite);
  ablation_return_options(w, suite);
  ablation_page_confined(w, suite);
  ablation_drc_backing(w,
                       pick(apps, {"xalan", "sjeng", "h264ref", "gcc", "hmmer"}));
  ablation_context_switch(w, *gcc_xalan[0], *gcc_xalan[1]);
  fleet_context_switch(w);
  future_superscalar(w, pick(apps, {"gcc", "hmmer", "xalan", "namd"}));
  future_ooo(w, suite);
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

}  // namespace vcfr::bench
