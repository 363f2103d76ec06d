// vcfr — command-line driver for the whole pipeline.
//
// Run `vcfr` with no arguments for the full per-subcommand flag listing
// (kept in usage() below). Flags accept both `--flag value` and
// `--flag=value` spellings, and every subcommand rejects flags it does
// not understand.
//
// The telemetry flags (--stats-json, --trace-out, --sample-interval,
// --sample-out) are shared by run/sim/workload/fleet and are documented
// in docs/OBSERVABILITY.md.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "binary/serialize.hpp"
#include "cli/args.hpp"
#include "emu/emulator.hpp"
#include "emu/trace.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "gadget/payload.hpp"
#include "gadget/scanner.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "isa/encoding.hpp"
#include "os/kernel.hpp"
#include "profile/profiler.hpp"
#include "rewriter/cfg.hpp"
#include "rewriter/entropy.hpp"
#include "rewriter/randomizer.hpp"
#include "serve/server.hpp"
#include "sim/cpu.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace vcfr;

/// Destination for human-readable reports. Normally stdout; flipped to
/// stderr when any output flag streams its payload to stdout via `-`, so
/// pipelines receive only the requested payload.
FILE* g_report = stdout;

__attribute__((format(printf, 1, 2))) int rprintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vfprintf(g_report, fmt, ap);
  va_end(ap);
  return n;
}

// Flag parsing, per-subcommand validation, and the usage text live in
// src/cli/args.{hpp,cpp} so tests can drive the exact shipped parser.
using cli::Args;
using cli::parse_args;
using cli::parse_number;
using cli::validate_flags;

// ---- telemetry plumbing (shared by run/sim/workload/fleet) ----

bool telemetry_requested(const Args& args) {
  return !args.stats_json.empty() || !args.trace_out.empty() ||
         args.sample_interval > 0 || !args.journal_out.empty();
}

telemetry::TelemetryConfig telemetry_config(const Args& args) {
  telemetry::TelemetryConfig tc;
  tc.trace = !args.trace_out.empty();
  if (args.trace_capacity > 0) tc.trace_lane_capacity = args.trace_capacity;
  tc.sample_interval = args.sample_interval;
  tc.journal = !args.journal_out.empty();
  if (args.journal_capacity > 0) tc.journal_capacity = args.journal_capacity;
  return tc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  if (path == "-") {
    // Scripting convention: `-` streams to stdout instead of creating a
    // file literally named "-". Progress messages all go to stderr, so
    // the payload stays clean for pipelines.
    std::fwrite(content.data(), 1, content.size(), stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << content;
}

void export_telemetry(const Args& args, telemetry::Telemetry& tel) {
  if (!args.stats_json.empty()) {
    write_file(args.stats_json, tel.registry().to_json());
    std::fprintf(stderr, "stats: %s\n", args.stats_json.c_str());
  }
  if (!args.trace_out.empty()) {
    write_file(args.trace_out, tel.tracer()->to_chrome_json());
    std::fprintf(stderr, "trace: %s (%llu events dropped)\n",
                 args.trace_out.c_str(),
                 static_cast<unsigned long long>(tel.tracer()->dropped()));
    if (tel.tracer()->dropped() > 0) {
      std::fprintf(stderr,
                   "warning: trace dropped %llu events; the export holds only "
                   "the most recent window (raise --trace-capacity)\n",
                   static_cast<unsigned long long>(tel.tracer()->dropped()));
    }
  }
  if (!args.journal_out.empty() && tel.journal() != nullptr) {
    write_file(args.journal_out, tel.journal()->to_jsonl());
    std::fprintf(stderr, "journal: %s (%zu entries, %llu dropped)\n",
                 args.journal_out.c_str(), tel.journal()->entries().size(),
                 static_cast<unsigned long long>(tel.journal()->dropped()));
    if (tel.journal()->dropped() > 0) {
      std::fprintf(stderr,
                   "warning: journal dropped %llu entries; the export holds "
                   "only the most recent window (raise --journal-capacity)\n",
                   static_cast<unsigned long long>(tel.journal()->dropped()));
    }
  }
  if (args.sample_interval > 0) {
    const bool as_json =
        args.sample_out.size() >= 5 &&
        args.sample_out.compare(args.sample_out.size() - 5, 5, ".json") == 0;
    write_file(args.sample_out, as_json ? tel.sampler().to_json()
                                        : tel.sampler().to_csv());
    std::fprintf(stderr, "samples: %s (%zu rows)\n", args.sample_out.c_str(),
                 tel.sampler().rows());
  }
}

bool flag_given(const Args& args, const char* flag) {
  return std::find(args.seen.begin(), args.seen.end(), flag) !=
         args.seen.end();
}

std::string require_input(const Args& args) {
  if (args.positional.empty()) throw std::runtime_error("missing input file");
  return args.positional.front();
}

// ---- guest-profiler plumbing (run/sim/fleet/prof) ----

profile::ProfileMeta profile_meta(const binary::Image& image,
                                  uint64_t expected_cycles) {
  profile::ProfileMeta meta;
  meta.app = image.name;
  meta.layout = std::string(profile::layout_name(image.layout));
  meta.seed = image.seed;
  meta.expected_cycles = expected_cycles;
  return meta;
}

void export_profile(const Args& args, const profile::Profiler& prof,
                    const profile::ProfileMeta& meta) {
  if (!args.profile_out.empty()) {
    write_file(args.profile_out, prof.to_json(meta, args.top) + "\n");
    if (args.profile_out != "-") {
      std::fprintf(stderr, "profile: %s\n", args.profile_out.c_str());
    }
  }
  if (!args.flame_out.empty()) {
    write_file(args.flame_out, prof.to_collapsed());
    if (args.flame_out != "-") {
      std::fprintf(stderr, "flamegraph: %s\n", args.flame_out.c_str());
    }
  }
}

/// Per-tenant output path for fleet profiles: "x.json" -> "x.pid3.json";
/// "-" stays "-" (tenant profiles concatenate on stdout in pid order).
std::string per_pid_path(const std::string& path, uint32_t pid) {
  if (path == "-") return path;
  const std::string tag = ".pid" + std::to_string(pid);
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0) return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

int cmd_asm(const Args& args) {
  const std::string path = require_input(args);
  binary::Image image = isa::assemble(read_file(path));
  if (image.name.empty()) image.name = path;
  const std::string out = args.output.empty() ? path + ".vxe" : args.output;
  binary::save(image, out);
  rprintf("assembled %zu code bytes, %zu data bytes -> %s\n",
              image.code.size(), image.data.size(), out.c_str());
  return 0;
}

int cmd_disasm(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  if (image.layout == binary::Layout::kNaiveIlr) {
    const auto placed = image.placed_instrs();
    rprintf("; naive-ILR image: %zu relocated instructions\n", placed.size());
    for (const binary::PlacedInstr& p : placed) {
      const auto d = isa::decode(std::span<const uint8_t>(
          &image.code[p.addr - image.code_base], p.length));
      if (d) rprintf("%08x: %s\n", p.at, isa::format_instr(*d).c_str());
    }
    return 0;
  }
  std::fputs(isa::listing(image).c_str(), stdout);
  return 0;
}

int cmd_stats(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  const auto cfg = rewriter::build_cfg(image);
  const auto s = rewriter::static_stats(image, cfg);
  rprintf("name:                %s\n", image.name.c_str());
  rprintf("instructions:        %llu\n",
              static_cast<unsigned long long>(s.instructions));
  rprintf("direct transfers:    %llu\n",
              static_cast<unsigned long long>(s.direct_transfers));
  rprintf("indirect transfers:  %llu\n",
              static_cast<unsigned long long>(s.indirect_transfers));
  rprintf("function calls:      %llu (indirect: %llu)\n",
              static_cast<unsigned long long>(s.function_calls),
              static_cast<unsigned long long>(s.indirect_calls));
  rprintf("returns:             %llu\n",
              static_cast<unsigned long long>(s.returns));
  rprintf("functions with ret:  %llu, without: %llu\n",
              static_cast<unsigned long long>(s.functions_with_ret),
              static_cast<unsigned long long>(s.functions_without_ret));
  return 0;
}

int cmd_randomize(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  rewriter::RandomizeOptions opts;
  opts.seed = args.seed;
  if (args.software_returns) {
    opts.return_option = rewriter::ReturnOption::kSoftwareRewrite;
  }
  if (args.page_confined) {
    opts.placement = rewriter::PlacementPolicy::kPageConfined;
  }
  const auto rr = rewriter::randomize(image, opts);
  const std::string out =
      args.output.empty() ? image.name + (args.naive ? ".naive.vxe" : ".vcfr.vxe")
                          : args.output;
  binary::save(args.naive ? rewriter::naive_ilr(rr.vcfr) : rr.vcfr, out);
  rprintf("relocated %zu instructions (seed %llu); failover set: %zu; "
              "-> %s\n",
              rr.vcfr.tables.rand.size(),
              static_cast<unsigned long long>(args.seed),
              rr.program.analysis.unrandomized.size(), out.c_str());
  if (args.software_returns) {
    rprintf("software return rewrite: %u calls, +%.1f%% code\n",
                rr.sw_stats.calls_rewritten,
                rr.sw_stats.expansion_percent());
  }
  return 0;
}

int cmd_run(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  // Step the golden model by hand so each instruction's translation
  // events are visible to a trace. The functional model has no clock;
  // events and samples are stamped with the instruction index, which is
  // just as deterministic.
  telemetry::Telemetry tel(telemetry_config(args));
  binary::Memory mem;
  binary::load(image, mem);
  emu::Emulator emulator(image, mem);
  if (args.enforce_tags) emulator.set_enforce_tags(true);
  if (args.taint) emulator.set_taint_tracking(true);
  std::optional<profile::Profiler> prof;
  if (!args.profile_out.empty()) {
    prof.emplace(image);
    emulator.set_profiler(&*prof);
  }
  const emu::EmuStats& st = emulator.stats();
  telemetry::Scope scope = tel.root().scope("emu");
  scope.counter("instructions", &st.instructions);
  scope.counter("calls", &st.calls);
  scope.counter("returns", &st.returns);
  scope.counter("indirect_transfers", &st.indirect_transfers);
  scope.counter("derand_events", &st.derand_events);
  scope.counter("rand_events", &st.rand_events);
  scope.counter("bitmap_autoderand_loads", &st.bitmap_autoderand_loads);
  scope.counter("tag_violations", &st.tag_violations);
  if (args.taint) {
    const emu::TaintStats& ts = emulator.taint_stats();
    const telemetry::Scope taint = scope.scope("taint");
    taint.counter("sources", &ts.sources);
    taint.counter("propagations", &ts.propagations);
    taint.counter("leaks", &ts.leaks);
    taint.counter("max_depth", &ts.max_depth);
  }
  // Host-side decoded-instruction cache (deterministic for a given run,
  // but about how the host executed the model, not what the model did).
  const emu::DecodeCacheStats& dc = emulator.decode_cache_stats();
  const telemetry::Scope dcache = scope.scope("decode_cache");
  dcache.counter("hits", &dc.hits);
  dcache.counter("misses", &dc.misses);
  dcache.counter("invalidations", &dc.invalidations);
  telemetry::TraceLane* lane = tel.lane(0);
  if (tel.tracer() != nullptr) {
    tel.tracer()->name_lane(0, "emulator");
    tel.tracer()->name_asid(0, 0, image.name.empty() ? "golden model"
                                                     : image.name);
  }
  // The step record is only filled when a trace lane consumes it.
  emu::StepInfo info;
  emu::StepInfo* const step_info = lane != nullptr ? &info : nullptr;
  size_t leaks_seen = 0;
  while (st.instructions < args.max_instr) {
    if (!emulator.step(step_info)) break;
    const uint64_t n = st.instructions;  // index of the retired instruction
    if (lane != nullptr) {
      if (info.needs_derand) {
        lane->instant(telemetry::TraceEventType::kDerand, 0, n,
                      info.derand_key);
      }
      if (info.needs_rand) {
        lane->instant(telemetry::TraceEventType::kRand, 0, n, info.rand_key);
      }
      if (info.bitmap_load) {
        lane->instant(telemetry::TraceEventType::kBitmapLoad, 0, n,
                      info.mem_addr);
      }
      while (leaks_seen < emulator.leaks().size()) {
        lane->instant(telemetry::TraceEventType::kLeak, 0, n,
                      emulator.leaks()[leaks_seen].depth);
        ++leaks_seen;
      }
    }
    tel.sampler().poll(n);
    if (emulator.halted()) break;
  }
  for (uint32_t v : emulator.output()) rprintf("out: %u (0x%x)\n", v, v);
  if (args.taint) {
    const emu::TaintStats& ts = emulator.taint_stats();
    rprintf("taint: %llu source(s), %llu propagation(s), %llu leak(s), "
            "max depth %llu\n",
            static_cast<unsigned long long>(ts.sources),
            static_cast<unsigned long long>(ts.propagations),
            static_cast<unsigned long long>(ts.leaks),
            static_cast<unsigned long long>(ts.max_depth));
    for (const emu::LeakRecord& l : emulator.leaks()) {
      rprintf("leak: origin=%s rpc=0x%x epoch=%llu depth=%u sink=%s "
              "at instruction %llu\n",
              emu::taint_origin_name(l.origin), l.origin_rpc,
              static_cast<unsigned long long>(l.epoch), l.depth,
              emu::leak_sink_name(l.sink),
              static_cast<unsigned long long>(l.instruction));
    }
  }
  const std::string& err = emulator.error();
  rprintf("%s after %llu instructions",
              emulator.halted() ? "halted" : (err.empty() ? "limit" : "FAULT"),
              static_cast<unsigned long long>(st.instructions));
  if (!err.empty()) rprintf(": %s", err.c_str());
  rprintf("\n");
  export_telemetry(args, tel);
  if (prof) {
    // Functional model: one cycle per instruction, so the expected total
    // is the profiler's own count and "conserved" pins the delta stream.
    export_profile(args, *prof, profile_meta(image, prof->attributed_cycles()));
  }
  return emulator.halted() ? 0 : 1;
}

int cmd_sim(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  sim::CpuConfig config;
  config.drc.entries = args.drc;
  std::optional<telemetry::Telemetry> tel;
  if (telemetry_requested(args)) tel.emplace(telemetry_config(args));
  std::optional<profile::Profiler> prof;
  if (!args.profile_out.empty()) prof.emplace(image);
  const auto r = sim::simulate(image, args.max_instr, config,
                               tel ? &*tel : nullptr,
                               prof ? &*prof : nullptr);
  rprintf("instructions: %llu\ncycles:       %llu\nIPC:          %.3f\n",
              static_cast<unsigned long long>(r.instructions),
              static_cast<unsigned long long>(r.cycles), r.ipc());
  rprintf("IL1 miss:     %.3f%%   DL1 miss: %.3f%%   L2 miss: %.3f%%\n",
              100 * r.il1.miss_rate(), 100 * r.dl1.miss_rate(),
              100 * r.l2.miss_rate());
  rprintf("branch acc:   %.2f%%   DRC: %llu lookups, %.1f%% miss\n",
              100 * r.bpred.cond_accuracy(),
              static_cast<unsigned long long>(r.drc.lookups),
              100 * r.drc.miss_rate());
  rprintf("power:        %s\n", r.power.report().c_str());
  if (tel) export_telemetry(args, *tel);
  if (prof) export_profile(args, *prof, profile_meta(image, r.cycles));
  return 0;
}

int cmd_scan(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  const auto result = gadget::scan(image);
  rprintf("%zu gadgets (%llu aligned, %llu unaligned) in %llu bytes\n",
              result.gadgets.size(),
              static_cast<unsigned long long>(result.aligned_count),
              static_cast<unsigned long long>(result.unaligned_count),
              static_cast<unsigned long long>(result.bytes_scanned));
  for (auto kind :
       {gadget::GadgetKind::kPopReg, gadget::GadgetKind::kMovReg,
        gadget::GadgetKind::kArith, gadget::GadgetKind::kLoad,
        gadget::GadgetKind::kStore, gadget::GadgetKind::kSys,
        gadget::GadgetKind::kOther}) {
    rprintf("  %-8s %zu\n", std::string(gadget::kind_name(kind)).c_str(),
                result.count(kind));
  }
  const auto payloads = gadget::compile_payloads(result.gadgets);
  for (const auto& p : payloads) {
    rprintf("payload '%s': %s\n", p.name.c_str(),
                p.assembled ? "ASSEMBLED" : "failed");
  }
  return 0;
}

int cmd_workload(const Args& args) {
  const std::string name = require_input(args);
  const auto image = workloads::make(name, args.scale);
  const std::string out = args.output.empty() ? name + ".vxe" : args.output;
  binary::save(image, out);
  rprintf("%s (scale %d): %zu code bytes -> %s\n", name.c_str(),
              args.scale, image.code.size(), out.c_str());
  if (telemetry_requested(args)) {
    // Static stats only: there is no execution here, so the trace and
    // sample outputs are valid but empty.
    telemetry::Telemetry tel(telemetry_config(args));
    telemetry::Scope scope = tel.root().scope("workload");
    const auto cfg = rewriter::build_cfg(image);
    const auto s = rewriter::static_stats(image, cfg);
    const uint64_t code_bytes = image.code.size();
    const uint64_t data_bytes = image.data.size();
    scope.counter_fn("code_bytes", [code_bytes] { return code_bytes; });
    scope.counter_fn("data_bytes", [data_bytes] { return data_bytes; });
    scope.counter_fn("instructions", [s] { return s.instructions; });
    scope.counter_fn("direct_transfers", [s] { return s.direct_transfers; });
    scope.counter_fn("indirect_transfers",
                     [s] { return s.indirect_transfers; });
    scope.counter_fn("returns", [s] { return s.returns; });
    export_telemetry(args, tel);
  }
  return 0;
}

int cmd_trace(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  emu::TraceOptions opts;
  opts.max_steps = flag_given(args, "--max-instr") ? args.max_instr : 64;
  opts.show_registers = args.regs;
  std::fputs(emu::trace(image, opts).c_str(), stdout);
  return 0;
}

int cmd_cfg(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  const auto cfg = rewriter::build_cfg(image);
  std::fputs(rewriter::to_dot(cfg).c_str(), stdout);
  return 0;
}

int cmd_entropy(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  rewriter::RandomizeOptions opts;
  opts.seed = args.seed;
  if (args.page_confined) {
    opts.placement = rewriter::PlacementPolicy::kPageConfined;
  }
  const auto rr = rewriter::randomize(image, opts);
  const auto report = rewriter::analyze_entropy(rr, opts);
  rprintf("randomized instructions: %zu\n", report.randomized_instructions);
  rprintf("failover instructions:   %zu (zero entropy)\n",
              report.failover_instructions);
  rprintf("entropy coverage:        %.2f%%\n", 100 * report.coverage());
  rprintf("bits per instruction:    %.1f\n", report.bits_per_instruction);
  rprintf("single-guess hit prob:   %.3g\n",
              report.single_guess_probability);
  rprintf("expected crash attempts: %.3g\n", report.expected_attempts);
  return 0;
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> items;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

/// Folds the --rerand* flag family into a re-randomization policy.
/// --rerand-mode incremental also turns on epoch-tagged invalidation —
/// lazily revalidating warm caches is the point of patching in place.
os::RerandomizePolicy parse_rerand_policy(const cli::Args& args) {
  os::RerandomizePolicy rp;
  rp.every_slices = args.rerand;
  if (args.rerand_mode == "incremental") {
    rp.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
    rp.epoch_tags = true;
  }
  rp.on_trap = args.rerand_on_trap;
  rp.on_leak = args.rerand_on_leak;
  if (args.rerand_scope == "fleet") {
    rp.scope = os::RerandomizePolicy::Scope::kFleet;
  }
  rp.max_defer = args.rerand_max_defer;
  return rp;
}

os::RestartPolicy::Mode parse_restart_mode(const std::string& name) {
  if (name == "never") return os::RestartPolicy::Mode::kNever;
  if (name == "on-fault") return os::RestartPolicy::Mode::kOnFault;
  if (name == "always") return os::RestartPolicy::Mode::kAlways;
  throw std::runtime_error("--restart expects never|on-fault|always, got '" +
                           name + "'");
}

/// --inject pid:site:instr[:seed] — arm one corruption in one process.
struct InjectSpec {
  uint32_t pid = 0;
  fault::FaultPlan plan;
};

/// --slo p50|p99|p999:<cycles> — the serve SLO objective.
void parse_slo(const std::string& spec, serve::ServeConfig& sc) {
  const size_t colon = spec.find(':');
  const std::string metric = spec.substr(0, colon);
  uint32_t permille = 0;
  if (metric == "p50") {
    permille = 500;
  } else if (metric == "p99") {
    permille = 990;
  } else if (metric == "p999") {
    permille = 999;
  }
  if (permille == 0 || colon == std::string::npos) {
    throw std::runtime_error("--slo expects p50|p99|p999:<cycles>, got '" +
                             spec + "'");
  }
  const uint64_t threshold =
      parse_number<uint64_t>("--slo", spec.substr(colon + 1));
  if (threshold == 0) {
    throw std::runtime_error("--slo threshold must be > 0 cycles");
  }
  sc.slo_permille = permille;
  sc.slo_threshold = threshold;
}

InjectSpec parse_inject(const std::string& spec) {
  const std::vector<std::string> parts = split_list([&] {
    std::string s = spec;
    for (char& c : s) {
      if (c == ':') c = ',';
    }
    return s;
  }());
  if (parts.size() < 3 || parts.size() > 4) {
    throw std::runtime_error(
        "--inject expects pid:site:instr[:seed], got '" + spec + "'");
  }
  InjectSpec out;
  out.pid = parse_number<uint32_t>("--inject", parts[0]);
  const auto site = fault::parse_site(parts[1]);
  if (!site) {
    throw std::runtime_error("--inject: unknown fault site '" + parts[1] +
                             "' (code_byte|translation_entry|ret_slot|"
                             "ret_bitmap|payload)");
  }
  out.plan.site = *site;
  out.plan.at_instruction = parse_number<uint64_t>("--inject", parts[2]);
  if (parts.size() == 4) {
    out.plan.seed = parse_number<uint64_t>("--inject", parts[3]);
  }
  return out;
}

int cmd_fleet(const Args& args) {
  os::KernelConfig kc;
  kc.cores = args.cores;
  kc.sched.slice_instructions = args.slice;
  kc.cpu.drc.entries = args.drc;
  kc.measure_isolated = !args.no_baseline;
  kc.pool_workers = args.pool_workers;
  if ((args.checkpoint_out.empty()) != (args.checkpoint_round == 0)) {
    throw std::runtime_error(
        "--checkpoint-out and --checkpoint-round go together");
  }

  // Workloads: explicit comma-separated list, or cycle the SPEC-like
  // suite in the paper's order.
  std::vector<std::string> names = !args.workload_list.empty()
                                       ? split_list(args.workload_list)
                                       : workloads::spec_names();
  if (names.empty()) throw std::runtime_error("no workloads given");

  os::RestartPolicy restart;
  if (!args.restart.empty()) restart.mode = parse_restart_mode(args.restart);
  restart.max_restarts = args.max_restarts;
  restart.backoff_rounds = args.backoff;
  std::optional<InjectSpec> inject;
  if (!args.inject.empty()) inject = parse_inject(args.inject);

  os::Kernel kernel(kc);
  if (!args.profile_out.empty()) kernel.enable_profiling();
  std::optional<telemetry::Telemetry> tel;
  if (telemetry_requested(args)) {
    tel.emplace(telemetry_config(args));
    kernel.attach_telemetry(&*tel);
  }
  for (uint32_t i = 0; i < args.procs; ++i) {
    os::ProcessConfig pc;
    pc.workload = names[i % names.size()];
    pc.scale = args.scale;
    // Distinct placement per process even under one fleet seed.
    pc.seed = args.seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
    pc.max_instructions = args.max_instr;
    pc.rerandomize = parse_rerand_policy(args);
    pc.restart = restart;
    pc.watchdog_instructions = args.watchdog;
    pc.taint = args.taint;
    if (inject && inject->pid == i) {
      pc.inject = inject->plan;
      pc.inject_enabled = true;
    }
    kernel.spawn(pc);
  }
  if (inject && inject->pid >= args.procs) {
    throw std::runtime_error("--inject pid out of range (procs=" +
                             std::to_string(args.procs) + ")");
  }
  if (!args.checkpoint_out.empty()) {
    kernel.set_checkpoint(args.checkpoint_round, args.checkpoint_out);
  }
  if (!args.restore_in.empty()) {
    std::ifstream in(args.restore_in, std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open checkpoint: " + args.restore_in);
    }
    kernel.restore(in);
    std::fprintf(stderr, "restored: %s\n", args.restore_in.c_str());
  }

  const os::FleetReport report = kernel.run();
  if (args.taint) {
    std::fprintf(stderr,
                 "taint: %llu leak(s) detected, %llu leak-triggered "
                 "re-randomization(s)\n",
                 static_cast<unsigned long long>(kernel.leaks_detected()),
                 static_cast<unsigned long long>(kernel.leak_rerands()));
  }
  if (tel) export_telemetry(args, *tel);
  if (!args.profile_out.empty()) {
    // One profile per tenant; shared-L2 contention appears in each
    // tenant's l2_contention_by_asid keyed by the interfering asid
    // (asid == pid in the fleet).
    for (uint32_t pid = 0; pid < kernel.process_count(); ++pid) {
      const profile::Profiler* prof = kernel.profiler(pid);
      profile::ProfileMeta meta;
      meta.app = kernel.process(pid).config().workload;
      meta.layout = "vcfr";
      meta.seed = kernel.process(pid).config().seed;
      meta.expected_cycles = prof->attributed_cycles();
      const std::string path = per_pid_path(args.profile_out, pid);
      write_file(path, prof->to_json(meta, args.top) + "\n");
      if (path != "-") std::fprintf(stderr, "profile: %s\n", path.c_str());
    }
  }
  if (args.json) {
    std::fputs(report.to_json().c_str(), stdout);
  } else {
    std::fputs(report.summary().c_str(), g_report);
    std::fputs(report.to_json().c_str(), g_report);
  }
  // Exit status reflects the fleet's final state: a crash that the
  // restart policy recovered from (process came back and halted) is a
  // success; an unrecovered fault or watchdog kill is not.
  for (const auto& p : report.processes) {
    if (!p.arch_match && kc.measure_isolated) return 1;
    if (p.exit == fault::exit_name(fault::ExitCode::kFaulted) ||
        p.exit == fault::exit_name(fault::ExitCode::kWatchdogKill)) {
      return 1;
    }
  }
  return 0;
}

int cmd_serve(const Args& args) {
  serve::ServeConfig sc;
  sc.tenants = args.tenants;
  sc.cores = args.cores;
  sc.duration = args.duration;
  if (args.arrival == "open") {
    sc.model = serve::ArrivalModel::kOpen;
  } else if (args.arrival == "closed") {
    sc.model = serve::ArrivalModel::kClosed;
  } else {
    throw std::runtime_error("--arrival expects open|closed, got '" +
                             args.arrival + "'");
  }
  if (args.dist == "fixed") {
    sc.dist = serve::Distribution::kFixed;
  } else if (args.dist == "uniform") {
    sc.dist = serve::Distribution::kUniform;
  } else if (args.dist == "exp") {
    sc.dist = serve::Distribution::kExponential;
  } else {
    throw std::runtime_error("--dist expects fixed|uniform|exp, got '" +
                             args.dist + "'");
  }
  sc.mean_interarrival = args.interarrival;
  if (!args.workload_list.empty()) sc.workloads = split_list(args.workload_list);
  sc.scale = args.scale;
  sc.seed = args.seed;
  // --slice and --max-instr default to ServeConfig's values: the global
  // defaults size a whole workload, a request is one handler invocation.
  if (flag_given(args, "--slice")) sc.slice_instructions = args.slice;
  sc.drc_entries = args.drc;
  if (flag_given(args, "--max-instr")) sc.request_budget = args.max_instr;
  sc.watchdog_instructions = args.watchdog;
  if (!args.restart.empty()) sc.restart.mode = parse_restart_mode(args.restart);
  sc.restart.max_restarts = args.max_restarts;
  sc.restart.backoff_rounds = args.backoff;
  sc.rerandomize = parse_rerand_policy(args);
  sc.taint = args.taint;
  if (!args.inject.empty()) {
    const InjectSpec spec = parse_inject(args.inject);
    if (spec.pid >= sc.tenants) {
      throw std::runtime_error("--inject pid out of range (tenants=" +
                               std::to_string(sc.tenants) + ")");
    }
    sc.injections.emplace_back(spec.pid, spec.plan);
  }

  if (!args.slo.empty()) parse_slo(args.slo, sc);
  sc.slo_window = args.slo_window;
  sc.pool_workers = args.pool_workers;

  // The flight recorder is always on for serve — the journal is bounded
  // and cheap, and a tenant going down without one means the post-mortem
  // is gone. Tracing/sampling stay opt-in.
  telemetry::TelemetryConfig tc = telemetry_config(args);
  tc.journal = true;
  telemetry::Telemetry tel(tc);
  const serve::ServeReport report = serve::run_serve(sc, &tel);
  if (telemetry_requested(args)) export_telemetry(args, tel);
  if (!args.latency_out.empty()) {
    write_file(args.latency_out, report.latency_csv());
    if (args.latency_out != "-") {
      std::fprintf(stderr, "latency: %s\n", args.latency_out.c_str());
    }
  }
  if (args.json) {
    std::fputs(report.to_json().c_str(), stdout);
  } else {
    std::fputs(report.summary().c_str(), g_report);
    std::fputs(report.to_json().c_str(), g_report);
  }
  if (report.tenants_down > 0 && args.journal_out.empty() &&
      tel.journal() != nullptr) {
    // Post-mortem: a tenant left the fleet for good and no --journal-out
    // captured the flight recorder, so dump it where the operator looks.
    std::fprintf(stderr, "--- flight recorder (%zu entries, %llu dropped) ---\n",
                 tel.journal()->entries().size(),
                 static_cast<unsigned long long>(tel.journal()->dropped()));
    std::fputs(tel.journal()->to_jsonl().c_str(), stderr);
  }
  // A tenant that crashed but was restarted and kept serving is a success;
  // a tenant that left the fleet for good is not. SLO violation gets its
  // own exit status so scripts can tell "down" from "slow".
  if (report.tenants_down > 0) return 1;
  if (report.slo_violated) return 2;
  return 0;
}

// ---- trace-report: offline critical-path breakdown ----

int cmd_trace_report(const Args& args) {
  const std::string path = require_input(args);
  const std::vector<serve::LatencyRow> rows =
      serve::read_latency_csv(read_file(path), path).rows;
  if (rows.empty()) throw std::runtime_error(path + ": no request rows");

  // Conservation audit: the four components must tile the latency exactly
  // for every request — a violation means the serve-path accounting (or
  // the CSV) is broken, which is worth a failing exit status.
  uint64_t violations = 0;
  for (const auto& [tenant, r] : rows) {
    const uint64_t sum = r.queue_cycles + r.run_cycles +
                         r.restart_loss_cycles + r.commit_stall_cycles;
    if (sum != r.latency()) {
      if (violations < 10) {
        rprintf("CONSERVATION VIOLATION tenant %u request %llu: "
                "queue %llu + run %llu + restart_loss %llu + "
                "commit_stall %llu = %llu != latency %llu\n",
                tenant, static_cast<unsigned long long>(r.id),
                static_cast<unsigned long long>(r.queue_cycles),
                static_cast<unsigned long long>(r.run_cycles),
                static_cast<unsigned long long>(r.restart_loss_cycles),
                static_cast<unsigned long long>(r.commit_stall_cycles),
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(r.latency()));
      }
      ++violations;
    }
  }

  // Fleet-wide component totals: where do request cycles actually go?
  struct Agg {
    uint64_t n = 0, failed = 0;
    uint64_t latency = 0, queue = 0, run = 0, restart_loss = 0,
             commit_stall = 0;
    void add(const serve::RequestRecord& r) {
      ++n;
      if (r.failed) ++failed;
      latency += r.latency();
      queue += r.queue_cycles;
      run += r.run_cycles;
      restart_loss += r.restart_loss_cycles;
      commit_stall += r.commit_stall_cycles;
    }
  };
  Agg total;
  std::map<uint32_t, Agg> by_tenant;
  for (const auto& [tenant, r] : rows) {
    total.add(r);
    by_tenant[tenant].add(r);
  }
  const auto pct = [&](uint64_t part) {
    return total.latency == 0
               ? 0.0
               : 100.0 * static_cast<double>(part) /
                     static_cast<double>(total.latency);
  };
  rprintf("trace-report: %zu requests (%llu failed) from %s\n", rows.size(),
          static_cast<unsigned long long>(total.failed), path.c_str());
  rprintf("critical path (cycles, %% of total latency):\n");
  rprintf("  queue         %14llu  %5.1f%%\n",
          static_cast<unsigned long long>(total.queue), pct(total.queue));
  rprintf("  run           %14llu  %5.1f%%\n",
          static_cast<unsigned long long>(total.run), pct(total.run));
  rprintf("  restart_loss  %14llu  %5.1f%%\n",
          static_cast<unsigned long long>(total.restart_loss),
          pct(total.restart_loss));
  rprintf("  commit_stall  %14llu  %5.1f%%\n",
          static_cast<unsigned long long>(total.commit_stall),
          pct(total.commit_stall));
  rprintf("  total latency %14llu\n",
          static_cast<unsigned long long>(total.latency));

  rprintf("\nper-tenant breakdown (cycles):\n");
  rprintf("%-7s %6s %6s %14s %14s %14s %14s %14s\n", "tenant", "reqs", "fail",
          "latency", "queue", "run", "restart_loss", "commit_stall");
  for (const auto& [pid, a] : by_tenant) {
    rprintf("%-7u %6llu %6llu %14llu %14llu %14llu %14llu %14llu\n", pid,
            static_cast<unsigned long long>(a.n),
            static_cast<unsigned long long>(a.failed),
            static_cast<unsigned long long>(a.latency),
            static_cast<unsigned long long>(a.queue),
            static_cast<unsigned long long>(a.run),
            static_cast<unsigned long long>(a.restart_loss),
            static_cast<unsigned long long>(a.commit_stall));
  }

  // Top-K slowest requests: latency descending, (tenant, request) breaks
  // ties so the listing is deterministic.
  std::vector<const serve::LatencyRow*> slow;
  slow.reserve(rows.size());
  for (const serve::LatencyRow& row : rows) slow.push_back(&row);
  std::sort(slow.begin(), slow.end(),
            [](const serve::LatencyRow* a, const serve::LatencyRow* b) {
              if (a->record.latency() != b->record.latency()) {
                return a->record.latency() > b->record.latency();
              }
              if (a->tenant != b->tenant) return a->tenant < b->tenant;
              return a->record.id < b->record.id;
            });
  const size_t k = std::min<size_t>(args.top, slow.size());
  rprintf("\ntop %zu slowest requests:\n", k);
  rprintf("%-7s %8s %12s %12s %12s %12s %12s %6s\n", "tenant", "request",
          "latency", "queue", "run", "rst_loss", "cmt_stall", "status");
  for (size_t i = 0; i < k; ++i) {
    const serve::RequestRecord& r = slow[i]->record;
    rprintf("%-7u %8llu %12llu %12llu %12llu %12llu %12llu %6s\n",
            slow[i]->tenant, static_cast<unsigned long long>(r.id),
            static_cast<unsigned long long>(r.latency()),
            static_cast<unsigned long long>(r.queue_cycles),
            static_cast<unsigned long long>(r.run_cycles),
            static_cast<unsigned long long>(r.restart_loss_cycles),
            static_cast<unsigned long long>(r.commit_stall_cycles),
            r.failed ? "FAIL" : "ok");
  }

  if (!args.journal_in.empty()) {
    // Leak forensics from the flight recorder: per-tenant counts, the
    // deepest propagation chain, and the sink kinds that fired.
    struct LeakAgg {
      uint64_t count = 0;
      uint64_t attributed = 0;  // entries carrying a request id
      uint64_t max_depth = 0;
      std::set<std::string> sinks;
    };
    std::map<uint32_t, LeakAgg> by_pid;
    for (const telemetry::JournalEntry& e : telemetry::read_jsonl(
             read_file(args.journal_in), args.journal_in)) {
      if (e.kind != telemetry::JournalKind::kLeak) continue;
      LeakAgg& a = by_pid[e.pid];
      ++a.count;
      if (e.req >= 0) ++a.attributed;
      a.max_depth = std::max(a.max_depth, e.arg);
      // The detail ends "... sink=<kind>" (os::Kernel's leak provenance).
      const size_t spos = e.detail.find("sink=");
      if (spos != std::string::npos) {
        a.sinks.insert(e.detail.substr(
            spos + 5, e.detail.find(' ', spos) - (spos + 5)));
      }
    }
    rprintf("\nleak forensics (%s):\n", args.journal_in.c_str());
    if (by_pid.empty()) {
      rprintf("  no leak entries\n");
    } else {
      rprintf("%-7s %8s %11s %10s  %s\n", "tenant", "leaks", "attributed",
              "max_depth", "sinks");
      for (const auto& [pid, a] : by_pid) {
        std::string sinks;
        for (const std::string& s : a.sinks) {
          if (!sinks.empty()) sinks += ",";
          sinks += s;
        }
        rprintf("%-7u %8llu %11llu %10llu  %s\n", pid,
                static_cast<unsigned long long>(a.count),
                static_cast<unsigned long long>(a.attributed),
                static_cast<unsigned long long>(a.max_depth), sinks.c_str());
      }
    }
    // Cross-check: the CSV's per-tenant leak totals must equal the
    // journal's request-attributed leak entries — a mismatch means one
    // of the two observability paths lost or fabricated events.
    std::map<uint32_t, uint64_t> csv_leaks;
    for (const auto& [tenant, r] : rows) csv_leaks[tenant] += r.leaks;
    std::set<uint32_t> pids;
    for (const auto& [pid, a] : by_pid) {
      if (a.attributed > 0) pids.insert(pid);
    }
    for (const auto& [pid, n] : csv_leaks) {
      if (n > 0) pids.insert(pid);
    }
    uint64_t mismatches = 0;
    for (const uint32_t pid : pids) {
      const auto jit = by_pid.find(pid);
      const uint64_t jn = jit == by_pid.end() ? 0 : jit->second.attributed;
      const auto cit = csv_leaks.find(pid);
      const uint64_t cn = cit == csv_leaks.end() ? 0 : cit->second;
      if (jn != cn) {
        rprintf("LEAK CROSS-CHECK MISMATCH tenant %u: journal has %llu "
                "request-attributed leak entries, CSV reports %llu\n",
                pid, static_cast<unsigned long long>(jn),
                static_cast<unsigned long long>(cn));
        ++mismatches;
      }
    }
    if (mismatches == 0) {
      rprintf("  leak cross-check: journal matches CSV\n");
    }
    violations += mismatches;
  }

  if (violations > 0) {
    rprintf("\n%llu conservation/leak cross-check violations\n",
            static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}

int cmd_prof(const Args& args) {
  const auto image = binary::load_file(require_input(args));
  sim::CpuConfig config;
  config.drc.entries = args.drc;

  const auto print_causes = [](const char* label,
                               const profile::Profiler& prof) {
    rprintf("%s%scause breakdown (cycles):\n", label,
                label[0] == '\0' ? "" : " ");
    for (size_t c = 0; c < profile::kNumCauses; ++c) {
      const auto cause = static_cast<profile::Cause>(c);
      const uint64_t cycles = prof.cause_cycles(cause);
      if (cycles == 0) continue;
      rprintf("  %-16s %llu\n",
                  std::string(profile::cause_name(cause)).c_str(),
                  static_cast<unsigned long long>(cycles));
    }
  };

  if (image.layout != binary::Layout::kOriginal) {
    // Already-randomized input (VCFR or naive-ILR): one attributed profile.
    profile::Profiler prof(image);
    const auto res =
        sim::simulate(image, args.max_instr, config, nullptr, &prof);
    const profile::ProfileMeta meta = profile_meta(image, res.cycles);
    rprintf("guest profile: %s (%s, seed %llu)\n", meta.app.c_str(),
                meta.layout.c_str(),
                static_cast<unsigned long long>(meta.seed));
    rprintf("instructions: %llu  cycles: %llu  resolved: %.1f%%\n",
                static_cast<unsigned long long>(prof.instructions()),
                static_cast<unsigned long long>(prof.attributed_cycles()),
                100 * prof.resolved_fraction());
    print_causes("", prof);
    rprintf("\nfunctions (cycles desc):\n");
    for (const auto& f : prof.functions()) {
      rprintf("  %-24s %12llu cycles %12llu instr\n", f.name.c_str(),
                  static_cast<unsigned long long>(f.cycles),
                  static_cast<unsigned long long>(f.instructions));
    }
    rprintf("\n%s", prof.to_hot_blocks(meta, args.top).c_str());
    export_profile(args, prof, meta);
    return 0;
  }

  // Original input: profile it natively AND as its seed-randomized VCFR
  // sibling, then report per-function overhead (the paper's Figs. 13-14
  // view: where VCFR's extra cycles land in the guest).
  rewriter::RandomizeOptions opts;
  opts.seed = args.seed;
  const auto rr = rewriter::randomize(image, opts);
  profile::Profiler native_prof(image);
  profile::Profiler vcfr_prof(rr.vcfr);
  const auto native_res =
      sim::simulate(image, args.max_instr, config, nullptr, &native_prof);
  const auto vcfr_res =
      sim::simulate(rr.vcfr, args.max_instr, config, nullptr, &vcfr_prof);
  const profile::ProfileMeta native_meta =
      profile_meta(image, native_res.cycles);
  const profile::ProfileMeta vcfr_meta = profile_meta(rr.vcfr, vcfr_res.cycles);

  // Per-function comparison matched by name; a function with no samples on
  // one side reports 0 cycles there. VCFR-hot functions first.
  struct CmpRow {
    std::string name;
    uint64_t native = 0;
    uint64_t vcfr = 0;
  };
  const auto nf = native_prof.functions();
  const auto vf = vcfr_prof.functions();
  std::map<std::string, uint64_t> native_left;
  for (const auto& f : nf) native_left[f.name] = f.cycles;
  std::vector<CmpRow> rows;
  for (const auto& f : vf) {
    CmpRow row{f.name, 0, f.cycles};
    const auto it = native_left.find(f.name);
    if (it != native_left.end()) {
      row.native = it->second;
      native_left.erase(it);
    }
    rows.push_back(std::move(row));
  }
  for (const auto& f : nf) {
    if (native_left.count(f.name) != 0) rows.push_back({f.name, f.cycles, 0});
  }

  const double overhead =
      native_res.cycles == 0 ? 0.0
                             : static_cast<double>(vcfr_res.cycles) /
                                   static_cast<double>(native_res.cycles);
  rprintf("guest profile: %s (seed %llu), VCFR vs native\n",
              image.name.c_str(),
              static_cast<unsigned long long>(args.seed));
  rprintf("total: native %llu cycles, vcfr %llu cycles (%.3fx)\n",
              static_cast<unsigned long long>(native_res.cycles),
              static_cast<unsigned long long>(vcfr_res.cycles), overhead);
  rprintf("%-24s %14s %14s %8s\n", "function", "native", "vcfr", "ratio");
  for (const CmpRow& row : rows) {
    if (row.native == 0) {
      rprintf("%-24s %14llu %14llu %8s\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.native),
                  static_cast<unsigned long long>(row.vcfr), "-");
    } else {
      rprintf("%-24s %14llu %14llu %7.3fx\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.native),
                  static_cast<unsigned long long>(row.vcfr),
                  static_cast<double>(row.vcfr) /
                      static_cast<double>(row.native));
    }
  }
  rprintf("\n");
  print_causes("vcfr", vcfr_prof);
  rprintf("\n%s", vcfr_prof.to_hot_blocks(vcfr_meta, args.top).c_str());

  if (!args.profile_out.empty()) {
    telemetry::JsonWriter w;
    w.begin_object(telemetry::JsonWriter::Style::kPretty);
    w.key("native").raw_value(native_prof.to_json(native_meta, args.top));
    w.key("vcfr").raw_value(vcfr_prof.to_json(vcfr_meta, args.top));
    w.key("comparison").begin_array(telemetry::JsonWriter::Style::kPretty);
    for (const CmpRow& row : rows) {
      w.begin_object(telemetry::JsonWriter::Style::kCompact);
      w.key("name").value(row.name);
      w.key("native_cycles").value(row.native);
      w.key("vcfr_cycles").value(row.vcfr);
      w.key("overhead")
          .raw_value(telemetry::json_double(
              row.native == 0 ? 0.0
                              : static_cast<double>(row.vcfr) /
                                    static_cast<double>(row.native)));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    write_file(args.profile_out, w.str() + "\n");
    if (args.profile_out != "-") {
      std::fprintf(stderr, "profile: %s\n", args.profile_out.c_str());
    }
  }
  if (!args.flame_out.empty()) {
    write_file(args.flame_out, vcfr_prof.to_collapsed());
    if (args.flame_out != "-") {
      std::fprintf(stderr, "flamegraph: %s\n", args.flame_out.c_str());
    }
  }
  return 0;
}

int cmd_faultcamp(const Args& args) {
  fault::CampaignConfig cc;
  if (!args.workload_list.empty()) cc.workloads = split_list(args.workload_list);
  cc.scale = args.scale;
  cc.trials = args.trials;
  cc.seed = args.seed;
  // The global --max-instr default (100M) sizes a whole workload; a hung
  // campaign trial should cost far less, so an absent flag means 2M.
  cc.max_instructions =
      flag_given(args, "--max-instr") ? args.max_instr : 2'000'000;
  if (!args.layout_list.empty()) {
    cc.layouts.clear();
    for (const std::string& name : split_list(args.layout_list)) {
      if (name == "native" || name == "original") {
        cc.layouts.push_back(binary::Layout::kOriginal);
      } else if (name == "naive" || name == "naive_ilr") {
        cc.layouts.push_back(binary::Layout::kNaiveIlr);
      } else if (name == "vcfr") {
        cc.layouts.push_back(binary::Layout::kVcfr);
      } else {
        throw std::runtime_error("--layouts: unknown layout '" + name +
                                 "' (native|naive|vcfr)");
      }
    }
  }
  if (!args.site_list.empty()) {
    cc.sites.clear();
    for (const std::string& name : split_list(args.site_list)) {
      const auto site = fault::parse_site(name);
      if (!site) {
        throw std::runtime_error("--sites: unknown fault site '" + name +
                                 "' (code_byte|translation_entry|ret_slot|"
                                 "ret_bitmap|payload)");
      }
      cc.sites.push_back(*site);
    }
  }

  std::optional<telemetry::StatRegistry> registry;
  if (!args.stats_json.empty()) registry.emplace();
  const fault::CampaignReport report =
      fault::run_campaign(cc, registry ? &*registry : nullptr);
  if (registry) {
    write_file(args.stats_json, registry->to_json());
    std::fprintf(stderr, "stats: %s\n", args.stats_json.c_str());
  }
  if (!args.output.empty()) {
    write_file(args.output, report.to_json());
    std::fputs(report.summary().c_str(), g_report);
    std::fprintf(stderr, "report: %s\n", args.output.c_str());
  } else if (args.json) {
    std::fputs(report.to_json().c_str(), stdout);
  } else {
    std::fputs(report.summary().c_str(), g_report);
    std::fputs(report.to_json().c_str(), g_report);
  }
  return 0;
}

void usage() { std::fputs(cli::usage_text(), stderr); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    validate_flags(cmd, args);
    // With a payload streaming to stdout, human-readable reports move to
    // stderr so pipelines stay clean.
    for (const std::string* out :
         {&args.stats_json, &args.trace_out, &args.sample_out,
          &args.profile_out, &args.flame_out, &args.latency_out,
          &args.journal_out}) {
      if (*out == "-") g_report = stderr;
    }
    if (cmd == "asm") return cmd_asm(args);
    if (cmd == "disasm") return cmd_disasm(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "randomize") return cmd_randomize(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "sim") return cmd_sim(args);
    if (cmd == "scan") return cmd_scan(args);
    if (cmd == "workload") return cmd_workload(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "cfg") return cmd_cfg(args);
    if (cmd == "entropy") return cmd_entropy(args);
    if (cmd == "fleet") return cmd_fleet(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "trace-report") return cmd_trace_report(args);
    if (cmd == "prof") return cmd_prof(args);
    if (cmd == "faultcamp") return cmd_faultcamp(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcfr %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
