#include "cli/args.hpp"

#include <map>
#include <optional>
#include <set>
#include <stdexcept>

namespace vcfr::cli {

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    // Accept both `--flag value` and `--flag=value`.
    std::optional<std::string> inline_value;
    if (a.size() > 2 && a[0] == '-' && a[1] == '-') {
      const size_t eq = a.find('=');
      if (eq != std::string::npos) {
        inline_value = a.substr(eq + 1);
        a = a.substr(0, eq);
      }
    }
    auto value = [&]() -> std::string {
      if (inline_value) return *inline_value;
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    auto boolean = [&]() {
      if (inline_value) throw std::runtime_error(a + " does not take a value");
      return true;
    };
    if (!a.empty() && a[0] == '-') {
      args.seen.push_back(a == "-o" ? "--output" : a);
    }
    if (a == "-o" || a == "--output") {
      args.output = value();
    } else if (a == "--seed") {
      args.seed = parse_number<uint64_t>(a, value());
    } else if (a == "--max-instr") {
      args.max_instr = parse_number<uint64_t>(a, value());
    } else if (a == "--drc") {
      args.drc = parse_number<uint32_t>(a, value());
    } else if (a == "--scale") {
      args.scale = parse_number<int>(a, value());
    } else if (a == "--naive") {
      args.naive = boolean();
    } else if (a == "--software-returns") {
      args.software_returns = boolean();
    } else if (a == "--page-confined") {
      args.page_confined = boolean();
    } else if (a == "--enforce-tags") {
      args.enforce_tags = boolean();
    } else if (a == "--regs") {
      args.regs = boolean();
    } else if (a == "--procs") {
      args.procs = parse_number<uint32_t>(a, value());
    } else if (a == "--cores") {
      args.cores = parse_number<uint32_t>(a, value());
    } else if (a == "--slice") {
      args.slice = parse_number<uint64_t>(a, value());
    } else if (a == "--rerand") {
      args.rerand = parse_number<uint32_t>(a, value());
    } else if (a == "--rerand-mode") {
      args.rerand_mode = value();
      if (args.rerand_mode != "full" && args.rerand_mode != "incremental") {
        throw std::runtime_error("--rerand-mode must be full or incremental");
      }
    } else if (a == "--rerand-on-trap") {
      args.rerand_on_trap = boolean();
    } else if (a == "--rerand-on-leak") {
      args.rerand_on_leak = boolean();
    } else if (a == "--taint") {
      args.taint = boolean();
    } else if (a == "--rerand-scope") {
      args.rerand_scope = value();
      if (args.rerand_scope != "proc" && args.rerand_scope != "fleet") {
        throw std::runtime_error("--rerand-scope must be proc or fleet");
      }
    } else if (a == "--rerand-max-defer") {
      args.rerand_max_defer = parse_number<uint32_t>(a, value());
    } else if (a == "--pool-workers") {
      args.pool_workers = parse_number<uint32_t>(a, value());
    } else if (a == "--checkpoint-out") {
      args.checkpoint_out = value();
    } else if (a == "--checkpoint-round") {
      args.checkpoint_round = parse_number<uint64_t>(a, value());
    } else if (a == "--restore") {
      args.restore_in = value();
    } else if (a == "--workloads") {
      args.workload_list = value();
    } else if (a == "--restart") {
      args.restart = value();
    } else if (a == "--max-restarts") {
      args.max_restarts = parse_number<uint32_t>(a, value());
    } else if (a == "--backoff") {
      args.backoff = parse_number<uint64_t>(a, value());
    } else if (a == "--watchdog") {
      args.watchdog = parse_number<uint64_t>(a, value());
    } else if (a == "--inject") {
      args.inject = value();
    } else if (a == "--layouts") {
      args.layout_list = value();
    } else if (a == "--sites") {
      args.site_list = value();
    } else if (a == "--trials") {
      args.trials = parse_number<uint32_t>(a, value());
    } else if (a == "--tenants") {
      args.tenants = parse_number<uint32_t>(a, value());
    } else if (a == "--duration") {
      args.duration = parse_number<uint64_t>(a, value());
    } else if (a == "--arrival") {
      args.arrival = value();
    } else if (a == "--dist") {
      args.dist = value();
    } else if (a == "--interarrival") {
      args.interarrival = parse_number<uint64_t>(a, value());
    } else if (a == "--latency-out") {
      args.latency_out = value();
    } else if (a == "--json") {
      args.json = boolean();
    } else if (a == "--no-baseline") {
      args.no_baseline = boolean();
    } else if (a == "--stats-json") {
      args.stats_json = value();
    } else if (a == "--trace-out") {
      args.trace_out = value();
    } else if (a == "--sample-interval") {
      args.sample_interval = parse_number<uint64_t>(a, value());
    } else if (a == "--sample-out") {
      args.sample_out = value();
    } else if (a == "--trace-capacity") {
      args.trace_capacity = parse_number<uint64_t>(a, value());
    } else if (a == "--journal-out") {
      args.journal_out = value();
    } else if (a == "--journal-capacity") {
      args.journal_capacity = parse_number<uint64_t>(a, value());
    } else if (a == "--journal") {
      args.journal_in = value();
    } else if (a == "--slo") {
      args.slo = value();
    } else if (a == "--slo-window") {
      args.slo_window = parse_number<uint64_t>(a, value());
    } else if (a == "--profile-out") {
      args.profile_out = value();
    } else if (a == "--flame-out") {
      args.flame_out = value();
    } else if (a == "--top") {
      args.top = parse_number<uint32_t>(a, value());
    } else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown flag: " + a);
    } else {
      args.positional.push_back(a);
    }
  }
  if (args.sample_interval > 0 && args.sample_out.empty()) {
    throw std::runtime_error("--sample-interval requires --sample-out");
  }
  if (args.sample_interval == 0 && !args.sample_out.empty()) {
    throw std::runtime_error("--sample-out requires --sample-interval");
  }
  return args;
}

void validate_flags(const std::string& cmd, const Args& args) {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"asm", {"--output"}},
      {"disasm", {}},
      {"stats", {}},
      {"randomize",
       {"--output", "--seed", "--naive", "--software-returns",
        "--page-confined"}},
      {"run",
       {"--enforce-tags", "--taint", "--max-instr", "--stats-json",
        "--trace-out", "--trace-capacity", "--sample-interval",
        "--sample-out", "--profile-out", "--flame-out", "--top"}},
      {"sim",
       {"--drc", "--max-instr", "--stats-json", "--trace-out",
        "--trace-capacity", "--sample-interval", "--sample-out",
        "--profile-out", "--flame-out", "--top"}},
      {"scan", {}},
      {"workload",
       {"--output", "--scale", "--stats-json", "--trace-out",
        "--trace-capacity", "--sample-interval", "--sample-out"}},
      {"trace", {"--max-instr", "--regs"}},
      {"cfg", {}},
      {"entropy", {"--seed", "--page-confined"}},
      {"fleet",
       {"--procs", "--cores", "--slice", "--rerand", "--rerand-mode",
        "--rerand-on-trap", "--rerand-scope", "--rerand-max-defer",
        "--taint", "--rerand-on-leak", "--workloads", "--scale",
        "--seed", "--json", "--no-baseline", "--drc", "--max-instr",
        "--restart", "--max-restarts", "--backoff", "--watchdog", "--inject",
        "--stats-json", "--trace-out", "--trace-capacity", "--journal-out",
        "--journal-capacity",
        "--sample-interval", "--sample-out", "--profile-out", "--top",
        "--pool-workers", "--checkpoint-out", "--checkpoint-round",
        "--restore"}},
      {"prof",
       {"--seed", "--drc", "--max-instr", "--top", "--profile-out",
        "--flame-out"}},
      {"faultcamp",
       {"--workloads", "--scale", "--seed", "--trials", "--max-instr",
        "--layouts", "--sites", "--json", "--output", "--stats-json"}},
      {"serve",
       {"--tenants", "--cores", "--duration", "--arrival", "--interarrival",
        "--dist", "--rerand", "--rerand-mode", "--rerand-on-trap",
        "--rerand-scope", "--rerand-max-defer",
        "--taint", "--rerand-on-leak",
        "--workloads", "--scale", "--seed", "--slice", "--drc",
        "--max-instr", "--restart", "--max-restarts", "--backoff",
        "--watchdog", "--inject", "--json", "--latency-out", "--stats-json",
        "--trace-out", "--trace-capacity", "--journal-out",
        "--journal-capacity",
        "--sample-interval", "--sample-out", "--slo", "--slo-window",
        "--pool-workers"}},
      {"trace-report", {"--journal", "--top"}},
  };
  const auto it = kAllowed.find(cmd);
  if (it == kAllowed.end()) return;  // unknown command: usage() handles it
  for (const std::string& flag : args.seen) {
    if (it->second.count(flag) == 0) {
      throw std::runtime_error("flag " + flag + " is not accepted by '" +
                               cmd + "' (run vcfr with no arguments for "
                               "per-command flags)");
    }
  }
}

const char* usage_text() {
  return
      "usage: vcfr <command> [flags]\n"
      "\n"
      "All flags accept both `--flag value` and `--flag=value`. Each\n"
      "command rejects flags it does not use.\n"
      "\n"
      "commands:\n"
      "  asm <src.vx> [-o out.vxe]\n"
      "      assemble VX source\n"
      "  disasm <img.vxe>\n"
      "      list instructions (a naive-ILR image's at their randomized\n"
      "      addresses, in ascending order)\n"
      "  stats <img.vxe>\n"
      "      static control-flow analysis\n"
      "  randomize <img.vxe> [-o out.vxe] [--seed N] [--naive]\n"
      "      [--software-returns] [--page-confined]\n"
      "      ILR-randomize; default output is the VCFR image, --naive the\n"
      "      relocated one\n"
      "  run <img.vxe> [--enforce-tags] [--taint] [--max-instr N]\n"
      "      [telemetry flags] [profile flags]\n"
      "      golden-model (functional) run; telemetry stamps events with\n"
      "      the instruction index; --taint shadow-tracks randomized-layout\n"
      "      secrets and reports any that reach program output\n"
      "  sim <img.vxe> [--drc N] [--max-instr N] [telemetry flags]\n"
      "      [profile flags]\n"
      "      cycle simulation on one core\n"
      "  scan <img.vxe>\n"
      "      gadget scan + payload compilation attempt\n"
      "  workload <name> [--scale S] [-o out.vxe] [telemetry flags]\n"
      "      emit a suite program; --stats-json reports static stats\n"
      "  trace <img.vxe> [--max-instr N] [--regs]\n"
      "      per-instruction architectural trace\n"
      "  cfg <img.vxe>\n"
      "      Graphviz dot to stdout\n"
      "  entropy <img.vxe> [--seed N] [--page-confined]\n"
      "      SV-C entropy report\n"
      "  fleet [--procs N] [--cores N] [--slice N] [--rerand N]\n"
      "      [--rerand-mode full|incremental] [--rerand-on-trap]\n"
      "      [--rerand-scope proc|fleet] [--rerand-max-defer K]\n"
      "      [--taint] [--rerand-on-leak]\n"
      "      [--workloads a,b,c] [--scale S] [--seed N] [--drc N]\n"
      "      [--max-instr N] [--json] [--no-baseline]\n"
      "      [--restart never|on-fault|always] [--max-restarts N]\n"
      "      [--backoff ROUNDS] [--watchdog INSTR]\n"
      "      [--inject pid:site:instr[:seed]] [telemetry flags]\n"
      "      [--profile-out PATH] [--top N] [--pool-workers N]\n"
      "      [--checkpoint-out PATH --checkpoint-round N]\n"
      "      [--restore PATH]\n"
      "      time-slice N independently randomized workloads on a shared\n"
      "      L2+DRAM hierarchy; --rerand re-randomizes every N slices;\n"
      "      --rerand-mode incremental patches only a deterministic subset\n"
      "      of code regions per firing with epoch-tagged (lazy) cache\n"
      "      invalidation instead of a full rebuild + flush;\n"
      "      --rerand-on-trap schedules a fresh placement when a tenant\n"
      "      takes an attack-signal trap (--rerand-scope fleet also moves\n"
      "      every co-tenant); --rerand-max-defer K forces quiescence after\n"
      "      K consecutive pinned-register deferrals (0 = defer forever);\n"
      "      --inject arms one seeded corruption,\n"
      "      --restart re-randomizes and restarts crashed processes\n"
      "      (docs/DEPENDABILITY.md); --profile-out writes one guest\n"
      "      profile per tenant (PATH.pidN.json); --pool-workers sizes the\n"
      "      host worker pool (0 = auto; results are bit-identical);\n"
      "      --checkpoint-out/--checkpoint-round serialize the fleet at a\n"
      "      round boundary, --restore resumes bit-identically from it\n"
      "      (incompatible with --profile-out); --taint shadow-tracks\n"
      "      randomized-layout secrets per tenant and journals any leak\n"
      "      with provenance; --rerand-on-leak treats a leak as an attack\n"
      "      signal (fresh placement, --rerand-scope honored)\n"
      "  serve [--tenants N] [--cores N] [--duration CYCLES]\n"
      "      [--arrival open|closed] [--interarrival CYCLES]\n"
      "      [--rerand N] [--rerand-mode full|incremental]\n"
      "      [--rerand-on-trap] [--rerand-scope proc|fleet]\n"
      "      [--rerand-max-defer K] [--taint] [--rerand-on-leak]\n"
      "      [--dist fixed|uniform|exp] [--workloads a,b,c] [--scale S]\n"
      "      [--seed N] [--slice N] [--drc N] [--max-instr N]\n"
      "      [--restart never|on-fault|always] [--max-restarts N]\n"
      "      [--backoff ROUNDS] [--watchdog INSTR]\n"
      "      [--inject pid:site:instr[:seed]] [--json]\n"
      "      [--latency-out PATH] [--journal-out PATH]\n"
      "      [--slo p50|p99|p999:CYCLES] [--slo-window CYCLES]\n"
      "      [--pool-workers N] [telemetry flags]\n"
      "      request-serving latency bench (docs/ARCHITECTURE.md sec 12):\n"
      "      seeded per-tenant request streams dispatched event-driven on\n"
      "      the fleet kernel; reports per-tenant p50/p99/p999 in cycles;\n"
      "      --latency-out writes the per-request lifecycle CSV (with the\n"
      "      queue/run/restart_loss/commit_stall breakdown);\n"
      "      --journal-out writes the kernel flight-recorder JSONL (also\n"
      "      dumped to stderr post-mortem when a tenant goes down);\n"
      "      --slo sets a windowed latency objective (--slo-window wide,\n"
      "      default 50000 cycles) — exit status 2 when the overall\n"
      "      percentile exceeds it; --max-instr is the per-request\n"
      "      instruction budget; the --rerand* family re-randomizes live\n"
      "      tenants under load exactly as in `fleet` (moving target while\n"
      "      serving); --taint attributes taint-sink leaks to requests\n"
      "      (extra CSV columns + report fields) and --rerand-on-leak\n"
      "      re-keys the leaking tenant at its next request boundary\n"
      "  trace-report <latency.csv> [--journal journal.jsonl] [--top N]\n"
      "      per-request critical-path breakdown from a serve\n"
      "      --latency-out CSV: per-tenant queue/run/restart_loss/\n"
      "      commit_stall totals, the top-N slowest requests, and an exact\n"
      "      conservation check (components must sum to the latency;\n"
      "      exit 1 otherwise); --journal ingests the flight recorder\n"
      "      and adds a per-tenant leak forensics section, cross-checked\n"
      "      against the CSV leak counts (exit 1 on mismatch); a\n"
      "      malformed CSV or journal exits 1 naming file:line; trace\n"
      "      checks live in tools/validate_trace.py\n"
      "  prof <img.vxe> [--seed N] [--drc N] [--max-instr N] [--top N]\n"
      "      [--profile-out PATH] [--flame-out PATH]\n"
      "      guest-level cycle-attribution profile (docs/OBSERVABILITY.md);\n"
      "      an original image is also randomized (--seed) and simulated as\n"
      "      VCFR for a per-function overhead comparison; a VCFR image is\n"
      "      profiled as-is\n"
      "  faultcamp [--workloads a,b,c] [--scale S] [--seed N] [--trials N]\n"
      "      [--max-instr N] [--layouts native,naive,vcfr]\n"
      "      [--sites code_byte,translation_entry,ret_slot,ret_bitmap,\n"
      "      payload] [--json] [-o report.json] [--stats-json PATH]\n"
      "      dependability campaign: sweep seeded faults over workloads x\n"
      "      layouts x sites; deterministic detection/containment report\n"
      "\n"
      "telemetry flags (run|sim|workload|fleet|serve —\n"
      "docs/OBSERVABILITY.md):\n"
      "  --stats-json PATH       write the stat-registry snapshot as JSON\n"
      "  --trace-out PATH        write a Chrome trace-event JSON (open at\n"
      "                          https://ui.perfetto.dev)\n"
      "  --trace-capacity N      per-lane trace ring capacity in events\n"
      "                          (default 65536; oldest events drop when\n"
      "                          full — a warning reports drops at export)\n"
      "  --journal-capacity N    flight-recorder ring capacity in entries\n"
      "                          (fleet/serve; default 4096; oldest entries\n"
      "                          drop when full — a warning reports drops\n"
      "                          at export)\n"
      "  --sample-interval N     snapshot the registry every N cycles\n"
      "  --sample-out PATH       time-series destination; .json for JSON,\n"
      "                          anything else for CSV (requires\n"
      "                          --sample-interval)\n"
      "\n"
      "profile flags (run|sim|prof, plus fleet's --profile-out/--top):\n"
      "  --profile-out PATH      write the deterministic JSON profile\n"
      "  --flame-out PATH        write a collapsed-stack flamegraph file\n"
      "                          (feed to flamegraph.pl / speedscope)\n"
      "  --top N                 hot blocks listed in reports (default 10)\n"
      "\n"
      "Any output PATH above may be `-` to stream to stdout.\n";
}

}  // namespace vcfr::cli
