// Flag parsing and per-subcommand validation for the `vcfr` CLI.
//
// Lives in the library (not tools/) so tests can drive the exact parser
// the binary ships: every flag accepts both `--flag value` and
// `--flag=value`, and each subcommand rejects flags it does not use
// (validate_flags), so a typo is an error instead of a silent no-op.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "binary/text_reader.hpp"

namespace vcfr::cli {

struct Args {
  std::vector<std::string> positional;
  std::string output;
  uint64_t seed = 1;
  uint64_t max_instr = 100'000'000;
  uint32_t drc = 128;
  int scale = 1;
  bool naive = false;
  bool software_returns = false;
  bool page_confined = false;
  bool enforce_tags = false;
  bool regs = false;
  uint32_t procs = 4;
  uint32_t cores = 2;
  uint64_t slice = 50'000;
  uint32_t rerand = 0;
  // Continuous re-randomization (fleet/serve) — docs/DEPENDABILITY.md.
  std::string rerand_mode;        // "" (= full) | full | incremental
  bool rerand_on_trap = false;    // fresh placement on attack-signal traps
  std::string rerand_scope;       // "" (= proc) | proc | fleet
  uint32_t rerand_max_defer = 0;  // forced quiescence after K deferrals
  // Leak observability (run/fleet/serve) — docs/OBSERVABILITY.md.
  bool taint = false;             // shadow taint tracking of layout secrets
  bool rerand_on_leak = false;    // fresh placement when a taint sink fires
  /// Execute-phase worker-pool size (fleet/serve); 0 = auto (cores - 1).
  /// Host parallelism only — simulated results are bit-identical.
  uint32_t pool_workers = 0;
  // Checkpoint/restore (fleet) — docs/ARCHITECTURE.md §14.
  std::string checkpoint_out;   // write fleet state here at --checkpoint-round
  uint64_t checkpoint_round = 0;
  std::string restore_in;       // resume from this checkpoint file
  std::string workload_list;
  bool json = false;
  bool no_baseline = false;
  // Fault containment (fleet/serve) and campaign (faultcamp) controls.
  std::string restart;       // never | on-fault | always
  uint32_t max_restarts = 3;
  uint64_t backoff = 8;
  uint64_t watchdog = 0;
  std::string inject;        // pid:site:instr[:seed]
  std::string layout_list;   // native,naive,vcfr
  std::string site_list;     // code_byte,translation_entry,...
  uint32_t trials = 4;
  // Serving (serve) controls — docs/ARCHITECTURE.md §12.
  uint32_t tenants = 8;
  uint64_t duration = 200'000;
  std::string arrival = "open";   // open | closed
  std::string dist = "exp";       // fixed | uniform | exp
  uint64_t interarrival = 20'000;
  std::string latency_out;        // per-request CSV destination
  // Telemetry outputs (docs/OBSERVABILITY.md).
  std::string stats_json;
  std::string trace_out;
  std::string sample_out;
  uint64_t sample_interval = 0;
  /// Trace-lane ring capacity in events; 0 keeps the default (1 << 16).
  uint64_t trace_capacity = 0;
  /// Flight-recorder JSONL destination (serve/fleet).
  std::string journal_out;
  /// Journal ring capacity in entries; 0 keeps the default (4096).
  uint64_t journal_capacity = 0;
  /// Flight-recorder JSONL input (trace-report --journal PATH).
  std::string journal_in;
  // SLO monitor (serve).
  std::string slo;          // p50|p99|p999:<cycles>
  uint64_t slo_window = 50'000;
  // Guest profiler outputs (run|sim|fleet|prof).
  std::string profile_out;
  std::string flame_out;
  uint32_t top = 10;
  /// Canonical names of every flag given, for per-subcommand validation.
  std::vector<std::string> seen;
};

/// Parses argv[2..] (argv[1] is the subcommand). Throws std::runtime_error
/// on unknown flags, missing values, malformed numbers (parse_number), or
/// values on boolean flags.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// A numeric flag value: digits only, and it must fit T, so `--seed 7abc`
/// or `--tenants -1` is an error naming the flag, never a truncated or
/// wrapped value.
template <typename T>
[[nodiscard]] T parse_number(const std::string& flag, const std::string& text) {
  if (const auto v = binary::parse_decimal<T>(text)) return *v;
  throw std::runtime_error(flag + " expects an unsigned integer up to " +
                           std::to_string(std::numeric_limits<T>::max()) +
                           ", got '" + text + "'");
}

/// Per-subcommand flag whitelist: a flag the global parser knows but the
/// subcommand does not use is an error, not a silent no-op. Unknown
/// subcommands pass (the caller's usage handling rejects them).
void validate_flags(const std::string& cmd, const Args& args);

/// The full `vcfr` usage text (every subcommand and flag).
[[nodiscard]] const char* usage_text();

}  // namespace vcfr::cli
