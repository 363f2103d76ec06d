// Differential tests for the VX flag semantics: the emulator's ALU flags
// are checked against an independent reference model over random operand
// sweeps, and every condition code is checked against its definition.
#include <gtest/gtest.h>

#include <random>

#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "isa/assembler.hpp"

namespace vcfr::emu {
namespace {

/// Independent reference for flags after `cmp a, b` (sub semantics).
struct RefFlags {
  bool z, n, c, v;
};

RefFlags ref_cmp(uint32_t a, uint32_t b) {
  const uint32_t r = a - b;
  return {
      .z = r == 0,
      .n = (r >> 31) != 0,
      .c = a < b,
      .v = ((int64_t)(int32_t)a - (int64_t)(int32_t)b) !=
           (int64_t)(int32_t)r,
  };
}

bool ref_cond(isa::Cond cond, RefFlags f) {
  switch (cond) {
    case isa::Cond::kEq: return f.z;
    case isa::Cond::kNe: return !f.z;
    case isa::Cond::kLt: return f.n != f.v;
    case isa::Cond::kLe: return f.z || f.n != f.v;
    case isa::Cond::kGt: return !f.z && f.n == f.v;
    case isa::Cond::kGe: return f.n == f.v;
    case isa::Cond::kB: return f.c;
    case isa::Cond::kAe: return !f.c;
  }
  return false;
}

/// Runs `cmp r1, r2; jCC taken` and reports whether the branch was taken.
bool emu_takes(uint32_t a, uint32_t b, isa::Cond cond) {
  const std::string src = "mov r1, " + std::to_string(a) + "\n" +
                          "mov r2, " + std::to_string(b) + "\n" +
                          "cmp r1, r2\n" + "j" +
                          std::string(isa::cond_name(cond)) +
                          " taken\nmov r3, 0\nout r3\nhalt\n" +
                          "taken:\nmov r3, 1\nout r3\nhalt\n";
  const auto r = run_image(isa::assemble(src));
  EXPECT_TRUE(r.halted) << r.error;
  EXPECT_EQ(r.output.size(), 1u);
  return !r.output.empty() && r.output[0] == 1;
}

class CondSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(CondSweep, MatchesReferenceSemantics) {
  std::mt19937 rng(GetParam());
  // Mix random operands with adversarial corner values.
  const uint32_t corners[] = {0u,          1u,          0x7fffffffu,
                              0x80000000u, 0xffffffffu, 0x80000001u};
  for (int i = 0; i < 40; ++i) {
    uint32_t a, b;
    if (i < 12) {
      a = corners[i % 6];
      b = corners[(i / 6) % 6];
    } else {
      a = rng();
      b = rng() % 4 == 0 ? a : rng();
    }
    const RefFlags f = ref_cmp(a, b);
    for (int c = 0; c <= static_cast<int>(isa::Cond::kAe); ++c) {
      const auto cond = static_cast<isa::Cond>(c);
      EXPECT_EQ(emu_takes(a, b, cond), ref_cond(cond, f))
          << "a=" << a << " b=" << b << " cond=" << isa::cond_name(cond);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CondSweep, ::testing::Values(1u, 2u, 3u));

TEST(FlagsTest, AddSetsCarryAndOverflow) {
  // 0xffffffff + 1 = 0 with carry, no signed overflow -> jb taken after
  // recreating the flags via add (add sets C like x86).
  const auto r = run_image(isa::assemble(R"(
    mov r1, 0xffffffff
    add r1, 1
    jeq was_zero
    mov r2, 0
    out r2
    halt
  was_zero:
    mov r2, 1
    out r2
    halt
  )"));
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 1u) << "wraparound result must set Z";
}

TEST(FlagsTest, LogicOpsClearCarry) {
  // After a borrowing cmp (C set), an AND clears C: jae must be taken.
  const auto r = run_image(isa::assemble(R"(
    mov r1, 1
    cmp r1, 2       ; C := 1 (borrow)
    and r1, r1      ; logic op clears C
    jae cleared
    mov r2, 0
    out r2
    halt
  cleared:
    mov r2, 1
    out r2
    halt
  )"));
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 1u);
}

TEST(FlagsTest, TestInstructionDoesNotWriteRegister) {
  const auto r = run_image(isa::assemble(R"(
    mov r1, 12
    mov r2, 10
    test r1, r2
    out r1
    halt
  )"));
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 12u);
}

TEST(FlagsTest, MulAndShiftSetZeroFlag) {
  const auto r = run_image(isa::assemble(R"(
    mov r1, 4
    shr r1, 3       ; 0 -> Z
    jeq z1
    halt
  z1:
    mov r2, 7
    mul r2, 0       ; 0 -> Z
    jeq z2
    halt
  z2:
    mov r3, 1
    out r3
    halt
  )"));
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], 1u);
}

}  // namespace
}  // namespace vcfr::emu

// ---- CLI flag parsing (src/cli/args.hpp) ----
//
// The `vcfr` binary's parser lives in the library precisely so these
// tests exercise the shipped behavior: both `--flag value` and
// `--flag=value` spellings, per-subcommand rejection of foreign flags,
// and usage coverage for every subcommand.

#include <stdexcept>
#include <string>
#include <vector>

#include "cli/args.hpp"

namespace vcfr::cli {
namespace {

Args parse(std::vector<std::string> tail) {
  std::vector<std::string> words = {"vcfr", "serve"};
  words.insert(words.end(), tail.begin(), tail.end());
  std::vector<char*> argv;
  argv.reserve(words.size());
  for (std::string& w : words) argv.push_back(w.data());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(CliFlagsTest, ServeFlagsParseBothSpellings) {
  const Args spaced = parse({"--tenants", "12", "--duration", "5000",
                             "--arrival", "closed", "--interarrival", "250",
                             "--dist", "uniform", "--latency-out", "l.csv"});
  const Args inlined = parse({"--tenants=12", "--duration=5000",
                              "--arrival=closed", "--interarrival=250",
                              "--dist=uniform", "--latency-out=l.csv"});
  for (const Args* a : {&spaced, &inlined}) {
    EXPECT_EQ(a->tenants, 12u);
    EXPECT_EQ(a->duration, 5000u);
    EXPECT_EQ(a->arrival, "closed");
    EXPECT_EQ(a->interarrival, 250u);
    EXPECT_EQ(a->dist, "uniform");
    EXPECT_EQ(a->latency_out, "l.csv");
  }
  EXPECT_EQ(spaced.seen, inlined.seen);
}

TEST(CliFlagsTest, ServeDefaultsMatchDocumented) {
  const Args args = parse({});
  EXPECT_EQ(args.tenants, 8u);
  EXPECT_EQ(args.duration, 200'000u);
  EXPECT_EQ(args.arrival, "open");
  EXPECT_EQ(args.dist, "exp");
  EXPECT_EQ(args.interarrival, 20'000u);
  EXPECT_TRUE(args.latency_out.empty());
}

TEST(CliFlagsTest, ServeAcceptsItsFullFlagSet) {
  const Args args = parse({"--tenants", "8", "--cores", "4", "--duration",
                           "9", "--arrival", "open", "--interarrival", "7",
                           "--dist", "exp", "--workloads", "server",
                           "--scale", "0", "--seed", "1", "--slice", "100",
                           "--drc", "64", "--max-instr", "10",
                           "--restart", "on-fault", "--max-restarts", "2",
                           "--backoff", "4", "--watchdog", "50",
                           "--inject", "0:payload:5", "--json",
                           "--latency-out", "x", "--stats-json", "s"});
  EXPECT_NO_THROW(validate_flags("serve", args));
}

TEST(CliFlagsTest, ServeOnlyFlagsRejectedElsewhere) {
  for (const char* flag :
       {"--tenants=4", "--duration=100", "--arrival=open",
        "--interarrival=50", "--dist=exp", "--latency-out=x"}) {
    const Args args = parse({flag});
    for (const char* cmd : {"fleet", "run", "sim", "faultcamp"}) {
      EXPECT_THROW(validate_flags(cmd, args), std::runtime_error)
          << cmd << " should reject " << flag;
    }
    EXPECT_NO_THROW(validate_flags("serve", args));
  }
}

TEST(CliFlagsTest, ServeRejectsForeignFlags) {
  // --rerand used to be fleet-only but serve now re-randomizes under
  // load, so it no longer belongs in this rejection list.
  for (const char* flag :
       {"--procs=4", "--naive", "--profile-out=p.json", "--trials=3"}) {
    const Args args = parse({flag});
    EXPECT_THROW(validate_flags("serve", args), std::runtime_error)
        << "serve should reject " << flag;
  }
}

TEST(CliFlagsTest, RerandFlagsParseBothSpellings) {
  const Args spaced =
      parse({"--rerand", "4", "--rerand-mode", "incremental",
             "--rerand-on-trap", "--rerand-scope", "fleet",
             "--rerand-max-defer", "3"});
  const Args inlined =
      parse({"--rerand=4", "--rerand-mode=incremental", "--rerand-on-trap",
             "--rerand-scope=fleet", "--rerand-max-defer=3"});
  for (const Args* a : {&spaced, &inlined}) {
    EXPECT_EQ(a->rerand, 4u);
    EXPECT_EQ(a->rerand_mode, "incremental");
    EXPECT_TRUE(a->rerand_on_trap);
    EXPECT_EQ(a->rerand_scope, "fleet");
    EXPECT_EQ(a->rerand_max_defer, 3u);
  }
  EXPECT_EQ(spaced.seen, inlined.seen);
}

TEST(CliFlagsTest, RerandFlagDefaultsMatchLegacy) {
  const Args args = parse({});
  EXPECT_EQ(args.rerand, 0u);
  EXPECT_TRUE(args.rerand_mode.empty());  // empty = full rebuild
  EXPECT_FALSE(args.rerand_on_trap);
  EXPECT_TRUE(args.rerand_scope.empty());  // empty = proc
  EXPECT_EQ(args.rerand_max_defer, 0u);
}

TEST(CliFlagsTest, RerandModeAndScopeRejectUnknownValues) {
  EXPECT_THROW(parse({"--rerand-mode=eager"}), std::runtime_error);
  EXPECT_THROW(parse({"--rerand-scope=core"}), std::runtime_error);
  EXPECT_THROW(parse({"--rerand-on-trap=yes"}), std::runtime_error);
}

TEST(CliFlagsTest, RerandFlagsAcceptedOnFleetAndServeOnly) {
  for (const char* flag :
       {"--rerand=2", "--rerand-mode=incremental", "--rerand-on-trap",
        "--rerand-scope=fleet", "--rerand-max-defer=3"}) {
    const Args args = parse({flag});
    EXPECT_NO_THROW(validate_flags("fleet", args)) << flag;
    EXPECT_NO_THROW(validate_flags("serve", args)) << flag;
    for (const char* cmd : {"run", "sim", "faultcamp", "workload"}) {
      EXPECT_THROW(validate_flags(cmd, args), std::runtime_error)
          << cmd << " should reject " << flag;
    }
  }
}

TEST(CliFlagsTest, UsageCoversRerand) {
  const std::string usage = usage_text();
  for (const char* needle : {"--rerand-mode full|incremental",
                             "--rerand-on-trap", "--rerand-scope proc|fleet",
                             "--rerand-max-defer"}) {
    EXPECT_NE(usage.find(needle), std::string::npos) << needle;
  }
}

TEST(CliFlagsTest, ObservabilityFlagsParse) {
  const Args args =
      parse({"--trace-capacity", "4096", "--journal-out", "j.jsonl",
             "--slo", "p99:120000", "--slo-window", "25000"});
  EXPECT_EQ(args.trace_capacity, 4096u);
  EXPECT_EQ(args.journal_out, "j.jsonl");
  EXPECT_EQ(args.slo, "p99:120000");
  EXPECT_EQ(args.slo_window, 25'000u);
  EXPECT_NO_THROW(validate_flags("serve", args));

  const Args inlined = parse({"--trace-capacity=4096", "--journal-out=j",
                              "--slo=p50:9", "--slo-window=10"});
  EXPECT_EQ(inlined.trace_capacity, 4096u);
  EXPECT_EQ(inlined.slo, "p50:9");
}

TEST(CliFlagsTest, ObservabilityFlagDefaults) {
  const Args args = parse({});
  EXPECT_EQ(args.trace_capacity, 0u);  // 0 = keep the built-in default
  EXPECT_TRUE(args.journal_out.empty());
  EXPECT_TRUE(args.slo.empty());
  EXPECT_EQ(args.slo_window, 50'000u);
}

TEST(CliFlagsTest, SloFlagsAreServeOnly) {
  for (const char* flag : {"--slo=p99:100", "--slo-window=10"}) {
    const Args args = parse({flag});
    for (const char* cmd : {"fleet", "run", "sim", "faultcamp", "workload"}) {
      EXPECT_THROW(validate_flags(cmd, args), std::runtime_error)
          << cmd << " should reject " << flag;
    }
    EXPECT_NO_THROW(validate_flags("serve", args));
  }
}

TEST(CliFlagsTest, TraceCapacityFollowsTraceOut) {
  // Everywhere --trace-out works, --trace-capacity must too.
  const Args args = parse({"--trace-capacity=1024"});
  for (const char* cmd : {"run", "sim", "workload", "fleet", "serve"}) {
    EXPECT_NO_THROW(validate_flags(cmd, args)) << cmd;
  }
  EXPECT_THROW(validate_flags("faultcamp", args), std::runtime_error);
}

TEST(CliFlagsTest, TraceReportWhitelist) {
  const Args ok = parse({"--journal", "j.jsonl", "--top", "5"});
  EXPECT_EQ(ok.journal_in, "j.jsonl");
  EXPECT_EQ(ok.top, 5u);
  EXPECT_NO_THROW(validate_flags("trace-report", ok));
  EXPECT_THROW(validate_flags("trace-report", parse({"--tenants=4"})),
               std::runtime_error);
  EXPECT_THROW(validate_flags("serve", parse({"--journal=j.jsonl"})),
               std::runtime_error);
  // Trace checks belong to tools/validate_trace.py alone.
  EXPECT_THROW(parse({"--trace=t.json"}), std::runtime_error);
}

TEST(CliFlagsTest, UsageCoversObservability) {
  const std::string usage = usage_text();
  for (const char* needle :
       {"trace-report", "--slo", "--slo-window", "--journal-out",
        "--trace-capacity"}) {
    EXPECT_NE(usage.find(needle), std::string::npos) << needle;
  }
}

// Every numeric flag goes through one strict parse: digits only, within
// the field's width, and the error names the flag.
TEST(CliFlagsTest, NumericFlagsRejectBadSpellings) {
  const struct {
    const char* flag;
    const char* value;
  } kBad[] = {
      {"--seed", "7abc"},     {"--drc", "abc"},
      {"--tenants", "-1"},    {"--tenants", "4294967296"},
      {"--seed", "+7"},       {"--seed", ""},
      {"--seed", " 7"},       {"--seed", "18446744073709551616"},
      {"--scale", "-1"},      {"--scale", "2147483648"},
      {"--slice", "0x10"},    {"--top", "5.0"},
  };
  for (const auto& [flag, value] : kBad) {
    try {
      (void)parse({flag, value});
      ADD_FAILURE() << flag << " accepted '" << value << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(flag, 0), 0u) << e.what();
    }
  }
  EXPECT_EQ(parse({"--tenants", "4294967295"}).tenants, 4294967295u);
  EXPECT_EQ(parse({"--scale=2147483647"}).scale, 2147483647);
}

TEST(CliFlagsTest, UnknownFlagAndMissingValueThrow) {
  EXPECT_THROW(parse({"--no-such-flag"}), std::runtime_error);
  EXPECT_THROW(parse({"--tenants"}), std::runtime_error);
  EXPECT_THROW(parse({"--json=yes"}), std::runtime_error);
}

TEST(CliFlagsTest, UsageCoversServe) {
  const std::string usage = usage_text();
  EXPECT_NE(usage.find("serve [--tenants N]"), std::string::npos);
  for (const char* flag : {"--tenants", "--duration", "--arrival",
                           "--interarrival", "--dist", "--latency-out"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace vcfr::cli
