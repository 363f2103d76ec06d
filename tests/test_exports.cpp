// The serving exports' readers: the latency CSV (serve::read_latency_csv)
// and the flight-recorder JSONL (telemetry::read_jsonl) accept exactly
// what their writers emit. Hand-made mutants pin the error kind and its
// file:line prefix; seeded mutation fuzzers pin that nothing but a
// FormatError ever escapes.
#include <gtest/gtest.h>

#include <string>

#include "binary/serialize.hpp"
#include "mutate.hpp"
#include "serve/server.hpp"
#include "telemetry/journal.hpp"
#include "telemetry/telemetry.hpp"

namespace vcfr {
namespace {

using binary::FormatError;
using binary::FormatFault;

constexpr const char* kHeader =
    "tenant,request,arrival,dispatch,completion,latency,wait,queue,run,"
    "restart_loss,commit_stall,instructions,status\n";
constexpr const char* kRow = "0,0,10,15,40,30,5,6,20,0,4,100,ok\n";
constexpr const char* kSpawn =
    "{\"cycle\": 0, \"kind\": \"spawn\", \"pid\": 0, \"arg\": 0, "
    "\"detail\": \"leaky\"}\n";

template <typename Read>
void expect_rejected(Read read, const std::string& text, FormatFault fault,
                     const std::string& where) {
  try {
    (void)read(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const FormatError& e) {
    EXPECT_EQ(e.fault(), fault) << e.what();
    EXPECT_EQ(std::string(e.what()).rfind(where, 0), 0u) << e.what();
  }
}

serve::LatencyCsv read_csv(const std::string& text) {
  return serve::read_latency_csv(text, "lat.csv");
}

std::vector<telemetry::JournalEntry> read_journal(const std::string& text) {
  return telemetry::read_jsonl(text, "j.jsonl");
}

TEST(ExportReaderTest, LatencyCsvMutantsAreFormatErrors) {
  const std::string head = kHeader;
  ASSERT_EQ(read_csv(head + kRow).rows.size(), 1u);
  EXPECT_TRUE(read_csv(head).rows.empty());
  const std::string tail = ",0,10,15,40,30,5,6,20,0,4,100,ok\n";
  for (const char* tenant : {"x", "0abc", "-1", "+1", "", "4294967296",
                             "123456789012345678901234"}) {
    expect_rejected(read_csv, head + tenant + tail, FormatFault::kImplausible,
                    "lat.csv:2: ");
  }
  struct Case {
    std::string text;
    FormatFault fault;
    const char* where;
  };
  const Case cases[] = {
      {"", FormatFault::kTruncated, "lat.csv:1: "},
      {"tenant,request,arrival,dispatch,completion,latency,wait,queue,run,"
       "restart_loss,commit_stall,instructions,state\n" + std::string(kRow),
       FormatFault::kImplausible, "lat.csv:1: "},
      {head.substr(0, head.size() - 1) + ",leaks,leak_depth\n" + kRow,
       FormatFault::kTruncated, "lat.csv:2: "},
      {head + "0,0,10,15,40,30,5,6,20,0,4,100,ok,7\n",
       FormatFault::kImplausible, "lat.csv:2: "},
      {head + "0,0,10,15,40,31,5,6,20,0,4,100,ok\n",
       FormatFault::kImplausible, "lat.csv:2: "},
      {head + "0,0,10,15,40,30,5,6,20,0,4,100,FAIL\n",
       FormatFault::kImplausible, "lat.csv:2: "},
      {head + kRow + "\n", FormatFault::kTruncated, "lat.csv:3: "},
      {head + "0,0,10,15,40,30,5,6,20,0,4,100,ok", FormatFault::kTruncated,
       "lat.csv:2: "},
  };
  for (const Case& c : cases) {
    expect_rejected(read_csv, c.text, c.fault, c.where);
  }
}

TEST(ExportReaderTest, JournalMutantsAreFormatErrors) {
  const std::string leak =
      "{\"cycle\": 5, \"kind\": \"leak\", \"pid\": 2, \"req\": 0, "
      "\"arg\": 1, \"detail\": \"origin=ret_push sink=out\"}\n";
  ASSERT_EQ(read_journal(kSpawn + leak).size(), 2u);
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string line = leak;
    line.replace(line.find(from), from.size(), to);
    return kSpawn + line;
  };
  for (const std::string& text : {
           with("\"arg\": 1, ", ""),
           with("\"arg\"", "\"argx\""),
           with("\"leak\"", "\"leek\""),
           with("\"pid\": 2", "\"pid\": -1"),
           with("\"pid\": 2", "\"pid\": 4294967296"),
           with("\"cycle\": 5", "\"cycle\": 123456789012345678901234"),
           with("\"req\": 0", "\"req\": 9223372036854775808"),
           with("sink=out", "sink=\\x"),
           with("sink=out", "sink=\\u001F"),
           with("sink=out", "sink=\\u0041"),
           with("sink=out", "sink=\\u000a"),
           with("sink=out", "sink=\x01"),
           with("\"origin=ret_push sink=out\"", "\"\""),
           with("}", "} "),
       }) {
    expect_rejected(read_journal, text, FormatFault::kImplausible,
                    "j.jsonl:2: ");
  }
  expect_rejected(read_journal, kSpawn + leak.substr(0, leak.size() - 1),
                  FormatFault::kTruncated, "j.jsonl:2: ");
}

/// Feeds `reps` seeded mutations of `bytes` to `read`; only a FormatError
/// may escape. Returns how many were rejected.
template <typename Read>
int fuzz(Read read, const std::string& bytes, SplitMix64& rng, int reps) {
  int rejected = 0;
  for (int round = 0; round < reps; ++round) {
    try {
      (void)read(mutate(bytes, bytes.size(), rng));
    } catch (const FormatError& e) {
      EXPECT_FALSE(binary::format_fault_name(e.fault()).empty());
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << round
                    << ": non-FormatError escaped: " << e.what();
    }
  }
  return rejected;
}

serve::ServeConfig leaky_config() {
  serve::ServeConfig sc;
  sc.tenants = 4;
  sc.cores = 2;
  sc.duration = 60'000;
  sc.mean_interarrival = 5'000;
  sc.workloads = {"leaky", "server"};
  sc.taint = true;
  sc.rerandomize.on_leak = true;
  fault::FaultPlan plan;
  plan.site = fault::FaultSite::kCodeByte;
  plan.at_instruction = 50;
  plan.seed = 3;
  sc.injections.emplace_back(1u, plan);
  sc.restart.mode = os::RestartPolicy::Mode::kOnFault;
  return sc;
}

TEST(ExportReaderTest, LatencyCsvMutationFuzzOnlyEverThrowsFormatError) {
  serve::ServeConfig plain = leaky_config();
  plain.taint = false;
  SplitMix64 rng(0xc5f);
  for (const serve::ServeConfig& sc : {plain, leaky_config()}) {
    const std::string csv = serve::run_serve(sc).latency_csv();
    ASSERT_EQ(read_csv(csv).taint, sc.taint);
    EXPECT_GT(fuzz(read_csv, csv, rng, 300), 0);
  }
}

TEST(ExportReaderTest, JournalMutationFuzzOnlyEverThrowsFormatError) {
  telemetry::TelemetryConfig tc;
  tc.journal = true;
  telemetry::Telemetry tel(tc);
  (void)serve::run_serve(leaky_config(), &tel);
  const std::string jsonl = tel.journal()->to_jsonl();
  const auto counts = tel.journal()->counts();
  ASSERT_GT(counts.count("leak"), 0u);
  ASSERT_GT(counts.count("restart"), 0u);
  SplitMix64 rng(0x15a1);
  EXPECT_GT(fuzz(read_journal, jsonl, rng, 600), 0);
}

}  // namespace
}  // namespace vcfr
