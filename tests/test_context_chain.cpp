// Tests for the process-context module (DRC flushes on switch and
// re-randomization) and the dynamic gadget-chain executor.
#include <gtest/gtest.h>

#include "core/context.hpp"
#include "gadget/payload.hpp"
#include "gadget/scanner.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"

namespace vcfr::core {
namespace {

TEST(DrcFlushTest, FlushInvalidatesEverything) {
  Drc drc({.entries = 64, .assoc = 1, .hit_latency = 1});
  for (uint32_t i = 0; i < 32; ++i) {
    drc.insert(0x40000000 + i * 64, true, {0x1000 + i, true});
  }
  const uint32_t before = drc.valid_entries();
  EXPECT_GT(before, 0u);
  EXPECT_LE(before, 32u);
  const uint32_t flushed = drc.flush();
  EXPECT_EQ(flushed, before);
  EXPECT_EQ(drc.valid_entries(), 0u);
  EXPECT_FALSE(drc.contains(0x40000000, true));
  EXPECT_EQ(drc.flush(), 0u) << "second flush finds nothing";
}

TEST(ContextTest, SwitchBetweenProcessesFlushes) {
  Drc drc({.entries = 64, .assoc = 1, .hit_latency = 1});
  ContextManager mgr(drc);
  binary::TranslationTables ta, tb;

  ProcessContext a{.pid = 1, .name = "a", .tables = &ta, .epoch = 0};
  ProcessContext b{.pid = 2, .name = "b", .tables = &tb, .epoch = 0};
  mgr.switch_to(a);
  drc.insert(0x40000100, true, {0x1100, true});
  ASSERT_EQ(drc.valid_entries(), 1u);

  const uint32_t lost = mgr.switch_to(b);
  EXPECT_EQ(lost, 1u);
  EXPECT_EQ(drc.valid_entries(), 0u)
      << "process A's translations must not leak into process B";
  EXPECT_EQ(mgr.current().pid, 2u);
  EXPECT_EQ(mgr.stats().switches, 2u);
}

TEST(ContextTest, ResumingSameContextKeepsEntries) {
  Drc drc({.entries = 64, .assoc = 1, .hit_latency = 1});
  ContextManager mgr(drc);
  binary::TranslationTables t;
  ProcessContext p{.pid = 7, .name = "p", .tables = &t, .epoch = 3};
  mgr.switch_to(p);
  drc.insert(0x40000200, true, {0x1200, true});
  EXPECT_EQ(mgr.switch_to(p), 0u) << "same pid+epoch: warm DRC survives";
  EXPECT_EQ(drc.valid_entries(), 1u);
}

TEST(ContextTest, RerandomizationBumpsEpochAndFlushes) {
  Drc drc({.entries = 64, .assoc = 1, .hit_latency = 1});
  ContextManager mgr(drc);
  binary::TranslationTables t0;
  ProcessContext p{.pid = 1, .name = "svc", .tables = &t0, .epoch = 0};
  mgr.switch_to(p);
  drc.insert(0x40000300, true, {0x1300, true});

  // The firing patched t0 in place: the context keeps pointing at it.
  const uint32_t lost = mgr.rerandomize_current();
  EXPECT_EQ(lost, 1u);
  EXPECT_EQ(mgr.current().epoch, 1u);
  EXPECT_EQ(mgr.current().tables, &t0);
  EXPECT_EQ(mgr.stats().rerandomizations, 1u);

  // A later switch back with the *old* epoch is a different context.
  ProcessContext stale{.pid = 1, .name = "svc", .tables = &t0, .epoch = 0};
  drc.insert(0x40000400, true, {0x1400, true});
  EXPECT_EQ(mgr.switch_to(stale), 1u);
}

}  // namespace
}  // namespace vcfr::core

namespace vcfr::gadget {
namespace {

// A binary with the classic gadget pair: pop r0; ret and sys 1; ret.
constexpr const char* kVictim = R"(
  .entry main
  .func main
  main:
    mov r0, 0
    halt
  .func restore
  restore:
    pop r0
    ret
  .func write_stub
  write_stub:
    sys 1
    ret
)";

std::vector<uint32_t> marker_chain(const binary::Image& image) {
  const auto pool = scan(image);
  uint32_t pop_addr = 0, sys_addr = 0;
  for (const auto& g : pool.gadgets) {
    if (g.kind == GadgetKind::kPopReg && g.instrs.front().rd == 0 &&
        pop_addr == 0) {
      pop_addr = g.addr;
    }
    if (g.kind == GadgetKind::kSys && sys_addr == 0) sys_addr = g.addr;
  }
  EXPECT_NE(pop_addr, 0u);
  EXPECT_NE(sys_addr, 0u);
  return {pop_addr, 0xfeedu, sys_addr};
}

TEST(ChainExecutionTest, ChainRunsOnOriginalImage) {
  const auto image = isa::assemble(kVictim);
  const auto chain = marker_chain(image);
  const auto r = execute_chain(image, chain);
  ASSERT_FALSE(r.output.empty()) << r.fault;
  EXPECT_EQ(r.output[0], 0xfeedu) << "the chain must exfiltrate the marker";
}

TEST(ChainExecutionTest, ChainBlockedOnVcfrImage) {
  const auto image = isa::assemble(kVictim);
  const auto chain = marker_chain(image);
  rewriter::RandomizeOptions opts;
  opts.seed = 1234;
  const auto rr = rewriter::randomize(image, opts);
  const auto r = execute_chain(rr.vcfr, chain);
  EXPECT_TRUE(r.faulted);
  EXPECT_TRUE(r.output.empty()) << "no exfiltration through VCFR";
  EXPECT_NE(r.fault.find("randomized-tag"), std::string::npos) << r.fault;
}

TEST(ChainExecutionTest, ChainBlockedOnNaiveImage) {
  const auto image = isa::assemble(kVictim);
  const auto chain = marker_chain(image);
  const auto rr = rewriter::randomize(image, {});
  const auto r = execute_chain(rewriter::naive_ilr(rr.vcfr), chain);
  EXPECT_TRUE(r.faulted);
  EXPECT_TRUE(r.output.empty());
}

TEST(ChainExecutionTest, EmptyChainIsRejected) {
  const auto image = isa::assemble(kVictim);
  const auto r = execute_chain(image, {});
  EXPECT_TRUE(r.faulted);
}

TEST(ChainExecutionTest, SurvivingFailoverGadgetsStillRunButCannotExfiltrate) {
  // Under VCFR the failover set remains executable; a chain built purely
  // from surviving gadgets runs — the security argument is that the
  // surviving pool is too poor to assemble a *payload* (fig11). Verify
  // both halves on the xalan-style computed-cluster pattern.
  const auto image = isa::assemble(R"(
    .entry main
    .func main
    main:
      mov r1, @cluster
      add r1, 0
      jmpr r1
      halt
    .func cluster
    cluster:
      add r11, 5
      ret
  )");
  rewriter::RandomizeOptions opts;
  const auto rr = rewriter::randomize(image, opts);
  ASSERT_FALSE(rr.vcfr.tables.unrandomized.empty());

  const auto scan_result = scan(image);
  const auto survival =
      survival_after_randomization(scan_result, rr.vcfr.tables);
  const auto payloads = compile_payloads(survival.surviving);
  EXPECT_FALSE(any_assembled(payloads))
      << "failover gadgets alone must not form a payload";
}

}  // namespace
}  // namespace vcfr::gadget
