// Hot-path safety net: the decoded-instruction cache, the flat translation
// tables, the Memory fast paths, and the kernel's persistent worker pool
// are host-side optimizations — every architectural result must be
// bit-identical with them exercised or bypassed. These tests pin that.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "binary/flat_set.hpp"
#include "emu/emulator.hpp"
#include "emu/rerandomize.hpp"
#include "fault/injector.hpp"
#include "isa/assembler.hpp"
#include "os/kernel.hpp"
#include "os/worker_pool.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr {
namespace {

void expect_identical(const emu::RunResult& on, const emu::RunResult& off,
                      const std::string& what) {
  EXPECT_EQ(on.halted, off.halted) << what;
  EXPECT_EQ(on.error, off.error) << what;
  EXPECT_EQ(on.output, off.output) << what;
  EXPECT_EQ(on.mem_checksum, off.mem_checksum) << what;
  EXPECT_EQ(on.stats.instructions, off.stats.instructions) << what;
  EXPECT_EQ(on.stats.derand_events, off.stats.derand_events) << what;
  EXPECT_EQ(on.stats.rand_events, off.stats.rand_events) << what;
  EXPECT_EQ(on.final_state.pc, off.final_state.pc) << what;
  EXPECT_EQ(on.final_state.regs, off.final_state.regs) << what;
  EXPECT_EQ(on.final_state.zf, off.final_state.zf) << what;
  EXPECT_EQ(on.final_state.nf, off.final_state.nf) << what;
  EXPECT_EQ(on.final_state.cf, off.final_state.cf) << what;
  EXPECT_EQ(on.final_state.vf, off.final_state.vf) << what;
}

// Fills every StepInfo field with a marker: `on` and `off` records get
// different markers, so a field step() leaves unwritten shows up as a
// difference.
emu::StepInfo poisoned(bool on) {
  const uint32_t v = on ? 0xa5a5a5a5u : 0x5a5a5a5au;
  emu::StepInfo si;
  si.rpc = si.upc = si.next_rpc = si.next_upc = v;
  si.instr.op = on ? isa::Op::kHalt : isa::Op::kRet;
  si.instr.cond = on ? isa::Cond::kAe : isa::Cond::kB;
  si.instr.rd = si.instr.rs = si.instr.length = static_cast<uint8_t>(v);
  si.instr.imm = v;
  si.instr.disp = static_cast<int32_t>(v);
  si.mem_addr = si.call_push_value = si.derand_key = si.rand_key = v;
  si.is_taken_transfer = si.has_mem = si.mem_is_store = on;
  si.needs_derand = si.needs_rand = si.bitmap_load = on;
  return si;
}

/// Name of the first StepInfo field that differs, or "" when all agree.
std::string step_diff(const emu::StepInfo& a, const emu::StepInfo& b) {
  const std::pair<const char*, bool> fields[] = {
      {"rpc", a.rpc == b.rpc},
      {"upc", a.upc == b.upc},
      {"instr.op", a.instr.op == b.instr.op},
      {"instr.cond", a.instr.cond == b.instr.cond},
      {"instr.rd", a.instr.rd == b.instr.rd},
      {"instr.rs", a.instr.rs == b.instr.rs},
      {"instr.imm", a.instr.imm == b.instr.imm},
      {"instr.disp", a.instr.disp == b.instr.disp},
      {"instr.length", a.instr.length == b.instr.length},
      {"next_rpc", a.next_rpc == b.next_rpc},
      {"next_upc", a.next_upc == b.next_upc},
      {"is_taken_transfer", a.is_taken_transfer == b.is_taken_transfer},
      {"has_mem", a.has_mem == b.has_mem},
      {"mem_addr", a.mem_addr == b.mem_addr},
      {"mem_is_store", a.mem_is_store == b.mem_is_store},
      {"call_push_value", a.call_push_value == b.call_push_value},
      {"needs_derand", a.needs_derand == b.needs_derand},
      {"derand_key", a.derand_key == b.derand_key},
      {"needs_rand", a.needs_rand == b.needs_rand},
      {"rand_key", a.rand_key == b.rand_key},
      {"bitmap_load", a.bitmap_load == b.bitmap_load},
  };
  for (const auto& [name, same] : fields) {
    if (!same) return name;
  }
  return "";
}

/// Steps a cached and an uncached emulator in lockstep for up to `steps`
/// instructions, requiring identical StepInfo records.
void expect_same_stream(emu::Emulator& on, emu::Emulator& off,
                        uint64_t steps, const std::string& what,
                        std::set<uint32_t>* executed = nullptr) {
  for (uint64_t done = 0; done < steps; ++done) {
    emu::StepInfo a = poisoned(true);
    emu::StepInfo b = poisoned(false);
    const bool ran_on = on.step(&a);
    const bool ran_off = off.step(&b);
    EXPECT_EQ(ran_on, ran_off) << what << " step " << done;
    if (!ran_on || !ran_off) break;
    if (executed != nullptr) executed->insert(b.rpc);
    const std::string field = step_diff(a, b);
    EXPECT_EQ(field, "") << what << " step " << done << " rpc 0x"
                         << std::hex << a.rpc;
    if (!field.empty()) break;
  }
}

// Every suite workload, all three layouts: cached and uncached emulators
// stepped in lockstep must emit the same StepInfo record at every step —
// the timing model consumes each one, and a hit takes next_upc from the
// cached successor — and end with the same outputs, final register file,
// and memory image.
TEST(DecodeCacheTest, DifferentialAcrossSuiteAndLayouts) {
  for (const std::string& name : workloads::spec_names()) {
    const binary::Image original = workloads::make(name, 0);
    rewriter::RandomizeOptions opts;
    opts.seed = 0x9000 + original.code.size();
    const rewriter::RandomizeResult rr = rewriter::randomize(original, opts);
    const binary::Image naive = rewriter::naive_ilr(rr.vcfr);

    for (const binary::Image* image : {&original, &naive, &rr.vcfr}) {
      binary::Memory mem_on, mem_off;
      binary::load(*image, mem_on);
      binary::load(*image, mem_off);
      emu::Emulator on(*image, mem_on);
      emu::Emulator off(*image, mem_off);
      off.set_decode_cache(false);
      const std::string what =
          name + " layout " + std::to_string(static_cast<int>(image->layout));
      expect_same_stream(on, off, 200'000'000, what);
      const emu::RunResult r_on = on.run();
      expect_identical(r_on, off.run(), what);
      ASSERT_TRUE(r_on.halted) << what << ": " << r_on.error;
      // A real run hits the cache almost always (loops), and hits + misses
      // must account for every instruction executed.
      const emu::DecodeCacheStats& stats = on.decode_cache_stats();
      EXPECT_EQ(stats.hits + stats.misses, r_on.stats.instructions) << what;
      EXPECT_GT(stats.hits, stats.misses) << what;
    }
  }
}

// One VCFR process of a prepared program, re-randomized in place the way
// os::Process does it (registers pinned).
struct RerandSession {
  RerandSession(const rewriter::Program& program, uint64_t seed,
                bool cache_on,
                uint32_t cache_entries =
                    emu::Emulator::kDefaultDecodeCacheEntries)
      : placed(rewriter::place(program, {.seed = seed})) {
    binary::load(placed, mem);
    emu = std::make_unique<emu::Emulator>(placed, mem, cache_entries);
    emu->set_decode_cache(cache_on);
  }

  bool fire(const rewriter::Program& program, uint64_t seed,
            bool full = false) {
    std::vector<uint32_t> pinned;
    for (const uint32_t reg : emu->state().regs) {
      if (placed.tables.is_randomized_addr(reg)) pinned.push_back(reg);
    }
    std::sort(pinned.begin(), pinned.end());
    pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
    emu::RerandOptions opt;
    opt.placement.seed = seed;
    opt.pinned = std::move(pinned);
    const bool ok =
        full ? emu::rerandomize_full(program, placed, mem, *emu, opt)
             : emu::rerandomize_incremental(program, placed, mem, *emu, opt);
    if (!ok) return false;
    EXPECT_EQ(rewriter::check_placement(program, placed, opt.placement), "");
    EXPECT_EQ(rewriter::check_referring_sites(program, placed, mem), "");
    return true;
  }

  binary::Image placed;
  binary::Memory mem;
  std::unique_ptr<emu::Emulator> emu;
};

// Cached and uncached emulators stay in StepInfo lockstep across
// incremental re-randomizations: every firing bumps the code generation,
// so no entry filled under the old placement (its upc, bytes or cached
// seq_upc) may be served after it.
TEST(DecodeCacheTest, StepInfoStreamAcrossIncrementalRerand) {
  for (const char* name : {"gcc", "hmmer", "xalan", "namd"}) {
    const rewriter::Program program =
        rewriter::prepare(workloads::make(name, 0));
    RerandSession on(program, 21, true);
    RerandSession off(program, 21, false);
    int fired = 0;
    for (int epoch = 0; epoch < 12 && !on.emu->halted(); ++epoch) {
      const std::string what =
          std::string(name) + " epoch " + std::to_string(epoch);
      expect_same_stream(*on.emu, *off.emu, 1000, what);
      if (HasFailure() || on.emu->halted()) break;
      const bool ok_on = on.fire(program, 0x5100 + epoch);
      const bool ok_off = off.fire(program, 0x5100 + epoch);
      ASSERT_EQ(ok_on, ok_off) << what;
      fired += ok_on ? 1 : 0;
    }
    expect_same_stream(*on.emu, *off.emu, 200'000'000, std::string(name));
    const emu::RunResult r_on = on.emu->run();
    expect_identical(r_on, off.emu->run(), name);
    EXPECT_TRUE(r_on.halted) << name << ": " << r_on.error;
    EXPECT_GT(fired, 0) << name;
    EXPECT_GT(on.emu->decode_cache_stats().invalidations, 0u) << name;
  }
}

// Tenant-sized caches (os::Process sizes each to its program): libquantum
// at the 256-line floor and bzip2 at 512 lines stay in StepInfo lockstep
// with an uncached emulator across incremental and full firings.
TEST(DecodeCacheTest, TenantSizedCachesAcrossBothFirings) {
  for (const auto& [name, entries] :
       {std::pair<const char*, uint32_t>{"libquantum", 256},
        std::pair<const char*, uint32_t>{"bzip2", 512}}) {
    const rewriter::Program program =
        rewriter::prepare(workloads::make(name, 0));
    EXPECT_EQ(std::bit_ceil(std::max<size_t>(program.cfg.instrs.size(), 256)),
              entries)
        << name;
    RerandSession on(program, 31, true, entries);
    RerandSession off(program, 31, false);
    ASSERT_EQ(on.emu->decode_cache_entries(), entries);
    int fired[2] = {0, 0};  // incremental, full
    for (int epoch = 0; epoch < 12 && !on.emu->halted(); ++epoch) {
      const std::string what =
          std::string(name) + " epoch " + std::to_string(epoch);
      expect_same_stream(*on.emu, *off.emu, 1000, what);
      if (HasFailure() || on.emu->halted()) break;
      const bool full = epoch % 2 == 1;
      const bool ok_on = on.fire(program, 0x7100 + epoch, full);
      ASSERT_EQ(ok_on, off.fire(program, 0x7100 + epoch, full)) << what;
      fired[full ? 1 : 0] += ok_on ? 1 : 0;
    }
    expect_same_stream(*on.emu, *off.emu, 200'000'000, name);
    const emu::RunResult r_on = on.emu->run();
    expect_identical(r_on, off.emu->run(), name);
    EXPECT_TRUE(r_on.halted) << name << ": " << r_on.error;
    EXPECT_GT(fired[0], 0) << name;
    EXPECT_GT(fired[1], 0) << name;
    const emu::DecodeCacheStats& stats = on.emu->decode_cache_stats();
    EXPECT_GT(stats.invalidations, 0u) << name;
    EXPECT_GT(stats.hits, stats.misses) << name;
  }
}

constexpr const char* kFactorial = R"(
  .name victim
  .entry main
  .func main
  main:
    mov r1, 8
    call fact
    out r2
    mov r1, 6
    call fact
    out r2
    halt
  .func fact
  fact:
    cmp r1, 1
    jgt rec
    mov r2, 1
    ret
  rec:
    push r1
    sub r1, 1
    call fact
    pop r1
    mul r2, r1
    ret
)";

// Full re-randomization mid-recursion: the firing rewrites every code
// byte and table entry under the *running* emulator, whose cached decodes
// must all go stale; cached and uncached sessions must agree step by step.
TEST(DecodeCacheTest, LiveRerandomizeDifferential) {
  const auto golden = emu::run_image(isa::assemble(kFactorial));
  ASSERT_TRUE(golden.halted);
  const rewriter::Program program =
      rewriter::prepare(isa::assemble(kFactorial));
  RerandSession on(program, 11, true);
  RerandSession off(program, 11, false);

  // Three epochs, swapping every 15 instructions.
  for (int epoch = 0; epoch < 3; ++epoch) {
    const std::string what = "epoch " + std::to_string(epoch);
    expect_same_stream(*on.emu, *off.emu, 15, what);
    ASSERT_FALSE(HasFailure() || on.emu->halted()) << what;
    ASSERT_TRUE(on.fire(program, 0xabc0 + epoch, /*full=*/true)) << what;
    ASSERT_TRUE(off.fire(program, 0xabc0 + epoch, /*full=*/true)) << what;
  }
  expect_same_stream(*on.emu, *off.emu, 100000, "after the last epoch");
  emu::RunLimits limits;
  limits.max_instructions = 100000;
  const auto r = on.emu->run(limits);
  EXPECT_TRUE(r.halted) << r.error;
  EXPECT_EQ(r.output, golden.output);
  expect_identical(r, off.emu->run(limits), "full re-randomization");
}

// A translation-entry injection flips a derand value in the image's maps,
// which changes what a cached decode at the flipped address means. The
// injection bumps the code generation, so cached and uncached emulators
// stay in StepInfo lockstep across it. Some seeds must flip an address
// executed both before the injection (so cached) and after it.
TEST(InjectorTest, TranslationEntryFlipRetiresCachedDecodes) {
  const rewriter::Program program =
      rewriter::prepare(isa::assemble(kFactorial));
  int hot = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const std::string what = "seed " + std::to_string(seed);
    RerandSession on(program, 41, true);
    RerandSession off(program, 41, false);
    std::set<uint32_t> before, after;
    expect_same_stream(*on.emu, *off.emu, 15, what, &before);
    const fault::FaultPlan plan{.at_instruction = 15,
                                .site = fault::FaultSite::kTranslationEntry,
                                .seed = seed};
    const uint64_t version = on.mem.code_version();
    fault::FaultInjector inj_on(plan);
    fault::FaultInjector inj_off(plan);
    ASSERT_TRUE(inj_on.apply(on.placed, on.mem, *on.emu)) << what;
    ASSERT_TRUE(inj_off.apply(off.placed, off.mem, *off.emu)) << what;
    ASSERT_EQ(inj_on.record().address, inj_off.record().address) << what;
    EXPECT_GT(on.mem.code_version(), version) << what;
    expect_same_stream(*on.emu, *off.emu, 100'000, what, &after);
    const uint32_t key = inj_on.record().address;
    hot += before.contains(key) && after.contains(key) ? 1 : 0;
  }
  EXPECT_GT(hot, 0);
}

// Self-modifying code: a write landing in the watched code range must
// invalidate the cached decode, not execute the stale instruction.
TEST(DecodeCacheTest, CodeWriteInvalidatesCachedDecode) {
  // Two variants of the same program; the only difference is the constant
  // in the loop body. Patching the bytes of variant A into variant B's
  // image mid-run must change the second loop iteration's output.
  const auto make_src = [](int value) {
    return std::string(".entry main\n"
                       "main:\n"
                       "  mov r3, 2\n"
                       "loop:\n"
                       "  mov r2, ") +
           std::to_string(value) +
           "\n"
           "  out r2\n"
           "  sub r3, 1\n"
           "  cmp r3, 0\n"
           "  jgt loop\n"
           "  halt\n";
  };
  const binary::Image before = isa::assemble(make_src(5));
  const binary::Image after = isa::assemble(make_src(9));
  ASSERT_EQ(before.code.size(), after.code.size());

  binary::Memory mem;
  binary::load(before, mem);
  emu::Emulator emulator(before, mem);

  // First iteration: runs the unpatched body (out 5).
  while (emulator.output().empty()) ASSERT_TRUE(emulator.step());
  const uint64_t gen_before = mem.code_version();

  // Patch every differing code byte in place (what a store to the code
  // segment does, without needing an ISA-level store-to-code idiom).
  for (size_t i = 0; i < before.code.size(); ++i) {
    if (before.code[i] != after.code[i]) {
      mem.write8(before.code_base + static_cast<uint32_t>(i), after.code[i]);
    }
  }
  EXPECT_GT(mem.code_version(), gen_before)
      << "code writes must bump the generation";

  const auto r = emulator.run();
  ASSERT_TRUE(r.halted) << r.error;
  EXPECT_EQ(r.output, (std::vector<uint32_t>{5, 9}));
  EXPECT_GT(emulator.decode_cache_stats().invalidations, 0u)
      << "the patched loop body was cached and must have been re-decoded";
}

TEST(MemoryTest, ReadBlockCrossesPageBoundary) {
  binary::Memory mem;
  const uint32_t page = binary::Memory::kPageSize;
  const uint32_t start = 3 * page - 3;  // 3 bytes before a boundary
  for (uint32_t i = 0; i < 8; ++i) {
    mem.write8(start + i, static_cast<uint8_t>(0xa0 + i));
  }
  uint8_t buf[8] = {};
  mem.read_block(start, buf, 8);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(buf[i], 0xa0 + i) << i;
  }

  // A block overlapping an unallocated page reads zeros there.
  uint8_t buf2[16] = {};
  mem.read_block(start, buf2, 16);
  for (uint32_t i = 8; i < 16; ++i) EXPECT_EQ(buf2[i], 0u) << i;

  // Straddling 32-bit accesses agree with byte-wise assembly.
  mem.write32(4 * page - 2, 0xdeadbeef);
  EXPECT_EQ(mem.read32(4 * page - 2), 0xdeadbeefu);
  EXPECT_EQ(mem.read8(4 * page - 2), 0xefu);
  EXPECT_EQ(mem.read8(4 * page + 1), 0xdeu);
}

TEST(MemoryTest, PageMemoSurvivesInterleavedStreams) {
  // Alternate between two pages and between reads/writes: the per-stream
  // memos must never serve bytes from the wrong page.
  binary::Memory mem;
  const uint32_t a = 0x1000, b = 0x200000;
  for (int i = 0; i < 64; ++i) {
    mem.write8(a + i, static_cast<uint8_t>(i));
    mem.write8(b + i, static_cast<uint8_t>(0x80 + i));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(mem.read8(a + i), i);
    EXPECT_EQ(mem.read8(b + i), 0x80 + i);
  }
}

TEST(FlatSetTest, InsertContains) {
  binary::FlatSet32 s;
  for (uint32_t i = 0; i < 500; ++i) EXPECT_TRUE(s.insert(i * 31 + 7));
  EXPECT_FALSE(s.insert(7));
  EXPECT_EQ(s.size(), 500u);
  for (uint32_t i = 0; i < 500; ++i) EXPECT_TRUE(s.contains(i * 31 + 7));
  EXPECT_FALSE(s.contains(8));
}

// Backward-shift erase against a std::set model. The first phase keeps
// the set at its initial 16 slots and draws keys whose home slots sit at
// the end of the array, so probe chains wrap past the last slot; the
// second phase grows through several rehashes.
TEST(FlatSetTest, EraseMatchesStdSetModel) {
  std::vector<uint32_t> wrap_keys;
  for (uint32_t k = 1; wrap_keys.size() < 8; ++k) {
    if ((binary::mix32(k) & 15u) >= 13u) wrap_keys.push_back(k);
  }
  for (uint32_t k = 1; wrap_keys.size() < 12; ++k) {
    if ((binary::mix32(k) & 15u) <= 1u) wrap_keys.push_back(k);
  }

  const auto check = [](const binary::FlatSet32& s,
                        const std::set<uint32_t>& model, int op) {
    ASSERT_EQ(s.size(), model.size()) << "op " << op;
    std::set<uint32_t> seen;
    size_t visited = 0;
    for (const uint32_t k : s) {
      ++visited;
      seen.insert(k);
    }
    EXPECT_EQ(visited, model.size()) << "op " << op;
    EXPECT_EQ(seen, model) << "op " << op;
    for (const uint32_t k : model) {
      EXPECT_TRUE(s.contains(k)) << "op " << op << " key " << k;
    }
  };

  std::mt19937 rng(1234);
  for (const bool grow : {false, true}) {
    binary::FlatSet32 s;
    std::set<uint32_t> model;
    const int ops = grow ? 20000 : 4000;
    for (int op = 0; op < ops; ++op) {
      const uint32_t key = grow ? rng() % 600
                                : wrap_keys[rng() % wrap_keys.size()];
      switch (rng() % 3) {
        case 0:
          EXPECT_EQ(s.insert(key), model.insert(key).second) << "op " << op;
          break;
        case 1:
          EXPECT_EQ(s.erase(key), model.erase(key) == 1) << "op " << op;
          break;
        default:
          EXPECT_EQ(s.contains(key), model.contains(key)) << "op " << op;
          break;
      }
      if (!grow || op % 97 == 0) check(s, model, op);
    }
    check(s, model, ops);
    while (!model.empty()) {
      EXPECT_TRUE(s.erase(*model.begin()));
      model.erase(model.begin());
    }
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.erase(wrap_keys[0]));
  }
}

TEST(WorkerPoolTest, PersistentThreadsRunEveryTask) {
  os::WorkerPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);

  // WHICH host thread runs a task varies with host scheduling (an idle
  // participant claims the next index while another is still busy), but
  // every task runs exactly once per round and run() does not return
  // before all of them completed.
  std::atomic<uint64_t> runs{0};
  for (int round = 0; round < 200; ++round) {
    std::array<std::atomic<uint32_t>, 4> per_task{};
    pool.run(4, [&](uint32_t task) {
      per_task[task].fetch_add(1, std::memory_order_relaxed);
      runs.fetch_add(1, std::memory_order_relaxed);
    });
    for (uint32_t t = 0; t < 4; ++t) {
      EXPECT_EQ(per_task[t].load(), 1u) << "task " << t << " round " << round;
    }
  }
  EXPECT_EQ(runs.load(), 4u * 200u);

  // Single-task dispatches run inline on the caller without waking anyone.
  const std::thread::id caller = std::this_thread::get_id();
  bool ran = false;
  pool.run(1, [&](uint32_t task) {
    EXPECT_EQ(task, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(WorkerPoolTest, FewerTasksThanWorkers) {
  os::WorkerPool pool(7);
  std::atomic<uint64_t> runs{0};
  for (int round = 0; round < 50; ++round) {
    pool.run(3, [&](uint32_t) { runs.fetch_add(1); });
  }
  EXPECT_EQ(runs.load(), 150u);
}

TEST(WorkerPoolTest, MoreTasksThanParticipants) {
  // The old static-assignment pool silently required tasks <= workers + 1;
  // with a shared next-task index a participant that finishes early just
  // claims the next one, so any excess drains.
  os::WorkerPool pool(2);
  std::array<std::atomic<uint32_t>, 17> per_task{};
  std::atomic<uint64_t> runs{0};
  for (int round = 0; round < 20; ++round) {
    pool.run(17, [&](uint32_t task) {
      per_task[task].fetch_add(1, std::memory_order_relaxed);
      runs.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(runs.load(), 17u * 20u);
  for (uint32_t t = 0; t < 17; ++t) EXPECT_EQ(per_task[t].load(), 20u);
}

// Rounds spaced wider than the spin budget find the workers parked and
// must wake them; back-to-back rounds find them spinning. Either way each
// task runs exactly once per dispatch. The counts are plain memory: only
// run()'s barrier orders a task's write before the caller's read (and the
// caller's reset before the next round's write), which TSan checks.
TEST(WorkerPoolTest, SpacedAndBackToBackDispatchesRunEveryTaskOnce) {
  os::WorkerPool pool(2);
  if (std::thread::hardware_concurrency() >= 3) {
    EXPECT_TRUE(pool.spins());
  }
  std::array<uint32_t, 5> per_task{};
  for (const auto gap :
       {std::chrono::microseconds{0}, 4 * os::WorkerPool::kSpinBudget}) {
    for (int round = 0; round < (gap.count() == 0 ? 500 : 50); ++round) {
      per_task.fill(0);
      pool.run(5, [&](uint32_t task) { ++per_task[task]; });
      for (uint32_t t = 0; t < 5; ++t) {
        ASSERT_EQ(per_task[t], 1u)
            << "task " << t << " round " << round << " gap " << gap.count();
      }
      if (gap.count() != 0) std::this_thread::sleep_for(gap);
    }
  }
}

// Stopping must reach workers whether they are still spinning after a
// dispatch, parked long after one, or parked without ever having run.
TEST(WorkerPoolTest, DestructorReturnsPromptlyParkedOrSpinning) {
  using Clock = std::chrono::steady_clock;
  for (const int phase : {0, 1, 2}) {
    auto pool = std::make_unique<os::WorkerPool>(2);
    if (phase != 2) pool->run(3, [](uint32_t) {});
    if (phase != 0) {
      std::this_thread::sleep_for(20 * os::WorkerPool::kSpinBudget);
    }
    const auto t0 = Clock::now();
    pool.reset();
    EXPECT_LT(Clock::now() - t0, std::chrono::seconds(2)) << "phase " << phase;
  }
}

// More participants than host CPUs: spinning would only take the CPU from
// the thread being waited for, so the pool parks at once, and still
// drains every dispatch.
TEST(WorkerPoolTest, OversubscribedPoolParksAndDrains) {
  const uint32_t cpus = std::max(1u, std::thread::hardware_concurrency());
  os::WorkerPool pool(cpus + 1);
  EXPECT_FALSE(pool.spins());
  const uint32_t tasks = 2 * (cpus + 2);
  std::vector<std::atomic<uint32_t>> per_task(tasks);
  for (int round = 0; round < 20; ++round) {
    pool.run(tasks, [&](uint32_t task) {
      per_task[task].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (uint32_t t = 0; t < tasks; ++t) EXPECT_EQ(per_task[t].load(), 20u);
}

TEST(WorkerPoolTest, KernelUsesPoolOnlyWhenMultiCore) {
  os::KernelConfig kc;
  kc.sched.slice_instructions = 500;
  kc.measure_isolated = false;

  kc.cores = 2;
  os::Kernel multi(kc);
  for (uint32_t i = 0; i < 3; ++i) {
    os::ProcessConfig pc;
    pc.workload = i == 0 ? "bzip2" : (i == 1 ? "mcf" : "hmmer");
    pc.scale = 0;
    pc.seed = 40 + i;
    multi.spawn(pc);
  }
  (void)multi.run();
  EXPECT_GT(multi.pool_rounds(), 0u)
      << "multi-core rounds must dispatch through the pool";
  EXPECT_EQ(multi.pool_workers(), 1u);

  kc.cores = 1;
  os::Kernel solo(kc);
  for (uint32_t i = 0; i < 2; ++i) {
    os::ProcessConfig pc;
    pc.workload = i == 0 ? "bzip2" : "hmmer";
    pc.scale = 0;
    pc.seed = 50 + i;
    solo.spawn(pc);
  }
  (void)solo.run();
  EXPECT_EQ(solo.pool_rounds(), 0u) << "single-core runs never need workers";
  EXPECT_EQ(solo.pool_workers(), 0u);
}

}  // namespace
}  // namespace vcfr
