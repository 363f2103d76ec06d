// Scale-out invariants (ARCHITECTURE.md §14): the shared-index worker
// pool is host parallelism only, so every observable report must be
// byte-identical whatever the pool size. Also covers checkpoint/restore:
// a run resumed from a mid-campaign checkpoint must finish with the exact
// bytes of the uninterrupted run, checkpoint bytes are pinned, and the kernel
// refuses checkpoints it cannot resume faithfully, corrupt ones included.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "binary/state_io.hpp"
#include "fault/injector.hpp"
#include "mutate.hpp"
#include "os/kernel.hpp"
#include "serve/server.hpp"
#include "sim/cpu.hpp"

namespace vcfr {
namespace {

constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

os::ProcessConfig tenant(const char* workload, uint64_t seed) {
  os::ProcessConfig pc;
  pc.workload = workload;
  pc.scale = 0;
  pc.seed = seed;
  pc.max_instructions = 20'000;
  return pc;
}

os::KernelConfig fleet_config(uint32_t cores, uint32_t pool_workers = 0) {
  os::KernelConfig kc;
  kc.cores = cores;
  kc.sched.slice_instructions = 2'000;
  kc.measure_isolated = false;
  kc.pool_workers = pool_workers;
  return kc;
}

void spawn_mix(os::Kernel& kernel, uint32_t procs, uint64_t seed,
               bool inject_pid1 = false,
               const os::RerandomizePolicy* rerand = nullptr,
               bool taint = false) {
  const char* mix[] = {"bzip2", "gcc", "mcf", "hmmer"};
  for (uint32_t i = 0; i < procs; ++i) {
    os::ProcessConfig pc = tenant(mix[i % 4], seed ^ (kSeedMix * (i + 1)));
    if (rerand != nullptr) pc.rerandomize = *rerand;
    pc.taint = taint;
    if (inject_pid1) {
      pc.restart.mode = os::RestartPolicy::Mode::kOnFault;
      pc.restart.backoff_rounds = 2;
      if (i == 1) {
        pc.inject.site = fault::FaultSite::kPayload;
        pc.inject.at_instruction = 5'000;
        pc.inject.seed = 3;
        pc.inject_enabled = true;
      }
    }
    kernel.spawn(pc);
  }
}

std::string fleet_json(uint32_t cores, uint32_t procs, uint64_t seed,
                       uint32_t pool_workers) {
  os::Kernel kernel(fleet_config(cores, pool_workers));
  spawn_mix(kernel, procs, seed);
  return kernel.run().to_json();
}

// ------------------------------------------------------ pool invariance --

// Worker-pool sizing is pure host parallelism: any pool size must leave
// the report bytes untouched.
TEST(PoolInvarianceTest, PoolWorkerCountDoesNotChangeReport) {
  const std::string one = fleet_json(4, 8, 7, 1);
  for (const uint32_t workers : {2u, 4u}) {
    EXPECT_EQ(one, fleet_json(4, 8, 7, workers)) << workers << " workers";
  }
}

// The serve path drives the same kernel; its report must be equally
// indifferent to pool sizing, also under serve-rerand's policy, whose
// firings and taint run between the pool's rounds.
TEST(PoolInvarianceTest, ServeReportDoesNotDependOnPoolSize) {
  serve::ServeConfig sc;
  sc.tenants = 8;
  sc.cores = 4;
  sc.duration = 100'000;
  sc.mean_interarrival = 10'000;
  sc.seed = 7;
  std::string plain;
  for (const bool rerand : {false, true}) {
    if (rerand) {
      sc.rerandomize.every_slices = 8;
      sc.rerandomize.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
      sc.rerandomize.epoch_tags = true;
      sc.rerandomize.max_defer = 4;
      sc.rerand_cost_per_entry = 2;
      sc.taint = true;
    }
    sc.pool_workers = 1;
    const std::string one = serve::run_serve(sc).to_json();
    sc.pool_workers = 3;
    EXPECT_EQ(one, serve::run_serve(sc).to_json())
        << (rerand ? "rerand" : "plain");
    if (rerand) {
      EXPECT_NE(one, plain) << "the re-randomizing run changed nothing";
    }
    plain = one;
  }
}

// ------------------------------------------------- checkpoint / restore --

struct CheckpointRun {
  std::string baseline;     // uninterrupted, no checkpoint armed
  std::string with_write;   // uninterrupted, checkpoint written mid-run
  std::string resumed;      // fresh kernel restored from the checkpoint
  uint64_t writes = 0;
  uint64_t restores = 0;
  // Forced-quiescence aliases live at the cut that the restored derand
  // tables hold.
  size_t restored_aliases = 0;
};

CheckpointRun checkpoint_roundtrip(const std::string& path, bool inject_pid1,
                                   uint32_t restore_pool_workers = 0,
                                   const os::RerandomizePolicy* rerand =
                                       nullptr,
                                   uint32_t round = 8) {
  CheckpointRun out;
  {
    os::Kernel kernel(fleet_config(4));
    spawn_mix(kernel, 8, 7, inject_pid1, rerand);
    out.baseline = kernel.run().to_json();
  }
  {
    os::Kernel kernel(fleet_config(4));
    spawn_mix(kernel, 8, 7, inject_pid1, rerand);
    kernel.set_checkpoint(round, path);
    out.with_write = kernel.run().to_json();
    out.writes = kernel.checkpoint_writes();
  }
  {
    os::Kernel kernel(fleet_config(4, restore_pool_workers));
    spawn_mix(kernel, 8, 7, inject_pid1, rerand);
    std::ifstream in(path, std::ios::binary);
    kernel.restore(in);
    for (uint32_t pid = 0; pid < kernel.process_count(); ++pid) {
      for (const uint32_t alias : kernel.process(pid).rerand_aliases()) {
        if (kernel.randomization(pid).tables.derand.contains(alias)) {
          ++out.restored_aliases;
        }
      }
    }
    out.resumed = kernel.run().to_json();
    out.restores = kernel.checkpoint_restores();
  }
  return out;
}

// Resume-equals-uninterrupted: serializing at a round boundary and
// continuing in a fresh kernel reproduces the final report bytes, and
// writing the checkpoint never perturbs the run that wrote it.
TEST(CheckpointRestoreTest, ResumedRunIsBitIdentical) {
  const CheckpointRun r =
      checkpoint_roundtrip(testing::TempDir() + "vcfr_ckpt_plain.bin", false);
  EXPECT_EQ(r.writes, 1u);
  EXPECT_EQ(r.restores, 1u);
  EXPECT_EQ(r.baseline, r.with_write);
  EXPECT_EQ(r.baseline, r.resumed);
}

// Same under injection + restart: the checkpoint carries the corrupted
// live image, pending-restart queue, and containment counters.
TEST(CheckpointRestoreTest, ResumedRunIsBitIdenticalUnderInjection) {
  const CheckpointRun r =
      checkpoint_roundtrip(testing::TempDir() + "vcfr_ckpt_inject.bin", true);
  EXPECT_EQ(r.writes, 1u);
  EXPECT_EQ(r.baseline, r.with_write);
  EXPECT_EQ(r.baseline, r.resumed);
}

// Continuous re-randomization is the hardest checkpoint client: the cut
// can land mid-deferral-streak with alias entries live and a trap-
// scheduled swap pending, and incremental epochs cannot be re-derived
// from the seed alone (the serialized tables are the ground truth). The
// resumed run must still finish bit-identical.
os::RerandomizePolicy continuous_rerand() {
  os::RerandomizePolicy rp;
  rp.every_slices = 3;
  rp.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
  rp.epoch_tags = true;
  rp.on_trap = true;
  rp.max_defer = 2;
  return rp;
}

// Both rebuild paths: incremental firings patch the live image in place,
// full firings replace the image object and keep forced aliases only in
// the fresh derand table. Both arms cut at round 12, after the first
// forced firings, so restore must carry live aliases in the serialized
// image. An incremental firing leaves an alias only when it moves the
// pinned instruction, and at 25 % of the pages no cut in this fleet has
// one, so that arm re-places every page per firing.
TEST(CheckpointRestoreTest, ResumedRunIsBitIdenticalUnderContinuousRerand) {
  for (const auto rebuild : {os::RerandomizePolicy::Rebuild::kIncremental,
                             os::RerandomizePolicy::Rebuild::kFull}) {
    os::RerandomizePolicy rp = continuous_rerand();
    rp.rebuild = rebuild;
    const bool full = rebuild == os::RerandomizePolicy::Rebuild::kFull;
    if (!full) rp.region_percent = 100;
    SCOPED_TRACE(full ? "full rebuild" : "incremental");
    const CheckpointRun r = checkpoint_roundtrip(
        testing::TempDir() + (full ? "vcfr_ckpt_full.bin"
                                   : "vcfr_ckpt_rerand.bin"),
        /*inject_pid1=*/true, 0, &rp, /*round=*/12);
    EXPECT_EQ(r.writes, 1u);
    EXPECT_EQ(r.restores, 1u);
    EXPECT_GT(r.restored_aliases, 0u);
    EXPECT_EQ(r.baseline, r.with_write);
    EXPECT_EQ(r.baseline, r.resumed);
  }
}

// A translation-entry fault flips a derand value in the live image, and
// the checkpoint must carry that corruption: restore's placement check
// exempts exactly the entry the process's own injector flipped.
TEST(CheckpointRestoreTest, ResumedRunIsBitIdenticalAfterTableCorruption) {
  const auto spawn = [](os::Kernel& kernel) {
    for (uint32_t i = 0; i < 2; ++i) {
      os::ProcessConfig pc =
          tenant(i == 0 ? "gcc" : "bzip2", 7 ^ (kSeedMix * (i + 1)));
      if (i == 0) {
        pc.inject.site = fault::FaultSite::kTranslationEntry;
        pc.inject.at_instruction = 1'000;
        pc.inject.seed = 5;
        pc.inject_enabled = true;
      }
      kernel.spawn(pc);
    }
  };
  const std::string path = testing::TempDir() + "vcfr_ckpt_table_fault.bin";
  std::string baseline;
  {
    os::Kernel kernel(fleet_config(2));
    spawn(kernel);
    kernel.set_checkpoint(4, path);
    baseline = kernel.run().to_json();
    ASSERT_EQ(kernel.checkpoint_writes(), 1u);
  }
  os::Kernel kernel(fleet_config(2));
  spawn(kernel);
  std::ifstream in(path, std::ios::binary);
  kernel.restore(in);
  ASSERT_TRUE(kernel.process(0).injector()->applied());
  EXPECT_EQ(kernel.run().to_json(), baseline);
}

// The digest excludes worker-pool sizing, so restoring under a different
// host parallelism is legal and bit-identical.
TEST(CheckpointRestoreTest, RestoreWithDifferentPoolWorkersIsIdentical) {
  const CheckpointRun r = checkpoint_roundtrip(
      testing::TempDir() + "vcfr_ckpt_pool.bin", false, /*pool_workers=*/2);
  EXPECT_EQ(r.baseline, r.resumed);
}

// A checkpoint from a differently-configured fleet must be rejected by
// the configuration digest, not silently resumed into the wrong machine.
TEST(CheckpointRestoreTest, RestoreRejectsMismatchedConfig) {
  const std::string path = testing::TempDir() + "vcfr_ckpt_digest.bin";
  {
    os::Kernel kernel(fleet_config(4));
    spawn_mix(kernel, 8, 7);
    kernel.set_checkpoint(8, path);
    (void)kernel.run();
    ASSERT_EQ(kernel.checkpoint_writes(), 1u);
  }
  os::Kernel other(fleet_config(4));
  spawn_mix(other, 8, /*seed=*/99);  // different tenant seeds -> new digest
  std::ifstream in(path, std::ios::binary);
  EXPECT_THROW(other.restore(in), binary::FormatError);
}

/// The bytes of a checkpoint written at round 8 of the 4-core, 8-tenant
/// mix (spawn_mix's options select the variant).
std::string checkpoint_bytes(const std::string& path, bool inject_pid1 = false,
                             const os::RerandomizePolicy* rerand = nullptr,
                             bool taint = false) {
  {
    os::Kernel kernel(fleet_config(4));
    spawn_mix(kernel, 8, 7, inject_pid1, rerand, taint);
    kernel.set_checkpoint(8, path);
    (void)kernel.run();
  }
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The checkpoint layout is a format (version 4): these digests pin its
// bytes for the plain mix and for the continuous re-rand fleet with taint
// and re-rand-on-leak armed, which puts the emulator's taint shadow state
// and the per-process request/leak fields in the stream. Any change to a
// class's field list that moves a byte fails here. A process's memory
// section holds no translation-table pages: the tables travel only inside
// its image's fields, written in key order. A fleet core writes no L2 or
// DRAM of its own: it has none.
TEST(CheckpointRestoreTest, BytesPinned) {
  const std::string plain =
      checkpoint_bytes(testing::TempDir() + "vcfr_ckpt_pin_plain.bin");
  os::RerandomizePolicy rp = continuous_rerand();
  rp.on_leak = true;
  const std::string rerand =
      checkpoint_bytes(testing::TempDir() + "vcfr_ckpt_pin_rerand.bin",
                       /*inject_pid1=*/true, &rp, /*taint=*/true);
  EXPECT_EQ(fnv1a(plain), 8632083792290510698ull) << plain.size();
  EXPECT_EQ(fnv1a(rerand), 11346912370916297191ull) << rerand.size();
}

// Truncated streams fail loudly with a typed fault, never a partial load.
TEST(CheckpointRestoreTest, RestoreRejectsTruncatedStream) {
  const std::string bytes =
      checkpoint_bytes(testing::TempDir() + "vcfr_ckpt_trunc.bin");
  ASSERT_GT(bytes.size(), 64u);
  std::istringstream cut(bytes.substr(0, bytes.size() / 2));
  os::Kernel kernel(fleet_config(4));
  spawn_mix(kernel, 8, 7);
  EXPECT_THROW(kernel.restore(cut), binary::FormatError);
}

// A checkpoint of another format version (bytes 4-7, after the magic) is
// refused with a typed fault instead of being misread field by field:
// version 3 wrote every fleet core's unused private L2 and DRAM, and its
// images carried the VXE3 naive-ILR fields.
TEST(CheckpointRestoreTest, RestoreRejectsOtherVersion) {
  std::string bytes =
      checkpoint_bytes(testing::TempDir() + "vcfr_ckpt_version.bin");
  ASSERT_GT(bytes.size(), 64u);
  bytes.replace(4, 4, std::string("\x03\x00\x00\x00", 4));
  std::istringstream old(bytes);
  os::Kernel kernel(fleet_config(4));
  spawn_mix(kernel, 8, 7);
  try {
    kernel.restore(old);
    FAIL() << "a version-3 checkpoint was accepted";
  } catch (const binary::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("version 3"), std::string::npos)
        << e.what();
  }
}

/// Overwrites the little-endian u32 at byte `at`.
void put_u32(std::string& bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
}

/// Restores `bytes` into a freshly spawned 4-core, 8-tenant mix and
/// expects a kImplausible FormatError from restore() itself.
void expect_implausible_restore(const std::string& bytes) {
  std::istringstream in(bytes);
  os::Kernel kernel(fleet_config(4));
  spawn_mix(kernel, 8, 7);
  try {
    kernel.restore(in);
    FAIL() << "the corrupt checkpoint was accepted";
  } catch (const binary::FormatError& e) {
    EXPECT_EQ(e.fault(), binary::FormatFault::kImplausible) << e.what();
  }
}

// The first queued pid of core 0 (byte 128 of the mix's checkpoint) must
// name a spawned process, and no pid may be queued twice.
TEST(CheckpointRestoreTest, RestoreRejectsBadQueuedPid) {
  const std::string bytes =
      checkpoint_bytes(testing::TempDir() + "vcfr_ckpt_queue.bin");
  ASSERT_GT(bytes.size(), 256u);
  for (const uint32_t pid : {8u, 40u, 0xFFFFFFFFu}) {
    std::string bad = bytes;
    put_u32(bad, 128, pid);
    expect_implausible_restore(bad);
  }
  // Core 0's queue (count at byte 124) holds distinct pids; repeating the
  // first one in the second slot queues it twice.
  ASSERT_GE(static_cast<uint8_t>(bytes[124]), 2);
  std::string twice = bytes;
  twice.replace(132, 4, bytes.substr(128, 4));
  expect_implausible_restore(twice);
}

// A pending restart (count at byte 88, records of u32 pid + u64 due
// round) must name a spawned process.
TEST(CheckpointRestoreTest, RestoreRejectsBadPendingRestartPid) {
  std::string bytes =
      checkpoint_bytes(testing::TempDir() + "vcfr_ckpt_pending.bin");
  ASSERT_GT(bytes.size(), 256u);
  ASSERT_EQ(bytes.substr(88, 4), std::string(4, '\0'));
  put_u32(bytes, 88, 1);
  bytes.insert(92, std::string(12, '\0'));
  put_u32(bytes, 92, 40);
  expect_implausible_restore(bytes);
}

// The store-buffer head indexes the store ring, so it must lie inside it.
// In a lone core's stream it sits 80 bytes before the end, followed by
// nine u64 counters.
TEST(CheckpointRestoreTest, RestoreRejectsStoreHeadOutOfRange) {
  const sim::CpuConfig config;
  sim::CpuCore core(config);
  std::ostringstream out;
  binary::StateIo writer(out);
  core.state(writer);
  std::string bytes = out.str();
  ASSERT_GT(bytes.size(), 80u);
  put_u32(bytes, bytes.size() - 80, 1'000'000);
  std::istringstream in(bytes);
  binary::StateIo reader(in);
  sim::CpuCore fresh(config);
  try {
    fresh.state(reader);
    FAIL() << "a store-buffer head past the ring was accepted";
  } catch (const binary::FormatError& e) {
    EXPECT_EQ(e.fault(), binary::FormatFault::kImplausible) << e.what();
  }
}

// Restore hardening contract, as for VXE images (test_serialize.cpp): no
// bit flip, truncation or byte burst of a valid checkpoint may escape
// restore() as anything but a FormatError. Half of the mutations land in
// the first 256 bytes (kernel counters, pending restarts, scheduler
// queues); a mutation that restores is run four rounds past the cut, so an
// out-of-range index that slipped through surfaces under ASan. The second
// arm arms continuous incremental re-randomization, whose next firing
// patches the restored tables in place: a restored placement it cannot
// patch must be refused by restore, never thrown from run().
TEST(CheckpointRestoreTest, MutationFuzzOnlyEverThrowsFormatError) {
  const os::RerandomizePolicy rerand = continuous_rerand();
  const os::RerandomizePolicy* arms[] = {nullptr, &rerand};
  for (const os::RerandomizePolicy* rp : arms) {
    SCOPED_TRACE(rp == nullptr ? "plain" : "continuous re-rand");
    const bool inject = rp != nullptr;
    const std::string bytes = checkpoint_bytes(
        testing::TempDir() + "vcfr_ckpt_fuzz.bin", inject, rp);
    ASSERT_GT(bytes.size(), 256u);
    SplitMix64 rng(0xc4ec);
    constexpr int kMutations = 200;
    int restored = 0, rejected = 0;
    for (int round = 0; round < kMutations; ++round) {
      const std::string mutated =
          mutate(bytes, round % 2 == 0 ? 256 : bytes.size(), rng);
      os::KernelConfig kc = fleet_config(4);
      kc.max_rounds = 8 + 4;
      os::Kernel kernel(kc);
      spawn_mix(kernel, 8, 7, inject, rp);
      std::istringstream in(mutated);
      try {
        kernel.restore(in);
      } catch (const binary::FormatError& e) {
        EXPECT_FALSE(binary::format_fault_name(e.fault()).empty());
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutation " << round
                      << ": non-FormatError escaped restore: " << e.what();
        continue;
      }
      ++restored;
      try {
        (void)kernel.run();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutation " << round
                      << ": restored, then run() threw: " << e.what();
      }
    }
    EXPECT_EQ(restored + rejected, kMutations);
    EXPECT_GT(rejected, 0) << "the fuzzer never hit a checked field";
    EXPECT_GT(restored, 0) << "the fuzzer never left a stream restorable";
  }
}

/// Rewrites the first serialized little-endian u32 pair `from` into `to`.
void rewrite_pair(std::string& bytes, std::pair<uint32_t, uint32_t> from,
                  std::pair<uint32_t, uint32_t> to) {
  std::string pattern(8, '\0');
  put_u32(pattern, 0, from.first);
  put_u32(pattern, 4, from.second);
  const size_t at = bytes.find(pattern);
  ASSERT_NE(at, std::string::npos);
  put_u32(bytes, at, to.first);
  put_u32(bytes, at + 4, to.second);
}

/// Restores `bytes` into the continuous re-rand mix and expects a
/// kImplausible FormatError naming `reason`.
void expect_placement_rejected(const std::string& bytes,
                               const std::string& reason) {
  const os::RerandomizePolicy rp = continuous_rerand();
  os::Kernel kernel(fleet_config(4));
  spawn_mix(kernel, 8, 7, true, &rp);
  std::istringstream in(bytes);
  try {
    kernel.restore(in);
    FAIL() << "the corrupt placement was accepted";
  } catch (const binary::FormatError& e) {
    EXPECT_EQ(e.fault(), binary::FormatFault::kImplausible) << e.what();
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

// A placement the next incremental firing could not patch is refused at
// restore. Pid 0's image is the first process state in the stream, so
// the first serialized (rand, orig) and (orig, rand) pairs of one of its
// instructions are its derand and rand entries. Moved just past the slot
// pool, the firing used to throw std::invalid_argument out of Kernel::run
// (its slot bitmap would now be indexed out of bounds); the image's own
// field list refuses that rand value, since the pool is the randomized
// region. Moved into another instruction's slot, with derand still
// inverting rand, a firing that moves either would free a slot the other
// still holds.
TEST(CheckpointRestoreTest, RestoreRejectsUnpatchablePlacement) {
  const os::RerandomizePolicy rp = continuous_rerand();
  const std::string bytes = checkpoint_bytes(
      testing::TempDir() + "vcfr_ckpt_placement.bin", true, &rp);
  binary::Image image;
  {
    os::Kernel kernel(fleet_config(4));
    spawn_mix(kernel, 8, 7, true, &rp);
    std::istringstream in(bytes);
    kernel.restore(in);
    image = kernel.randomization(0);
  }
  const auto rand = image.tables.rand.entries();
  const auto [orig, ra] = rand[0];
  const uint32_t other = rand[1].second;

  std::string outside = bytes;
  rewrite_pair(outside, {orig, ra},
               {orig, image.rand_base + image.rand_size});
  expect_placement_rejected(outside,
                            "rand value outside the randomized region");

  const uint32_t slot_bytes = rewriter::RandomizeOptions{}.slot_bytes;
  const uint32_t slot_base = other - (other - image.rand_base) % slot_bytes;
  const uint32_t shared = other == slot_base ? slot_base + 1 : slot_base;
  std::string twice = bytes;
  rewrite_pair(twice, {ra, orig}, {shared, orig});
  rewrite_pair(twice, {orig, ra}, {orig, shared});
  expect_placement_rejected(twice, "share slot");
}

/// A serving hook that never injects work: enough to mark the kernel as
/// serving.
class IdleService : public os::ServiceHook {
 public:
  void on_round(uint64_t) override {}
  HaltAction on_halt(uint32_t, uint64_t) override {
    return HaltAction::kFinish;
  }
  [[nodiscard]] bool active() const override { return false; }
};

// Profilers and a serving hook hold host-side state outside the
// checkpoint, so the kernel refuses to write or resume one with either,
// before the first round runs.
TEST(CheckpointRestoreTest, RunRejectsCheckpointWithProfilingOrService) {
  const std::string path = testing::TempDir() + "vcfr_ckpt_unsupported.bin";
  {
    os::Kernel kernel(fleet_config(2));
    spawn_mix(kernel, 2, 7);
    kernel.set_checkpoint(8, path);
    (void)kernel.run();
    ASSERT_EQ(kernel.checkpoint_writes(), 1u);
  }
  IdleService service;
  for (const bool restore : {false, true}) {
    for (const bool profile : {true, false}) {
      os::Kernel kernel(fleet_config(2));
      spawn_mix(kernel, 2, 7);
      if (profile) {
        kernel.enable_profiling();
      } else {
        kernel.set_service(&service);
      }
      if (restore) {
        std::ifstream in(path, std::ios::binary);
        kernel.restore(in);
      } else {
        kernel.set_checkpoint(4, testing::TempDir() + "vcfr_ckpt_never.bin");
      }
      const uint64_t before = kernel.process(0).stats().instructions;
      EXPECT_THROW((void)kernel.run(), std::logic_error)
          << "restore=" << restore << " profile=" << profile;
      EXPECT_EQ(kernel.checkpoint_writes(), 0u);
      EXPECT_EQ(kernel.process(0).stats().instructions, before)
          << "rejected before the first round";
    }
  }
}

}  // namespace
}  // namespace vcfr
