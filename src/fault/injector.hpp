// Seeded fault injector: schedules one corruption at an exact instruction
// count and applies it against a live emulator/memory/image triple.
//
// The injector models the hardware-level disturbances the paper's
// dependability argument is about (§V, §VI): bit flips in translation-
// table entries, code bytes, and stack return-address slots, loss of a
// ret-bitmap mark, and whole attack-payload injection (a hijacked `ret`
// driving a ROP chain, reusing gadget::compile_payloads). Every choice —
// which entry, which byte, which bit — is drawn from a splitmix64 stream
// seeded by the plan, so a campaign trial is reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "binary/image.hpp"
#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"

namespace vcfr::binary {
class StateIo;
}  // namespace vcfr::binary

namespace vcfr::fault {

/// Where the corruption lands. Values are stable (serialized into
/// campaign JSON); append, never renumber.
enum class FaultSite : uint8_t {
  /// One bit of one code byte (in the loaded memory image).
  kCodeByte = 0,
  /// One bit of one de-randomization table value (kVcfr only), flipped in
  /// the image's maps, which translation and DRC fills both read.
  kTranslationEntry = 1,
  /// One low-order bit of a stack slot holding a return address
  /// (bitmap-marked slot when one exists, else the top-of-stack word).
  kRetSlot = 2,
  /// One architectural ret-bitmap mark is dropped (kVcfr only).
  kRetBitmap = 3,
  /// Full attack: assemble a ROP payload from the image's gadgets and
  /// pivot execution onto it, as a hijacked `ret` would.
  kPayload = 4,
};

[[nodiscard]] std::string_view site_name(FaultSite site);
[[nodiscard]] std::optional<FaultSite> parse_site(std::string_view name);

/// One scheduled corruption.
struct FaultPlan {
  /// Fire once the victim has retired exactly this many instructions
  /// (the driver truncates its step/slice budget to stop on the boundary).
  uint64_t at_instruction = 0;
  FaultSite site = FaultSite::kCodeByte;
  /// Seeds the target/bit selection stream.
  uint64_t seed = 1;
};

/// What actually happened when the plan fired.
struct InjectionRecord {
  bool applied = false;
  FaultSite site = FaultSite::kCodeByte;
  /// Instructions the victim had retired when the corruption landed.
  uint64_t at_instruction = 0;
  /// Corrupted location: memory/table address, bitmap slot, or payload
  /// entry point.
  uint32_t address = 0;
  /// Bit index flipped (0 when the site is not a bit flip).
  uint32_t bit = 0;
  /// Deterministic one-line description for reports.
  std::string note;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  /// True once apply() ran (whether or not it found a target).
  [[nodiscard]] bool attempted() const { return attempted_; }
  [[nodiscard]] bool applied() const { return record_.applied; }
  [[nodiscard]] const InjectionRecord& record() const { return record_; }

  /// True when the plan should fire now (never after it was attempted).
  [[nodiscard]] bool due(uint64_t instructions_retired) const {
    return !attempted_ && instructions_retired >= plan_.at_instruction;
  }

  /// Applies the corruption to the running triple. `image` is the image
  /// the emulator executes (mutable: table corruption rewrites its
  /// tables); `mem` its loaded memory. `original` optionally names the
  /// original-layout binary — the payload site scans it (the attacker
  /// knows the *original* gadget addresses, which is exactly what VCFR's
  /// tag check defeats); when null the executing image is scanned.
  /// Returns record().applied. Idempotent: later calls are no-ops.
  bool apply(binary::Image& image, binary::Memory& mem, emu::Emulator& emu,
             const binary::Image* original = nullptr);

  /// Checkpoint support: whether the plan already fired and what it did.
  /// The plan itself is configuration and is re-supplied at construction.
  void state(binary::StateIo& io);

 private:
  FaultPlan plan_;
  bool attempted_ = false;
  InjectionRecord record_;
};

}  // namespace vcfr::fault
