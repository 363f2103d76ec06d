// The ILR randomization software (§IV-A): takes an original-layout binary,
// runs the CFG + target/safety analyses, assigns every randomizable
// instruction a fresh address in the randomized instruction space, and
// emits up to two executable forms:
//
//   * a *VCFR* image: instruction bytes kept in the original layout with
//     direct targets, patched immediates, and jump-table slots rewritten
//     into the randomized space, plus the randomization/de-randomization
//     tables the DRC caches at run time — the paper's proposal;
//   * on request, a *naive-ILR* image of the same placement: the VCFR
//     image under another layout tag, whose instructions the loader puts
//     at their randomized addresses and whose fall-through successors the
//     straightforward hardware reads from the same tables at zero cost —
//     the §III baseline.
//
// Both images are semantically equivalent to the original program; the
// equivalence property tests exercise this across seeds.
//
// The work splits at the seed: prepare() recovers the CFG and runs the
// analyses once per binary (nothing there depends on the seed), and
// place() draws one seed's placement and emits only the VCFR image. The
// placement itself lives nowhere else than in that image's rand table
// (original -> randomized; un-randomized instructions have no entry), the
// same context the hardware walks (§IV-B). A kernel running many
// processes of one binary prepares it once and places it per process;
// randomize() is prepare + place. naive_ilr() builds the naive image of
// any placement, only for the callers that run the §III baseline.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "binary/image.hpp"
#include "isa/isa.hpp"
#include "rewriter/analysis.hpp"
#include "rewriter/cfg.hpp"

namespace vcfr::binary {
class Memory;
}  // namespace vcfr::binary

namespace vcfr::rewriter {

/// How return addresses get randomized (§IV-A):
enum class ReturnOption {
  /// Option 2: the hardware pushes the randomized return address (looked
  /// up in the DRC) and maintains the stack bitmap. Fully transparent,
  /// constant code size.
  kArchitectural,
  /// Option 1: the rewriter replaces each safely-randomizable `call X`
  /// with `push <randomized return>; jmp X` before relocation. No
  /// hardware support needed, but the program grows and call sites whose
  /// callees touch the return address cannot be randomized.
  kSoftwareRewrite,
};

/// Where randomized instructions may land (§IV-D: "control flow
/// randomization can be confined within the same page, which will further
/// reduce its impact to iTLB").
enum class PlacementPolicy {
  /// Complete spread: one instruction per cache-line-sized slot across the
  /// whole randomized region (maximum entropy; the paper's default).
  kFullSpread,
  /// Each original 4 KiB code page gets one dedicated randomized page;
  /// its instructions are shuffled and re-packed inside it. The iTLB
  /// working set stays identical to the baseline at the cost of lower
  /// per-instruction entropy and partially preserved line locality.
  kPageConfined,
};

struct RandomizeOptions {
  uint64_t seed = 1;
  PlacementPolicy placement = PlacementPolicy::kFullSpread;
  /// Base of the randomized instruction space.
  uint32_t rand_base = binary::kDefaultRandBase;
  /// One randomized instruction is placed per slot; with 64-byte slots each
  /// instruction lands in its own cache line, which is what destroys fetch
  /// locality for the naive hardware implementation (§III-A).
  uint32_t slot_bytes = 64;
  /// Region slots = instructions * spread (>= 1.0). Larger values thin the
  /// randomized space further.
  double spread = 1.25;
  ReturnPolicy return_policy = ReturnPolicy::kArchitectural;
  ReturnOption return_option = ReturnOption::kArchitectural;
  /// Simulated physical base of the rand/derand table region that DRC
  /// misses walk (TranslationTables::table_base); nothing is written there.
  uint32_t table_base = 0x6000'0000;
};

/// Outcome of the software call rewrite (ReturnOption::kSoftwareRewrite).
struct SoftwareRewriteStats {
  uint32_t calls_rewritten = 0;
  uint32_t code_bytes_before = 0;
  uint32_t code_bytes_after = 0;

  [[nodiscard]] double expansion_percent() const {
    return code_bytes_before == 0
               ? 0.0
               : 100.0 * (static_cast<double>(code_bytes_after) /
                              static_cast<double>(code_bytes_before) -
                          1.0);
  }
};

/// What an incremental re-randomization firing (emu/rerandomize.cpp) needs
/// to know about a program beyond its placement. All of it is
/// seed-independent, so prepare() derives it once and every firing of
/// every process of the program walks only what it moves. Indices are
/// into Cfg::instrs.
struct RerandIndex {
  /// Randomizable instructions (not in analysis.unrandomized), ascending.
  std::vector<uint32_t> movable;
  /// The original 4 KiB code pages holding movable instructions, in
  /// address order: page k's are movable[page_begin[k] .. page_begin[k+1]).
  std::vector<uint32_t> page_begin;
  /// Reverse references (CSR): the sites whose immediate is the original
  /// address of instruction t — direct transfers, kPushI and proven
  /// code-pointer movs (analysis.code_imm_sites), ascending — are
  /// referrers[ref_begin[t] .. ref_begin[t+1]).
  std::vector<uint32_t> ref_begin;
  std::vector<uint32_t> referrers;
};

/// The seed-independent half of a randomization: an original-layout image
/// with its recovered CFG and analyses under one return policy. Immutable
/// once built, so any number of placements — on any number of threads —
/// can share one.
struct Program {
  binary::Image image;
  Cfg cfg;
  AnalysisResult analysis;
  ReturnPolicy return_policy = ReturnPolicy::kArchitectural;
  RerandIndex rerand;
  /// The code place() starts from: every instruction of cfg re-encoded in
  /// order with its own immediate. It equals image.code for an assembled
  /// binary; it ends early where the disassembly stopped at an undecodable
  /// byte. A placement re-encodes only the referring sites in rerand.
  std::vector<uint8_t> reencoded;
};

struct RandomizeResult {
  /// What a VCFR process executes; vcfr.tables.rand is the placement.
  binary::Image vcfr;
  /// The prepared program vcfr places (after the software call rewrite,
  /// when one was applied); naive_ilr(vcfr) is the naive image of the
  /// same placement.
  Program program;
  /// Populated when return_option == kSoftwareRewrite.
  SoftwareRewriteStats sw_stats;
};

/// Per-length jitter divisors of a slot size: jitter_divisors(b)[len].mod(r)
/// is r % (b - len + 1), drawing the offset at which a len-byte instruction
/// sits in its b-byte slot. place() and an incremental firing draw with it.
using JitterDivisors = std::array<binary::Divisor, isa::kMaxInstrLength + 1>;
[[nodiscard]] JitterDivisors jitter_divisors(uint32_t slot_bytes);

/// Re-encodes the referring site `site` of `image`'s code with immediate
/// `imm` into `buf` and writes it over the site's bytes in image.code;
/// `buf` keeps the new bytes. place() and an incremental firing patch every
/// site with it. Throws std::logic_error when the encoding's length is not
/// the site's.
void patch_site(binary::Image& image, const isa::DisasmEntry& site,
                uint32_t imm, std::vector<uint8_t>& buf);

/// Applies the §IV-A option-1 rewrite standalone: every safely
/// randomizable direct call becomes `push <return>; jmp target` (the push
/// immediate still holds the *original* return address; randomize() remaps
/// it like any other code pointer). Returns an expanded original-layout
/// image with all address references (targets, relocations, symbols,
/// entry) re-linked.
[[nodiscard]] binary::Image rewrite_calls_software(
    const binary::Image& image, SoftwareRewriteStats* stats = nullptr);

/// Recovers the CFG of an original-layout image and analyzes it under
/// `return_policy`. Throws std::invalid_argument when `image` is already
/// randomized.
[[nodiscard]] Program prepare(
    binary::Image image,
    ReturnPolicy return_policy = ReturnPolicy::kArchitectural);

/// Draws the placement for `options.seed` and emits the VCFR image (its
/// tables.rand holds the placement); the result is byte-identical to randomize(program.image, options).vcfr.
/// `options.return_policy` must be the policy `program` was prepared with,
/// and `options.return_option` must be kArchitectural (the software rewrite
/// changes the binary itself: prepare its rewrite_calls_software() output
/// under ReturnPolicy::kNone instead). Throws std::invalid_argument
/// otherwise or when the options are inconsistent.
[[nodiscard]] binary::Image place(const Program& program,
                                  const RandomizeOptions& options = {});

/// Checks that `image` is a placement of `program` under `options` — for
/// kFullSpread, one an incremental re-randomization firing can patch; the
/// invariants a restored checkpoint must hold before it runs again:
///  * the code, data, relocations and failover set are the program's, and
///    the randomized region, derand granule and table region are the ones
///    place() sizes;
///  * the rand keys are exactly the program's movable instructions;
///  * kFullSpread: every rand value lies in the slot pool and no two share
///    a slot; kPageConfined: every instruction lies inside its own page's
///    region (rand_base + page * 4160, 4160 bytes);
///  * no two placed instructions overlap;
///  * derand inverts rand (derand[rand[o]] == o), and every other derand
///    key (a forced-quiescence alias) lies in the region and names a placed
///    instruction.
/// The derand entry at `exempt` (a fault injector's flipped table value)
/// is exempt from the inversion checks. Returns the first violation, or an
/// empty string. Throws std::invalid_argument for kFullSpread with
/// slot_bytes 0.
[[nodiscard]] std::string check_placement(
    const Program& program, const binary::Image& image,
    const RandomizeOptions& options,
    std::optional<uint32_t> exempt = std::nullopt);

/// Checks the code bytes a process of `image` executes: every referring
/// site in program.rerand (a direct transfer, kPushI or proven code-pointer
/// mov), decoded from `mem` at its original address, must be the program's
/// instruction with its immediate at its target's current placement,
/// image.tables.to_randomized(target). A site covering the byte at
/// `exempt` (a fault injector's flipped code byte) is exempt. Returns the
/// first violation, naming the site, or an empty string.
[[nodiscard]] std::string check_referring_sites(
    const Program& program, const binary::Image& image,
    const binary::Memory& mem, std::optional<uint32_t> exempt = std::nullopt);

/// Randomizes an original-layout image: prepare + place. Throws
/// std::invalid_argument when `image` is already randomized or options are
/// inconsistent.
[[nodiscard]] RandomizeResult randomize(const binary::Image& image,
                                        const RandomizeOptions& options = {});

/// The naive-ILR image of a placement: `vcfr` (its code, remapped
/// immediates, data and tables) with layout kNaiveIlr, so that every
/// instruction is loaded and runs at its randomized address. Throws
/// std::invalid_argument unless `vcfr` is a VCFR image.
[[nodiscard]] binary::Image naive_ilr(const binary::Image& vcfr);

}  // namespace vcfr::rewriter
