// Live re-randomization demo (§V-C): a long-running "service" process is
// re-randomized *while it runs*, every few requests, without dropping
// state — and an attacker's leaked layout knowledge expires at each epoch.
//
//   epoch 0: attacker leaks a gadget address from the current tables
//   epoch 1: the same address no longer names anything executable
//
// The §IV-C stack bitmap is what makes the swap tractable: it points at
// exactly the words holding randomized return addresses.
#include <cstdio>

#include "emu/rerandomize.hpp"
#include "gadget/scanner.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"

namespace {

// The service: an accumulator loop where each "request" is a batch of
// work ending in an `out` (the response).
constexpr const char* kService = R"(
  .name service
  .entry main
  .func main
  main:
    mov r9, 0          ; request counter
  serve:
    mov r1, r9
    add r1, 3
    call handle
    out r2             ; respond
    add r9, 1
    cmp r9, 12
    jlt serve
    halt
  .func handle
  handle:
    mov r2, 1
    mov r3, r1
  work:
    mul r2, r3
    and r2, 1048575
    sub r3, 1
    cmp r3, 0
    jgt work
    ret
)";

}  // namespace

int main() {
  using namespace vcfr;
  const auto original = isa::assemble(kService);
  const auto golden = emu::run_image(original);
  std::printf("service responses (un-randomized reference): ");
  for (uint32_t v : golden.output) std::printf("%u ", v);
  std::printf("\n\n");

  // Boot epoch 0.
  rewriter::RandomizeOptions opts;
  opts.seed = 100;
  auto cur_rr = rewriter::randomize(original, opts);
  binary::Memory mem;
  binary::load(cur_rr.vcfr, mem);
  auto emu_ptr = std::make_unique<emu::Emulator>(cur_rr.vcfr, mem);
  emu_ptr->set_enforce_tags(true);

  std::vector<rewriter::RandomizeResult> epochs;
  uint32_t leaked_epoch0 = 0;
  int epoch = 0;

  // Serve: step until halted, re-randomizing every ~120 instructions
  // (a few requests per epoch).
  uint64_t since_swap = 0;
  while (!emu_ptr->halted() && emu_ptr->error().empty()) {
    if (!emu_ptr->step()) break;
    ++since_swap;
    if (epoch == 0 && leaked_epoch0 == 0 &&
        cur_rr.vcfr.tables.is_randomized_addr(emu_ptr->state().pc)) {
      leaked_epoch0 = emu_ptr->state().pc;  // the attacker's side channel
    }
    if (since_swap >= 120 && !emu_ptr->halted()) {
      since_swap = 0;
      ++epoch;
      rewriter::RandomizeOptions fresh;
      fresh.seed = 100 + static_cast<uint64_t>(epoch);
      epochs.push_back(rewriter::randomize(original, fresh));
      emu::LiveRerandomizeStats stats;
      emu_ptr = emu::rerandomize_live(*emu_ptr, mem, cur_rr.vcfr,
                                      epochs.back().vcfr, &stats);
      emu_ptr->set_enforce_tags(true);
      cur_rr = epochs.back();
      std::printf("epoch %d: re-randomized live (%u stack slots, %u table "
                  "slots re-translated; PC moved: %s)\n",
                  epoch, stats.stack_slots_translated,
                  stats.reloc_slots_patched,
                  stats.pc_translated ? "yes" : "no");
    }
  }

  std::printf("\nservice responses across %d epochs:        ", epoch + 1);
  for (uint32_t v : emu_ptr->output()) std::printf("%u ", v);
  const bool same = emu_ptr->output() == golden.output;
  std::printf("\nresponses identical to reference: %s\n",
              same ? "YES" : "NO (bug!)");

  // The attacker replays their epoch-0 knowledge against the final epoch.
  std::printf("\nattacker's leaked epoch-0 address 0x%x: ", leaked_epoch0);
  if (cur_rr.vcfr.tables.is_randomized_addr(leaked_epoch0)) {
    std::printf("still maps (unlucky collision)\n");
  } else {
    std::printf("maps to nothing in epoch %d — knowledge expired (SV-C)\n",
                epoch);
  }
  return same ? 0 : 1;
}
