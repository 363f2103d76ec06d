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

  // Boot epoch 0. Every later epoch re-places this one image in place, so
  // the same emulator keeps serving across all of them.
  const rewriter::Program program = rewriter::prepare(original);
  rewriter::RandomizeOptions opts;
  opts.seed = 100;
  binary::Image image = rewriter::place(program, opts);
  binary::Memory mem;
  binary::load(image, mem);
  emu::Emulator emu(image, mem);
  emu.set_enforce_tags(true);

  uint32_t leaked_epoch0 = 0;
  int epoch = 0;

  // Serve: step until halted, re-randomizing every ~120 instructions
  // (a few requests per epoch).
  uint64_t since_swap = 0;
  while (!emu.halted() && emu.error().empty()) {
    if (!emu.step()) break;
    ++since_swap;
    if (epoch == 0 && leaked_epoch0 == 0 &&
        image.tables.is_randomized_addr(emu.state().pc)) {
      leaked_epoch0 = emu.state().pc;  // the attacker's side channel
    }
    if (since_swap >= 120 && !emu.halted()) {
      since_swap = 0;
      ++epoch;
      emu::RerandOptions next;
      next.placement.seed = 100 + static_cast<uint64_t>(epoch);
      emu::RerandStats stats;
      // Only a pinned (register-held) address can make a firing defer, and
      // this demo pins none.
      if (!emu::rerandomize_full(program, image, mem, emu, next, &stats)) {
        return 1;
      }
      std::printf("epoch %d: re-randomized live (%u stack slots, %u table "
                  "slots re-translated; PC moved: %s)\n",
                  epoch, stats.stack_slots_translated,
                  stats.reloc_slots_patched,
                  stats.pc_translated ? "yes" : "no");
    }
  }

  std::printf("\nservice responses across %d epochs:        ", epoch + 1);
  for (uint32_t v : emu.output()) std::printf("%u ", v);
  const bool same = emu.output() == golden.output;
  std::printf("\nresponses identical to reference: %s\n",
              same ? "YES" : "NO (bug!)");

  // The attacker replays their epoch-0 knowledge against the final epoch.
  std::printf("\nattacker's leaked epoch-0 address 0x%x: ", leaked_epoch0);
  if (image.tables.is_randomized_addr(leaked_epoch0)) {
    std::printf("still maps (unlucky collision)\n");
  } else {
    std::printf("maps to nothing in epoch %d — knowledge expired (SV-C)\n",
                epoch);
  }
  return same ? 0 : 1;
}
