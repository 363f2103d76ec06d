// Quickstart: the whole VCFR pipeline on a small program.
//
//   1. assemble VX source into an original-layout image;
//   2. randomize it (producing a naive-ILR image and a VCFR image with
//      translation tables);
//   3. run all three on the golden-model emulator (identical outputs);
//   4. run all three on the cycle simulator and compare IPC/IL1 behaviour.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "emu/emulator.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "rewriter/randomizer.hpp"
#include "sim/cpu.hpp"

namespace {

constexpr const char* kSource = R"(
  .name quickstart
  .entry main
  .data 0x10000000
  table:
    .ptr double_it
    .ptr square_it
  .text
  .func main
  main:
    mov r1, 9
    mov r5, @table
    ld r6, [r5]        ; function pointer: double_it
    callr r6
    out r1             ; 18
    ld r6, [r5+4]      ; square_it
    callr r6
    out r1             ; 324
    call sum_to_ten
    out r2             ; 55
    halt
  .func double_it
  double_it:
    add r1, r1
    ret
  .func square_it
  square_it:
    mul r1, r1
    ret
  .func sum_to_ten
  sum_to_ten:
    mov r2, 0
    mov r3, 1
  loop:
    add r2, r3
    add r3, 1
    cmp r3, 10
    jle loop
    ret
)";

void show(const char* tag, const vcfr::emu::RunResult& r) {
  std::printf("  %-9s halted=%d output=[", tag, r.halted);
  for (size_t i = 0; i < r.output.size(); ++i) {
    std::printf("%s%u", i ? ", " : "", r.output[i]);
  }
  std::printf("] instructions=%llu\n",
              static_cast<unsigned long long>(r.stats.instructions));
}

void show_sim(const char* tag, const vcfr::sim::SimResult& r) {
  std::printf("  %-9s IPC=%.3f cycles=%llu IL1-miss=%.2f%% DRC-lookups=%llu\n",
              tag, r.ipc(), static_cast<unsigned long long>(r.cycles),
              100 * r.il1.miss_rate(),
              static_cast<unsigned long long>(r.drc.lookups));
}

}  // namespace

int main() {
  using namespace vcfr;

  std::printf("== 1. assemble\n");
  const binary::Image original = isa::assemble(kSource);
  std::printf("%zu code bytes at 0x%x, %zu relocations\n\n",
              original.code.size(), original.code_base,
              original.relocs.size());
  std::printf("first instructions:\n%s\n",
              isa::listing(original).substr(0, 240).c_str());

  std::printf("== 2. randomize (seed 42)\n");
  rewriter::RandomizeOptions opts;
  opts.seed = 42;
  const rewriter::RandomizeResult rr = rewriter::randomize(original, opts);
  const binary::Image naive = rewriter::naive_ilr(rr.vcfr);
  std::printf("relocated %zu instructions into [0x%x, 0x%x); "
              "%zu derand + %zu rand table entries\n\n",
              rr.vcfr.tables.rand.size(), rr.vcfr.rand_base,
              rr.vcfr.rand_base + rr.vcfr.rand_size,
              rr.vcfr.tables.derand.size(), rr.vcfr.tables.rand.size());

  std::printf("== 3. golden-model emulation (outputs must match)\n");
  show("original", emu::run_image(original));
  show("naive", emu::run_image(naive));
  show("vcfr", emu::run_image(rr.vcfr));

  std::printf("\n== 4. cycle simulation\n");
  show_sim("original", sim::simulate(original, 1'000'000));
  show_sim("naive", sim::simulate(naive, 1'000'000));
  show_sim("vcfr", sim::simulate(rr.vcfr, 1'000'000));

  std::printf("\nDone. See DESIGN.md for the architecture and bench/ for the"
              " paper's experiments.\n");
  return 0;
}
