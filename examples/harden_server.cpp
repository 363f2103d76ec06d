// End-to-end ROP attack-and-defense demo (the paper's §V-A scenario: a
// remote attacker subverts a service by sending malicious data).
//
// The "server" is the shared vulnerable request handler from
// workloads/wl_server.hpp (the same program the serving subsystem in
// src/serve/ drives under load): its handler copies a client-controlled
// number of bytes into a 64-byte stack buffer. The attacker (this file)
// plays by the paper's threat model — they know the *distributed* binary
// but cannot see the randomized image:
//
//   1. scan the distributed binary for gadgets (our ROPgadget);
//   2. build a request whose overflow overwrites the return address with a
//      chain:  pop r0; ret  ->  0xdead  ->  sys 1; ret
//      so the server emits the attacker's marker (stand-in for a shell);
//   3. send it to the un-randomized server: the marker appears (pwned);
//   4. send the same request to the VCFR-randomized server with the
//      randomized-tag protection on: the transfer to the gadget's original
//      address faults (attack blocked); the naive-ILR server faults too
//      (the bytes moved);
//   5. a legitimate request keeps working on every variant.
#include <cstdio>

#include "binary/loader.hpp"
#include "emu/emulator.hpp"
#include "gadget/scanner.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/wl_server.hpp"

namespace {

using vcfr::workloads::kServerMarker;
using vcfr::workloads::kServerRequestBase;

struct ServeResult {
  bool served = false;   // normal completion
  bool pwned = false;    // attacker marker appeared in the output
  std::string fault;
};

ServeResult serve(const vcfr::binary::Image& image,
                  const std::vector<uint8_t>& request, bool enforce_tags) {
  vcfr::binary::Memory mem;
  vcfr::binary::load(image, mem);
  for (size_t i = 0; i < request.size(); ++i) {
    mem.write8(kServerRequestBase + static_cast<uint32_t>(i), request[i]);
  }
  vcfr::emu::Emulator emulator(image, mem);
  emulator.set_enforce_tags(enforce_tags);
  vcfr::emu::RunLimits limits;
  limits.max_instructions = 1'000'000;
  const auto r = emulator.run(limits);
  ServeResult out;
  out.served = r.halted;
  out.fault = r.error;
  for (uint32_t v : r.output) {
    if (v == kServerMarker) out.pwned = true;
  }
  return out;
}

void report(const char* label, const ServeResult& r) {
  if (r.pwned) {
    std::printf("  %-22s ATTACKER SHELL (marker 0x%x emitted)\n", label,
                kServerMarker);
  } else if (!r.fault.empty()) {
    std::printf("  %-22s attack stopped: %s\n", label, r.fault.c_str());
  } else if (r.served) {
    std::printf("  %-22s served normally\n", label);
  } else {
    std::printf("  %-22s hung / killed\n", label);
  }
}

}  // namespace

int main() {
  using namespace vcfr;

  const binary::Image server = workloads::make_server();

  // --- the attacker studies the distributed binary ------------------------
  const auto pool = gadget::scan(server);
  uint32_t pop_gadget = 0, sys_gadget = 0;
  for (const auto& g : pool.gadgets) {
    if (g.kind == gadget::GadgetKind::kPopReg && g.instrs.front().rd == 0 &&
        pop_gadget == 0) {
      pop_gadget = g.addr;
    }
    if (g.kind == gadget::GadgetKind::kSys && sys_gadget == 0) {
      sys_gadget = g.addr;
    }
  }
  std::printf("attacker found %zu gadgets; using pop-r0 @0x%x and sys @0x%x\n\n",
              pool.gadgets.size(), pop_gadget, sys_gadget);
  if (pop_gadget == 0 || sys_gadget == 0) {
    std::printf("gadget hunt failed — demo aborted\n");
    return 1;
  }

  const auto exploit = workloads::build_exploit_request(pop_gadget, sys_gadget);
  const auto benign =
      workloads::frame_request({'h', 'e', 'l', 'l', 'o'});

  // --- deploy three server variants ----------------------------------------
  rewriter::RandomizeOptions opts;
  opts.seed = 0xfeedface;
  const auto rr = rewriter::randomize(server, opts);
  const auto naive = rewriter::naive_ilr(rr.vcfr);

  std::printf("== benign request\n");
  report("original", serve(server, benign, false));
  report("naive-ILR", serve(naive, benign, false));
  report("VCFR (tags on)", serve(rr.vcfr, benign, true));

  std::printf("\n== malicious request (ROP chain)\n");
  const auto r_orig = serve(server, exploit, false);
  report("original", r_orig);
  const auto r_naive = serve(naive, exploit, false);
  report("naive-ILR", r_naive);
  const auto r_vcfr = serve(rr.vcfr, exploit, true);
  report("VCFR (tags on)", r_vcfr);

  const bool demo_ok = r_orig.pwned && !r_naive.pwned && !r_vcfr.pwned;
  std::printf("\n%s\n", demo_ok
                            ? "Demo result: exploit works un-randomized, "
                              "blocked by both randomized variants."
                            : "Demo result: UNEXPECTED — see above.");
  return demo_ok ? 0 : 1;
}
