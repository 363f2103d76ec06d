// Seeded byte-level mutations shared by the persisted-format fuzzers
// (VXE images, checkpoints, the latency CSV and the journal JSONL).
#pragma once

#include <cstdint>
#include <string>

namespace vcfr {

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// One mutation within the first `span` bytes (0 < span <= size): a single
/// bit flip, a truncation, or a burst of four byte overwrites. Each kind
/// draws the value before the position, so a fuzzer's seed keeps
/// replaying the mutation sequence it always has.
inline std::string mutate(std::string bytes, size_t span, SplitMix64& rng) {
  switch (rng.next() % 3) {
    case 0: {  // single bit flip
      const auto bit = static_cast<char>(1u << (rng.next() % 8));
      bytes[rng.next() % span] ^= bit;
      break;
    }
    case 1:  // truncation
      bytes.resize(rng.next() % span);
      break;
    default:  // burst: four byte overwrites
      for (int i = 0; i < 4; ++i) {
        const auto value = static_cast<char>(rng.next());
        bytes[rng.next() % span] = value;
      }
      break;
  }
  return bytes;
}

}  // namespace vcfr
