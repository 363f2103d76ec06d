// The placement draw's random engine: MT19937-64 (Matsumoto & Nishimura),
// the generator std::mt19937_64 specifies, with the same seeding, twist and
// tempering, so it returns the same values for the same seed and every
// std::shuffle or `rng() % n` over it draws what the standard engine would.
// Every pinned image and report depends on that sequence.
//
// It exists for speed: the twist selects its matrix term with a mask of
// the word's low bit rather than a conditional on it (the bit is random, so
// a branch there mispredicts about half the time), and the whole engine is
// inline. About 2.3 ns a draw against 7.7-8.1 for libstdc++'s engine
// (GCC 12.2 -O3, x86-64).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace vcfr::rewriter {

class Mt19937_64 {
 public:
  using result_type = uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  explicit Mt19937_64(uint64_t seed) {
    x_[0] = seed;
    for (size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    if (i_ == kN) twist();
    uint64_t z = x_[i_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kN = 312;
  static constexpr size_t kM = 156;
  static constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  static constexpr uint64_t kLower = ~kUpper;

  /// x[i] becomes x[i + m] ^ twist(upper bits of x[i], lower of x[i + 1]),
  /// indices mod n.
  static uint64_t mix(uint64_t hi, uint64_t lo, uint64_t far) {
    const uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
  }

  void twist() {
    size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) x_[k] = mix(x_[k], x_[k + 1], x_[k + kM - kN]);
    x_[kN - 1] = mix(x_[kN - 1], x_[0], x_[kM - 1]);
    i_ = 0;
  }

  std::array<uint64_t, kN> x_{};
  size_t i_ = kN;  // the next word to temper; kN: twist first
};

}  // namespace vcfr::rewriter
