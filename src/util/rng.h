// Deterministic pseudo-random number generation.
//
// All randomized components of the library (graph generators, workload
// samplers, landmark selection) take an explicit seed and route through this
// class so that every experiment is reproducible bit-for-bit.

#ifndef QBS_UTIL_RNG_H_
#define QBS_UTIL_RNG_H_

#include <cstdint>
#include <limits>

#include "util/check.h"

namespace qbs {

// The SplitMix64 step: adds the golden-ratio increment to `x` and returns
// the mixed result. A stateless mixer for seeded streams that must be a
// pure function of their inputs (retry jitter, fault injection), and the
// seed expansion of Rng below.
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;
inline constexpr uint64_t SplitMix64(uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// SplitMix64-seeded xoshiro256** generator. Small, fast, and with
// well-understood statistical quality; avoids the implementation-defined
// behaviour of std::default_random_engine across standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    for (auto& s : state_) {
      s = SplitMix64(seed);
      seed += kSplitMix64Gamma;
    }
  }

  // Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  // nearly-divisionless technique.
  uint64_t UniformInt(uint64_t bound) {
    QBS_CHECK_GT(bound, 0u);
    unsigned __int128 m =
        static_cast<unsigned __int128>(Next()) * static_cast<unsigned __int128>(bound);
    auto lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(Next()) *
            static_cast<unsigned __int128>(bound);
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform real in [0, 1).
  double UniformReal() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Returns true with probability `p`.
  bool Bernoulli(double p) { return UniformReal() < p; }

  // Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void Shuffle(Container& c) {
    for (size_t i = c.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(UniformInt(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace qbs

#endif  // QBS_UTIL_RNG_H_
