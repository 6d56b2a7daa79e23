// Deterministic pseudo-random number generation for the simulator.
//
// All stochastic components (trace generation, filer fast/slow read choice,
// SSD latency noise) draw from explicitly seeded Rng instances so that every
// simulation run is exactly reproducible. The generator is xoshiro256**,
// seeded via SplitMix64; both are public-domain algorithms by Blackman and
// Vigna with excellent statistical quality and ~1 ns/draw throughput.
#ifndef FLASHSIM_SRC_UTIL_RNG_H_
#define FLASHSIM_SRC_UTIL_RNG_H_

#include <cstdint>

namespace flashsim {

// SplitMix64 step; used for seeding and as a cheap hash.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Stateless mix of a 64-bit value; used to derive independent substream
// seeds from (base_seed, stream_id) pairs.
inline uint64_t Mix64(uint64_t x) {
  uint64_t s = x;
  return SplitMix64(s);
}

// Deterministic flash-noise substream seeds, in the ShardSeed golden-ratio
// family with their own domain tag (0xf1a5, "FLAS"): one stream per
// (base_seed, host), and within a stream one independent draw key per
// per-host operation counter. A flash latency draw keyed this way is a
// pure function of the host's own history, so no host's draws depend on
// another host's traffic.
inline uint64_t FlashStreamSeed(uint64_t base_seed, int host) {
  return Mix64((base_seed ^ 0xf1a5ULL) +
               0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(host));
}

inline uint64_t FlashDrawSeed(uint64_t stream_seed, uint64_t draw_index) {
  return Mix64(stream_seed + 0x9e3779b97f4a7c15ULL * draw_index);
}

// xoshiro256** PRNG. Satisfies the C++ UniformRandomBitGenerator concept so
// it can also back <random> distributions where convenient.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x5eed5eed5eedULL) { Seed(seed); }

  // Re-seeds the generator; identical seeds produce identical streams.
  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  uint64_t operator()() { return Next(); }

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

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, bound). Lemire's nearly-divisionless method.
  uint64_t NextBounded(uint64_t bound) {
    if (bound <= 1) {
      return 0;
    }
    // 128-bit multiply-shift; rejection keeps the result exactly uniform.
    for (;;) {
      const uint64_t x = Next();
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      const uint64_t low = static_cast<uint64_t>(m);
      if (low >= bound || low >= (-bound) % bound) {
        return static_cast<uint64_t>(m >> 64);
      }
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t NextRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  // Bernoulli draw with success probability p.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace flashsim

#endif  // FLASHSIM_SRC_UTIL_RNG_H_
