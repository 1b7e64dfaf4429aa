// Deterministic pseudo-random number generation for the simulator.
//
// All stochastic behaviour in the simulated datacenter derives from one
// seeded generator (xoshiro256++), so every experiment is reproducible
// bit-for-bit from its seed.

#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cstdint>

namespace bolted::sim {

// splitmix64's output function: a bijective 64-bit mix with full
// avalanche.  Seeds the Rng, derives per-rack and per-fault-stream seeds
// from a scenario seed, and hashes frame tags.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15u;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9u;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebu;
  return x ^ (x >> 31);
}

// One step of a trace digest.  Order-sensitive, so a digest pins the
// exact sequence of folded values and not just their multiset.
inline uint64_t MixDigest(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15u + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9u;
  h ^= h >> 27;
  return h;
}

// xoshiro256++ generator with splitmix64 seeding.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x626f6c746564u);  // "bolted"

  uint64_t NextU64();
  // Uniform in [0, bound).  bound must be nonzero.
  uint64_t NextBelow(uint64_t bound);
  // Uniform in [0, 1).
  double NextDouble();
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  // Exponential with the given mean (> 0).
  double Exponential(double mean);
  // Fork a stream that is decorrelated from this one; used to give each
  // simulated component its own generator while preserving determinism.
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace bolted::sim

#endif  // SRC_SIM_RANDOM_H_
