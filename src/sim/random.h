// Deterministic pseudo-random number generation for the simulator.
//
// All stochastic behaviour in the simulated datacenter derives from one
// seeded generator (xoshiro256++), so every experiment is reproducible
// bit-for-bit from its seed.

#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cstdint>

namespace bolted::sim {

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
