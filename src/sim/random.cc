#include "src/sim/random.h"

#include <cmath>

namespace bolted::sim {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15u;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9u;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebu;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::Exponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace bolted::sim
