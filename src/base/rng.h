// Deterministic random number generation.
//
// Every stochastic component of the simulation draws from an Rng that is
// seeded from a single study-level seed, so that a run is exactly
// reproducible. Rng is a thin wrapper over a 64-bit SplitMix/xoshiro-style
// generator with convenience draws used throughout the workload models.

#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cstddef>
#include <cstdint>

namespace ntrace {

// xoshiro256** with SplitMix64 seeding. Not cryptographic; fast and
// high-quality enough for workload synthesis.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform real in [lo, hi).
  double UniformReal(double lo, double hi);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Standard normal via Box-Muller (no cached spare; stateless draws).
  double NextGaussian();

  // Derive an independent child generator (for per-component streams).
  Rng Fork();

 private:
  uint64_t s_[4] = {};
};

}  // namespace ntrace

#endif  // SRC_BASE_RNG_H_
