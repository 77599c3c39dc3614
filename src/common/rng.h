// Deterministic pseudo-random number generation.
//
// Every stochastic component (model generator, latency models, workload
// generators) takes an explicit seed so simulations replay bit-identically.
// The generator is xoshiro256** seeded via SplitMix64 — fast, high quality,
// and stable across platforms (unlike std:: distributions, whose outputs are
// implementation-defined; we implement our own distributions).
#ifndef FSD_COMMON_RNG_H_
#define FSD_COMMON_RNG_H_

#include <cstdint>

namespace fsd {

/// splitmix64 finalizer: one SplitMix64 step from state `x`. Spreads
/// structured keys (pair ids, chunk seeds) into uniform, independent bits.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from a single 64-bit value.
  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound) using Lemire rejection; bound > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic pairing).
  double NextGaussian();

  /// Lognormal with the given log-space mu/sigma.
  double NextLogNormal(double mu, double sigma);

  /// Exponential with the given mean (> 0).
  double NextExponential(double mean);

  /// Bernoulli draw with probability p.
  bool NextBool(double p);

  /// Derives an independent child generator; stable for a given (seed, tag).
  Rng Fork(uint64_t tag) const;

 private:
  uint64_t s_[4];
  uint64_t origin_seed_ = 0;
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace fsd

#endif  // FSD_COMMON_RNG_H_
