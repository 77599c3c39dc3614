#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace fsd {
namespace {

inline uint64_t SplitMix64(uint64_t& state) {
  const uint64_t z = Mix64(state);
  state += 0x9E3779B97F4A7C15ULL;
  return z;
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Seed(uint64_t seed) {
  origin_seed_ = seed;
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  have_cached_gaussian_ = false;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  FSD_CHECK_GT(bound, 0u);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller; avoid log(0) by nudging u1 away from zero.
  double u1 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextLogNormal(double mu, double sigma) {
  return std::exp(mu + sigma * NextGaussian());
}

double Rng::NextExponential(double mean) {
  FSD_CHECK_GT(mean, 0.0);
  double u = NextDouble();
  if (u < 1e-300) u = 1e-300;
  return -mean * std::log(u);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

Rng Rng::Fork(uint64_t tag) const {
  // Mix the origin seed with the tag through SplitMix64 for independence.
  uint64_t st = origin_seed_ ^ (tag * 0xD6E8FEB86659FD93ULL + 1);
  uint64_t mixed = SplitMix64(st);
  return Rng(mixed);
}

}  // namespace fsd
