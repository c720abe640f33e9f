// Deterministic pseudo-random number generation.
//
// All stochastic components of the reproduction (synthetic scan noise,
// property-test workloads) draw from this splitmix64-based generator so
// that every experiment is bit-reproducible from a seed, independent of
// the standard library implementation.
#pragma once

#include <cstdint>

namespace omu::geom {

/// The splitmix64 output finaliser: a bijection on 64 bits with full
/// avalanche (also the per-record mixer of map::leaf_set_hash).
constexpr uint64_t splitmix64_mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// splitmix64: tiny, fast, high-quality 64-bit PRNG (Steele et al.).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(uint64_t seed) : state_(seed) {}

  constexpr uint64_t next_u64() {
    state_ += 0x9E3779B97F4A7C15ULL;
    return splitmix64_mix(state_);
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

  /// Uniform integer in [0, n). Precondition: n > 0.
  constexpr uint64_t next_below(uint64_t n) { return next_u64() % n; }

  /// Approximately normal variate via sum of uniforms (Irwin-Hall, k=12);
  /// adequate for sensor-noise simulation and dependency-free.
  constexpr double normal(double mean, double stddev) {
    double s = 0.0;
    for (int i = 0; i < 12; ++i) s += next_double();
    return mean + (s - 6.0) * stddev;
  }

 private:
  uint64_t state_;
};

}  // namespace omu::geom
