// Deterministic random number generation for tests and workload synthesis.
#pragma once

#include <cstdint>
#include <random>

#include "support/types.hpp"

namespace pt {

/// Thin wrapper over a fixed-seed Mersenne engine so every test and workload
/// generator is reproducible run-to-run (required for checkpoint round-trip
/// and property tests).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : eng_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(eng_);
  }

  /// Uniform real in [lo, hi).
  Real uniform(Real lo = 0.0, Real hi = 1.0) {
    return std::uniform_real_distribution<Real>(lo, hi)(eng_);
  }

  bool bernoulli(Real p) { return std::bernoulli_distribution(p)(eng_); }

  std::mt19937_64& engine() { return eng_; }

 private:
  std::mt19937_64 eng_;
};

}  // namespace pt
