// Deterministic, splittable pseudo-random number generation.
//
// All randomness in the library flows through Rng so that every experiment is
// reproducible from a single 64-bit seed. The generator is xoshiro256++
// (Blackman & Vigna), seeded through splitmix64 as its authors recommend.
// Rng::split() derives an independent stream, which lets concurrent
// components (nodes, protocols, scenario drivers) draw without coupling their
// sequences.
//
// The per-step draws (next, uniform, uniform_positive, uniform_below,
// exponential) are defined inline below: the walk kernels draw once or twice
// per step of a few nanoseconds, where a call would be a visible share.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "util/contracts.hpp"

namespace overcount {

/// splitmix64 step; used for seeding and for stream derivation.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ PRNG with convenience distributions.
///
/// Satisfies std::uniform_random_bit_generator, so it can also be plugged
/// into <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state via splitmix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [0, 1); never returns exactly 0 (safe for log()).
  double uniform_positive() noexcept {
    double u;
    do {
      u = uniform();
    } while (u == 0.0);
    return u;
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
  /// (Lemire's multiply-shift with rejection).
  std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential variate with the given rate (mean 1/rate). Requires rate>0.
  double exponential(double rate) {
    OVERCOUNT_EXPECTS(rate > 0.0);
    return -std::log(uniform_positive()) / rate;
  }

  /// Bernoulli trial with success probability p in [0,1].
  bool bernoulli(double p) noexcept;

  /// Derives an independent generator; deterministic given this Rng's state.
  /// The parent's state advances, so successive split() calls yield distinct
  /// children.
  Rng split() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

}  // namespace overcount
