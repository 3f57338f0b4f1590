#include "util/rng.hpp"

namespace overcount {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  OVERCOUNT_EXPECTS(lo <= hi);
  const auto range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(uniform_below(range));
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

Rng Rng::split() noexcept {
  std::uint64_t s = next();
  return Rng(splitmix64(s));
}

}  // namespace overcount
