#include "mec/random/rng.hpp"

#include <cmath>
#include <numbers>

namespace mec::random {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // An all-zero state is a fixed point of the transition; splitmix64 cannot
  // produce four zero words from any seed, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0)
    state_[0] = 1;
}

Xoshiro256 Xoshiro256::from_state(
    const std::array<std::uint64_t, 4>& words) noexcept {
  Xoshiro256 rng(0);
  rng.state_ = words;
  if (rng.state_[0] == 0 && rng.state_[1] == 0 && rng.state_[2] == 0 &&
      rng.state_[3] == 0)
    rng.state_[0] = 1;
  return rng;
}

Xoshiro256::result_type Xoshiro256::operator()() noexcept {
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

void Xoshiro256::long_jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kLongJump = {
      0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL, 0x77710069854EE241ULL,
      0x39109BB02ACBE635ULL};
  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (const std::uint64_t jump : kLongJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      (*this)();
    }
  }
  state_ = acc;
}

Xoshiro256 Xoshiro256::split() noexcept {
  Xoshiro256 child = *this;
  long_jump();  // advance parent past the child's stream
  return child;
}

double uniform01(Xoshiro256& rng) noexcept {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

double uniform(Xoshiro256& rng, double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01(rng);
}

double exponential(Xoshiro256& rng, double rate) noexcept {
  // 1 - U in (0, 1] avoids log(0).
  return -std::log1p(-uniform01(rng)) / rate;
}

double standard_normal(Xoshiro256& rng) noexcept {
  double u1 = uniform01(rng);
  while (u1 <= 0.0) u1 = uniform01(rng);
  const double u2 = uniform01(rng);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

bool bernoulli(Xoshiro256& rng, double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01(rng) < p;
}

std::uint64_t uniform_index(Xoshiro256& rng, std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  __extension__ typedef unsigned __int128 u128;
  std::uint64_t x = rng();
  u128 m = static_cast<u128>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = rng();
      m = static_cast<u128>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace mec::random
