#include "common/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/error.hpp"

namespace qkdpp {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // All-zero state is the one invalid state; splitmix makes it (practically)
  // unreachable, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256::next_u64() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::uniform(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method.
  if (bound == 0) return 0;
  using u128 = unsigned __int128;
  std::uint64_t x = next_u64();
  u128 m = static_cast<u128>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<u128>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint32_t Xoshiro256::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    double prod = next_double();
    std::uint32_t n = 0;
    while (prod > limit) {
      prod *= next_double();
      ++n;
    }
    return n;
  }
  const double v = mean + std::sqrt(mean) * normal();
  return v <= 0.0 ? 0u : static_cast<std::uint32_t>(std::lround(v));
}

double Xoshiro256::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = next_double();
  while (u1 <= 1e-300) u1 = next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

BitVec Xoshiro256::random_bits(std::size_t nbits) noexcept {
  BitVec v(nbits);
  auto words = v.mutable_words();
  for (auto& w : words) w = next_u64();
  // Restore the tail invariant the raw word fill just violated.
  v.resize(nbits);
  return v;
}

std::vector<std::uint32_t> Xoshiro256::permutation(std::size_t n) noexcept {
  std::vector<std::uint32_t> p;
  permutation(n, p);
  return p;
}

// Instantiates shuffle here, beside uniform() and next_u64(), so the
// compiler can inline them into the loop: a shuffle instantiated in another
// translation unit calls uniform() once per element and ran up to twice as
// slow on a 35k-element Cascade permutation.
void Xoshiro256::permutation(std::size_t n, std::vector<std::uint32_t>& out) {
  out.resize(n);
  std::iota(out.begin(), out.end(), 0u);
  shuffle(std::span<std::uint32_t>(out));
}

std::vector<std::uint32_t> Xoshiro256::sample_without_replacement(
    std::size_t n, std::size_t k) {
  QKDPP_REQUIRE(k <= n, "cannot sample more than population");
  if (k == 0) return {};
  // For small k relative to n use rejection against a hash set; otherwise a
  // partial Fisher-Yates over the full index range.
  std::vector<std::uint32_t> out;
  out.reserve(k);
  if (k * 20 < n) {
    std::unordered_set<std::uint32_t> seen;
    seen.reserve(k * 2);
    while (out.size() < k) {
      const auto candidate = static_cast<std::uint32_t>(uniform(n));
      if (seen.insert(candidate).second) out.push_back(candidate);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  std::vector<std::uint32_t> pool(n);
  std::iota(pool.begin(), pool.end(), 0u);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform(n - i));
    std::swap(pool[i], pool[j]);
  }
  // Read the chosen prefix back in ascending order through a bitmap: the
  // set is at least a twentieth of [0, n), so n/64 words beat a sort.
  BitVec chosen(n);
  auto words = chosen.mutable_words();
  for (std::size_t i = 0; i < k; ++i) {
    words[pool[i] >> 6] |= std::uint64_t{1} << (pool[i] & 63);
  }
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<std::uint32_t>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  }
  return out;
}

}  // namespace qkdpp
