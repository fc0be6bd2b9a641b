#include "reconcile/parity_oracle.hpp"

#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::reconcile {

namespace {

/// The shuffled permutation of pass >= 1 into `perm`, reusing its capacity.
void shuffle_pass(std::size_t n, std::uint64_t seed, std::uint32_t pass,
                  std::vector<std::uint32_t>& perm) {
  // Mix the pass into the seed (splitmix-style odd constants) so passes are
  // independent permutations.
  Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ULL * (pass + 1)));
  rng.permutation(n, perm);
}

/// Bit j+1 of the result is the parity of bits [0, j] of `key`.
BitVec prefix_parities(const BitVec& key) {
  const std::size_t n = key.size();
  BitVec prefix(n + 1);
  const auto in = key.words();
  const auto out = prefix.mutable_words();
  std::uint64_t carry = 0;  // parity of all earlier words, as 0 or ~0
  for (std::size_t w = 0; w < in.size(); ++w) {
    std::uint64_t x = in[w];
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x ^= carry;
    out[w] |= x << 1;
    if (w + 1 < out.size()) out[w + 1] |= x >> 63;
    carry = std::uint64_t{0} - (x >> 63);
  }
  // The scan carried the total parity into the padding above bit n.
  prefix.resize(n + 1);
  return prefix;
}

}  // namespace

std::vector<std::uint32_t> cascade_permutation(std::size_t n,
                                               std::uint64_t seed,
                                               std::uint32_t pass) {
  std::vector<std::uint32_t> perm;
  if (pass == 0) {
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), 0u);
  } else {
    shuffle_pass(n, seed, pass, perm);
  }
  return perm;
}

CascadePermutations cascade_permutations(std::size_t n, std::uint64_t seed,
                                         std::uint32_t passes) {
  CascadePermutations permutations;
  fill_cascade_permutations(n, seed, passes, permutations);
  return permutations;
}

void fill_cascade_permutations(std::size_t n, std::uint64_t seed,
                               std::uint32_t passes,
                               CascadePermutations& out) {
  out.resize(passes);
  if (passes > 0) out[0].clear();  // pass 0, the identity, is not stored
  for (std::uint32_t pass = 1; pass < passes; ++pass) {
    shuffle_pass(n, seed, pass, out[pass]);
  }
}

CascadeResponder::CascadeResponder(
    const BitVec& alice_key,
    std::span<const std::vector<std::uint32_t>> permutations)
    : n_(alice_key.size()) {
  QKDPP_REQUIRE(!permutations.empty(), "cascade needs at least one pass");
  prefix_.reserve(permutations.size());
  QKDPP_REQUIRE(permutations[0].empty(),
                "pass 0 is the identity and takes no permutation");
  prefix_.push_back(prefix_parities(alice_key));
  for (std::size_t pass = 1; pass < permutations.size(); ++pass) {
    const auto& perm = permutations[pass];
    QKDPP_REQUIRE(perm.size() == n_, "permutation does not match key length");
    prefix_.push_back(prefix_parities(alice_key.gather(perm)));
  }
}

BitVec CascadeResponder::parities(std::uint32_t pass,
                                  std::span<const ParityRange> ranges) const {
  QKDPP_REQUIRE(pass < prefix_.size(), "pass out of range");
  const BitVec& prefix = prefix_[pass];
  BitVec out(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto [begin, end] = ranges[i];
    QKDPP_REQUIRE(begin <= end && end <= n_, "parity range out of bounds");
    if (prefix.get(begin) != prefix.get(end)) out.set(i, true);
  }
  return out;
}

}  // namespace qkdpp::reconcile
