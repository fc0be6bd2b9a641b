#include "privacy/toeplitz.hpp"

#include "common/clmul.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::privacy {

BitVec toeplitz_seed(std::uint64_t seed, std::size_t nbits) {
  Xoshiro256 rng(seed ^ 0x70e9117200fULL);
  return rng.random_bits(nbits);
}

namespace {

void check_shapes(const BitVec& input, const BitVec& seed,
                  std::size_t out_len) {
  QKDPP_REQUIRE(out_len > 0, "empty Toeplitz output");
  QKDPP_REQUIRE(!input.empty(), "empty Toeplitz input");
  QKDPP_REQUIRE(seed.size() == input.size() + out_len - 1,
                "Toeplitz seed length must be n + r - 1");
}

/// dest ^= window of `src` starting at bit `offset`, length = dest.size().
void xor_window(BitVec& dest, const BitVec& src, std::size_t offset) {
  const std::size_t nbits = dest.size();
  auto dest_words = dest.mutable_words();
  const auto src_words = src.words();
  const std::size_t shift = offset & 63;
  const std::size_t first = offset >> 6;
  const std::size_t n_words = dest_words.size();
  if (shift == 0) {
    for (std::size_t w = 0; w < n_words; ++w) {
      dest_words[w] ^= src_words[first + w];
    }
  } else {
    for (std::size_t w = 0; w < n_words; ++w) {
      std::uint64_t value = src_words[first + w] >> shift;
      if (first + w + 1 < src_words.size()) {
        value |= src_words[first + w + 1] << (64 - shift);
      }
      dest_words[w] ^= value;
    }
  }
  // Re-establish the tail invariant (the window may have brought in bits
  // beyond dest's logical length).
  const std::size_t tail = nbits & 63;
  if (tail != 0) dest_words[n_words - 1] &= (std::uint64_t{1} << tail) - 1;
}

}  // namespace

BitVec toeplitz_hash_direct(const BitVec& input, const BitVec& seed,
                            std::size_t out_len) {
  check_shapes(input, seed, out_len);
  const std::size_t n = input.size();
  BitVec out(out_len);
  // y_j = XOR_i x_i t[n-1+j-i]  =>  for each set x_i, XOR the window
  // t[n-1-i .. n-1-i+r) into y.
  for (std::size_t i = 0; i < n; ++i) {
    if (input.get(i)) xor_window(out, seed, n - 1 - i);
  }
  return out;
}

BitVec toeplitz_hash_clmul(const BitVec& input, const BitVec& seed,
                           std::size_t out_len) {
  check_shapes(input, seed, out_len);
  // y = (x conv t)[n-1 .. n-1+r): one word-level carry-less multiply, then
  // a word-sliced window copy.
  return gf2_poly_mul(input, seed).subvec(input.size() - 1, out_len);
}

BitVec toeplitz_hash(const BitVec& input, const BitVec& seed,
                     std::size_t out_len) {
  if (input.size() >= kClmulCrossover) {
    return toeplitz_hash_clmul(input, seed, out_len);
  }
  return toeplitz_hash_direct(input, seed, out_len);
}

}  // namespace qkdpp::privacy
