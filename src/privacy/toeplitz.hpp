// Toeplitz-matrix universal hashing for privacy amplification.
//
// A random r x n binary Toeplitz matrix is a 2-universal hash family, and by
// the leftover hash lemma compresses the reconciled key to its private
// length. Two bit-exact kernels:
//
//   * direct  - word-sliced: for every set input bit, XOR a shifted window
//     of the seed into the output. O(|x|_1 * r / 64). The labelled test
//     oracle, and the dispatcher's choice for inputs of a word or less.
//   * clmul   - the Toeplitz product is the middle slice of the carry-less
//     convolution x * t, computed as a word-level binary-polynomial
//     multiply (Karatsuba over a windowed/PCLMUL schoolbook, see
//     common/clmul.hpp). The production kernel.
//
// Best of 5-2000 runs, out_len = n/2, Release, on a 4-vCPU Xeon with
// PCLMULQDQ: at n = 32 direct takes 0.20 us and clmul 0.11 us (at n = 16,
// 0.09 vs 0.11 us); at n = 4096, 154 us vs 6.2 us; at n = 10^5, 46 ms vs
// 0.75 ms; at n = 2^20, 6.1 s vs 35 ms.
//
// Seed convention: t has n + r - 1 bits; output y_j = XOR_i x_i t[n-1+j-i],
// i.e. y = (x conv t)[n-1 .. n-1+r).
#pragma once

#include <cstdint>

#include "common/bitvec.hpp"

namespace qkdpp::privacy {

/// Expand a 64-bit protocol seed into Toeplitz seed bits (xoshiro stream).
/// Both peers derive identical seeds from the PaParams message.
BitVec toeplitz_seed(std::uint64_t seed, std::size_t nbits);

/// Direct word-sliced Toeplitz product. seed.size() == input.size()+out_len-1.
BitVec toeplitz_hash_direct(const BitVec& input, const BitVec& seed,
                            std::size_t out_len);

/// Carry-less-convolution Toeplitz product; bit-identical to direct.
BitVec toeplitz_hash_clmul(const BitVec& input, const BitVec& seed,
                           std::size_t out_len);

/// Size-dispatching entry point (direct below kClmulCrossover, clmul above).
BitVec toeplitz_hash(const BitVec& input, const BitVec& seed,
                     std::size_t out_len);

/// Input length from which toeplitz_hash() switches from the direct
/// window-XOR kernel to the clmul convolution. With hardware PCLMUL clmul
/// already wins at 32 bits (numbers above); the bar sits at one word so
/// that a build without PCLMUL, whose 4-bit-window fallback those numbers
/// do not cover, keeps the direct kernel for sub-word inputs.
constexpr std::size_t kClmulCrossover = std::size_t{1} << 6;

}  // namespace qkdpp::privacy
