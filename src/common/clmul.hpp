// Word-level carry-less (GF(2)[x]) polynomial multiplication.
//
// The binary-polynomial product is the workhorse behind word-parallel
// Toeplitz hashing: a Toeplitz matrix-vector product over GF(2) is a slice
// of the carry-less convolution of the input with the seed, so one
// multi-word clmul computes the whole hash.
//
// Layout matches BitVec: bit i of the polynomial (coefficient of x^i) lives
// in word i/64 at position i%64, unused high bits zero. Three layers:
//
//   * clmul64_fast  - 64x64 -> 128 bit product. PCLMULQDQ when the CPU
//     reports it at runtime (function-level target attributes, no special
//     build flags needed), else a 4-bit-window table.
//   * schoolbook    - word-level shift-XOR with the window table hoisted
//     per multiplicand word; O(na * nb) word products.
//   * Karatsuba     - balanced split above kKaratsubaThresholdWords;
//     unbalanced operands are chunked into balanced multiplies. Takes the
//     quadratic bit-level cost down to O(n^1.585) for PA-sized blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bitvec.hpp"
#include "common/gf2.hpp"

namespace qkdpp {

/// Karatsuba recursion floor, in 64-bit words per operand. Below this the
/// windowed schoolbook wins (recursion + scratch overhead dominates).
constexpr std::size_t kKaratsubaThresholdWords = 24;

/// True when the running CPU reports PCLMULQDQ and the kernels dispatch to
/// the hardware instruction (decided once at startup).
bool clmul_has_hardware() noexcept;

/// Carry-less 64x64 -> 128 product (hardware instruction when the CPU has
/// it, otherwise the same 4-bit-window algorithm as clmul64).
U128 clmul64_fast(std::uint64_t a, std::uint64_t b) noexcept;

/// XOR the GF(2)[x] product a*b into `out`. `out` must hold at least
/// a.size() + b.size() words; the caller provides the (typically zeroed)
/// accumulation target. Empty operands contribute nothing.
void gf2_poly_mul_acc(std::span<const std::uint64_t> a,
                      std::span<const std::uint64_t> b,
                      std::span<std::uint64_t> out);

/// Carry-less product of two bit strings: result bit k is
/// XOR_{i+j=k} a_i b_j, with a.size() + b.size() - 1 bits total
/// (empty if either operand is empty).
BitVec gf2_poly_mul(const BitVec& a, const BitVec& b);

}  // namespace qkdpp
