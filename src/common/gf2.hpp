// Carry-less multiplication and GF(2^128) arithmetic.
//
// Portable software implementation (no PCLMULQDQ dependency) with a 4-bit
// window so that Wegman-Carter polynomial hashing stays fast enough to show
// that authentication is never the pipeline bottleneck. Field: GF(2^128) with
// the GCM modulus x^128 + x^7 + x^2 + x + 1, plain (non-reflected) bit order.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

namespace qkdpp {

/// 128-bit value as two 64-bit halves (hi = bits 127..64).
struct U128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend U128 operator^(U128 a, U128 b) noexcept {
    return {a.hi ^ b.hi, a.lo ^ b.lo};
  }
  U128& operator^=(U128 o) noexcept {
    hi ^= o.hi;
    lo ^= o.lo;
    return *this;
  }
  bool operator==(const U128&) const noexcept = default;
};

/// Carry-less (polynomial over GF(2)) product of two 64-bit operands.
U128 clmul64(std::uint64_t a, std::uint64_t b) noexcept;

/// Multiplication in GF(2^128) mod x^128 + x^7 + x^2 + x + 1.
U128 gf128_mul(U128 a, U128 b) noexcept;

/// Repeated-squaring exponentiation in GF(2^128) (used by tests and key
/// schedule derivation).
U128 gf128_pow(U128 base, std::uint64_t exponent) noexcept;

/// Polynomial hash over GF(2^128): pad the message to little-endian 16-byte
/// blocks, prepend a length block, Horner-evaluate at point r. The one
/// hash behind Wegman-Carter tags and the error-verification tag.
U128 poly_hash(U128 r, std::span<const std::uint8_t> message) noexcept;

}  // namespace qkdpp
