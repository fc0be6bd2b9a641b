#include "common/gf2.hpp"

#include <algorithm>

namespace qkdpp {

U128 clmul64(std::uint64_t a, std::uint64_t b) noexcept {
  // 4-bit window: precompute a * w for all 16 degree-<4 polynomials w, then
  // combine 16 windowed partial products of b. Each table entry fits in
  // 64 + 3 bits, so keep a 3-bit overflow half per entry.
  std::uint64_t tab_lo[16];
  std::uint64_t tab_hi[16];
  tab_lo[0] = 0;
  tab_hi[0] = 0;
  tab_lo[1] = a;
  tab_hi[1] = 0;
  for (int w = 2; w < 16; w += 2) {
    // even: shift of half
    tab_lo[w] = tab_lo[w / 2] << 1;
    tab_hi[w] = (tab_hi[w / 2] << 1) | (tab_lo[w / 2] >> 63);
    // odd: even ^ a
    tab_lo[w + 1] = tab_lo[w] ^ a;
    tab_hi[w + 1] = tab_hi[w];
  }
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  for (int k = 15; k >= 0; --k) {
    // result <<= 4
    hi = (hi << 4) | (lo >> 60);
    lo <<= 4;
    const unsigned w = (b >> (4 * k)) & 0xf;
    lo ^= tab_lo[w];
    hi ^= tab_hi[w];
  }
  return {hi, lo};
}

namespace {

// Reduce a 256-bit polynomial (p3 p2 p1 p0, p3 most significant) modulo
// x^128 + x^7 + x^2 + x + 1. Uses x^128 === r(x) with r = 0x87.
U128 reduce256(std::uint64_t p3, std::uint64_t p2, std::uint64_t p1,
               std::uint64_t p0) noexcept {
  constexpr std::uint64_t kR = 0x87;
  // Fold [p3 p2] * r into the low 192 bits.
  const U128 f2 = clmul64(p2, kR);  // contributes at bit offset 0 of the fold
  const U128 f3 = clmul64(p3, kR);  // contributes at bit offset 64
  std::uint64_t q0 = p0 ^ f2.lo;
  std::uint64_t q1 = p1 ^ f2.hi ^ f3.lo;
  const std::uint64_t q2 = f3.hi;  // at most deg 70-128 = < 2^7 bits
  // Fold the residual q2 (at offset 128) once more; q2 * r fits in 64 bits.
  const U128 g = clmul64(q2, kR);
  q0 ^= g.lo;
  q1 ^= g.hi;  // g.hi is zero in practice but harmless
  return {q1, q0};
}

}  // namespace

U128 gf128_mul(U128 a, U128 b) noexcept {
  const U128 ll = clmul64(a.lo, b.lo);
  const U128 hh = clmul64(a.hi, b.hi);
  const U128 lh = clmul64(a.lo, b.hi);
  const U128 hl = clmul64(a.hi, b.lo);
  const U128 mid = lh ^ hl;
  // 256-bit product = hh << 128 ^ mid << 64 ^ ll
  const std::uint64_t p0 = ll.lo;
  const std::uint64_t p1 = ll.hi ^ mid.lo;
  const std::uint64_t p2 = hh.lo ^ mid.hi;
  const std::uint64_t p3 = hh.hi;
  return reduce256(p3, p2, p1, p0);
}

U128 gf128_pow(U128 base, std::uint64_t exponent) noexcept {
  U128 result{0, 1};
  U128 acc = base;
  while (exponent != 0) {
    if (exponent & 1) result = gf128_mul(result, acc);
    acc = gf128_mul(acc, acc);
    exponent >>= 1;
  }
  return result;
}

namespace {

U128 load_block(std::span<const std::uint8_t> message, std::size_t pos) {
  // Little-endian 16-byte block; final partial block zero-padded.
  U128 v{0, 0};
  const std::size_t n = std::min<std::size_t>(16, message.size() - pos);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t byte = message[pos + i];
    if (i < 8) {
      v.lo |= byte << (8 * i);
    } else {
      v.hi |= byte << (8 * (i - 8));
    }
  }
  return v;
}

}  // namespace

U128 poly_hash(U128 r, std::span<const std::uint8_t> message) noexcept {
  // Horner: h = ((L*r + m_0)*r + m_1)*r + ... ; the length block L makes
  // messages of different lengths hash through polynomials of different
  // leading coefficient, preserving universality across lengths.
  U128 h{0, static_cast<std::uint64_t>(message.size())};
  h = gf128_mul(h, r);
  for (std::size_t pos = 0; pos < message.size(); pos += 16) {
    h ^= load_block(message, pos);
    h = gf128_mul(h, r);
  }
  return h;
}

}  // namespace qkdpp
