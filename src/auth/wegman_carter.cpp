#include "auth/wegman_carter.hpp"

#include "common/ct_equal.hpp"

namespace qkdpp::auth {

namespace {

U128 u128_from_bits(const BitVec& bits, std::size_t offset) {
  U128 v{0, 0};
  for (std::size_t i = 0; i < 64; ++i) {
    if (bits.get(offset + i)) v.lo |= std::uint64_t{1} << i;
    if (bits.get(offset + 64 + i)) v.hi |= std::uint64_t{1} << i;
  }
  return v;
}

}  // namespace

U128 WegmanCarter::next_tag_value(std::span<const std::uint8_t> message) {
  const BitVec key = pool_.draw(kTagKeyBits);
  const U128 r = u128_from_bits(key, 0);
  const U128 otp = u128_from_bits(key, 128);
  return poly_hash(r, message) ^ otp;
}

Tag WegmanCarter::sign(std::span<const std::uint8_t> message) {
  return Tag{next_tag_value(message)};
}

bool WegmanCarter::verify(std::span<const std::uint8_t> message, Tag tag) {
  // ct_equal, not ==: a short-circuiting compare leaks the length of a
  // matching forged prefix through timing.
  return ct_equal(next_tag_value(message), tag.value);
}

}  // namespace qkdpp::auth
