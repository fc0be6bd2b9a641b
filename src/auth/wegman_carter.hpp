// Wegman-Carter information-theoretic message authentication.
//
// Tag = PolyHash_r(message) XOR otp, where PolyHash is Horner evaluation
// over GF(2^128) (poly_hash in common/gf2) and (r, otp) are 256 fresh
// key-pool bits per tag. The polynomial hash family is eps-almost-XOR-
// universal with eps = ceil(len/16 + 1) / 2^128, so OTP encryption of the
// tag yields an unconditionally secure MAC with forgery probability eps
// per message - exactly the construction QKD deployments use for the
// classical channel.
#pragma once

#include <cstdint>
#include <span>

#include "common/bitvec.hpp"
#include "common/gf2.hpp"
#include "auth/key_pool.hpp"

namespace qkdpp::auth {

/// 128-bit authentication tag.
struct Tag {
  U128 value;
  bool operator==(const Tag&) const noexcept = default;
};

/// Key material consumed per tag (r + otp).
constexpr std::size_t kTagKeyBits = 256;

/// One-time authenticator drawing (r, otp) from the pool.
class WegmanCarter {
 public:
  explicit WegmanCarter(KeyPool& pool) : pool_(pool) {}

  /// Tag a message, consuming kTagKeyBits from the pool.
  Tag sign(std::span<const std::uint8_t> message);

  /// Verify a received tag using the *same* pool position as the sender -
  /// both sides must consume tags in lockstep; consuming is what enforces
  /// one-time use. Returns false on mismatch (pool bits are consumed either
  /// way, as in a real deployment).
  bool verify(std::span<const std::uint8_t> message, Tag tag);

 private:
  U128 next_tag_value(std::span<const std::uint8_t> message);

  KeyPool& pool_;
};

}  // namespace qkdpp::auth
