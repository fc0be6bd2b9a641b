#include "privacy/verification.hpp"

#include "common/rng.hpp"

namespace qkdpp::privacy {

U128 verification_tag(const BitVec& key, std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x5eedf0011ULL);
  const U128 r{rng.next_u64(), rng.next_u64()};
  return poly_hash(r, key.to_bytes());
}

}  // namespace qkdpp::privacy
