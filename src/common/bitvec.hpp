// Packed bit vector: the key-material workhorse of qkdpp.
//
// Invariant: bits are stored little-endian within 64-bit words (bit i lives in
// word i/64 at position i%64) and all unused high bits of the last word are
// zero. Every mutating operation preserves this so that word-sliced bulk
// operations (XOR, popcount, parity) never need per-call masking.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace qkdpp {

class BitVec {
 public:
  BitVec() = default;

  /// A vector of `nbits` bits, all set to `value`.
  explicit BitVec(std::size_t nbits, bool value = false);

  /// Build from a 0/1 byte sequence (test-friendly constructor).
  static BitVec from_bools(std::span<const std::uint8_t> bools);

  /// Reinterpret `nbits` bits out of a little-endian byte buffer.
  static BitVec from_bytes(std::span<const std::uint8_t> bytes,
                           std::size_t nbits);

  std::size_t size() const noexcept { return nbits_; }
  bool empty() const noexcept { return nbits_ == 0; }

  bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }
  void flip(std::size_t i) noexcept { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  void push_back(bool v);
  void resize(std::size_t nbits);
  void clear() noexcept;
  /// Pre-allocate backing words for `nbits` bits (size() is unchanged).
  void reserve(std::size_t nbits) { words_.reserve(words_for(nbits)); }

  /// Word-level read access for bulk kernels.
  std::span<const std::uint64_t> words() const noexcept { return words_; }
  std::span<std::uint64_t> mutable_words() noexcept { return words_; }
  static constexpr std::size_t words_for(std::size_t nbits) noexcept {
    return (nbits + 63) / 64;
  }

  BitVec& operator^=(const BitVec& other);
  BitVec& operator&=(const BitVec& other);
  BitVec& operator|=(const BitVec& other);
  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }

  bool operator==(const BitVec& other) const noexcept = default;

  /// Number of set bits.
  std::size_t popcount() const noexcept;
  /// XOR of all bits.
  bool parity() const noexcept;
  /// XOR of bits in the half-open range [begin, end).
  bool parity_range(std::size_t begin, std::size_t end) const noexcept;

  /// Hamming distance between equal-length vectors.
  static std::size_t hamming_distance(const BitVec& a, const BitVec& b);

  /// Copy of bits [pos, pos+len).
  BitVec subvec(std::size_t pos, std::size_t len) const;
  /// subvec() into an existing vector, reusing its capacity — the
  /// allocation-free form for per-frame scratch. `out` must not alias
  /// *this.
  void subvec_into(std::size_t pos, std::size_t len, BitVec& out) const;
  /// Append all of `other` after the current bits.
  void append(const BitVec& other);

  /// Gather bits at the given positions (in order) into a new vector.
  /// Requires every position < size(). (AVX2 gathers eight positions per
  /// step when the CPU has it, portable bit loop otherwise.)
  BitVec gather(std::span<const std::uint32_t> positions) const;

  /// Word-level compress: the bits at positions where `mask` is set, in
  /// order. Result length is mask.popcount(). Requires equal sizes.
  /// (BMI2 PEXT per word when the CPU has it, portable bit loop otherwise.)
  BitVec select(const BitVec& mask) const;

  /// Little-endian byte serialization (size() bits, last byte zero-padded).
  std::vector<std::uint8_t> to_bytes() const;

  /// "0101..." debugging aid; capped output for large vectors.
  std::string to_string(std::size_t max_bits = 128) const;

 private:
  void mask_tail() noexcept;

  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace qkdpp
