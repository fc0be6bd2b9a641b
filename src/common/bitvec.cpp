#include "common/bitvec.hpp"

#include <bit>
#include <algorithm>

#include "common/bitvec_isa.hpp"
#include "common/error.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QKDPP_X86_BMI2 1
#define QKDPP_X86_AVX2 1
#include <immintrin.h>
#endif

namespace qkdpp {

namespace {

// Per-word compress primitive. The BMI2 variant is compiled with a
// function-level target attribute and chosen once at startup, so the
// default build stays portable while PEXT-capable CPUs get the
// single-instruction path.

std::uint64_t extract_bits_portable(std::uint64_t w, std::uint64_t m) noexcept {
  std::uint64_t out = 0;
  unsigned k = 0;
  while (m != 0) {
    const std::uint64_t lsb = m & (~m + 1);
    out |= std::uint64_t{(w & lsb) != 0} << k;
    ++k;
    m &= m - 1;
  }
  return out;
}

#ifdef QKDPP_X86_BMI2

__attribute__((target("bmi2"))) std::uint64_t extract_bits_bmi2(
    std::uint64_t w, std::uint64_t m) noexcept {
  return _pext_u64(w, m);
}

const bool g_has_bmi2 = __builtin_cpu_supports("bmi2") != 0;

inline std::uint64_t extract_bits(std::uint64_t w, std::uint64_t m) noexcept {
  return g_has_bmi2 ? extract_bits_bmi2(w, m) : extract_bits_portable(w, m);
}

#else

inline std::uint64_t extract_bits(std::uint64_t w, std::uint64_t m) noexcept {
  return extract_bits_portable(w, m);
}

#endif  // QKDPP_X86_BMI2

// Gather bodies. Both fill out[first / 64 ...] with the source bits at
// positions[first ...], each output word built in a register. The AVX2
// body takes the whole output words and the portable loop the rest (all of
// them where AVX2 is missing).

void gather_words_portable(const std::uint64_t* source,
                           std::span<const std::uint32_t> positions,
                           std::size_t first, std::uint64_t* out) noexcept {
  for (std::size_t base = first; base < positions.size(); base += 64) {
    const std::size_t lim = std::min<std::size_t>(64, positions.size() - base);
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < lim; ++k) {
      const std::uint32_t p = positions[base + k];
      acc |= ((source[p >> 6] >> (p & 63)) & 1u) << k;
    }
    out[base >> 6] = acc;
  }
}

#ifdef QKDPP_X86_AVX2

// Eight positions per step: vpgatherdd loads the 32-bit source word at
// pos >> 5 (the words are little-endian, so 32-bit word j holds bits
// [32j, 32j + 32)), vpsllvd shifts the wanted bit up to the sign position,
// and movemask collects the eight sign bits. Returns how many positions
// it consumed: every whole output word's worth.
__attribute__((target("avx2"))) std::size_t gather_words_avx2(
    const std::uint64_t* source, std::span<const std::uint32_t> positions,
    std::uint64_t* out) noexcept {
  const std::size_t whole = positions.size() & ~std::size_t{63};
  const auto* halves = reinterpret_cast<const int*>(source);
  const __m256i low5 = _mm256_set1_epi32(31);
  for (std::size_t base = 0; base < whole; base += 64) {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < 64; k += 8) {
      const __m256i pos = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(positions.data() + base + k));
      const __m256i word =
          _mm256_i32gather_epi32(halves, _mm256_srli_epi32(pos, 5), 4);
      // Shift left by 31 - (pos & 31), which is ~pos & 31.
      const __m256i top =
          _mm256_sllv_epi32(word, _mm256_andnot_si256(pos, low5));
      const auto signs = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(top)));
      acc |= std::uint64_t{signs} << k;
    }
    out[base >> 6] = acc;
  }
  return whole;
}

const bool g_has_avx2 = __builtin_cpu_supports("avx2") != 0;

#endif  // QKDPP_X86_AVX2

void gather_words(detail::GatherIsa isa, const std::uint64_t* source,
                  std::span<const std::uint32_t> positions,
                  std::uint64_t* out) noexcept {
  std::size_t done = 0;
#ifdef QKDPP_X86_AVX2
  if (isa == detail::GatherIsa::kAvx2) {
    done = gather_words_avx2(source, positions, out);
  }
#endif
  gather_words_portable(source, positions, done, out);
}

/// The widest gather body this CPU executes, picked once at startup.
const detail::GatherIsa g_gather_isa =
    detail::gather_isa_available(detail::GatherIsa::kAvx2)
        ? detail::GatherIsa::kAvx2
        : detail::GatherIsa::kPortable;

}  // namespace

namespace detail {

bool gather_isa_available(GatherIsa isa) noexcept {
#ifdef QKDPP_X86_AVX2
  if (isa == GatherIsa::kAvx2) return g_has_avx2;
#endif
  return isa == GatherIsa::kPortable;
}

BitVec gather_on(GatherIsa isa, const BitVec& source,
                 std::span<const std::uint32_t> positions) {
  QKDPP_REQUIRE(gather_isa_available(isa),
                "gather body not available on this CPU");
  BitVec out(positions.size());
  gather_words(isa, source.words().data(), positions,
               out.mutable_words().data());
  return out;
}

}  // namespace detail

BitVec::BitVec(std::size_t nbits, bool value)
    : nbits_(nbits),
      words_(words_for(nbits), value ? ~std::uint64_t{0} : std::uint64_t{0}) {
  mask_tail();
}

BitVec BitVec::from_bools(std::span<const std::uint8_t> bools) {
  BitVec v(bools.size());
  // Build each word in a register instead of 64 read-modify-writes.
  for (std::size_t base = 0; base < bools.size(); base += 64) {
    const std::size_t lim = std::min<std::size_t>(64, bools.size() - base);
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < lim; ++k) {
      acc |= std::uint64_t{bools[base + k] != 0} << k;
    }
    v.words_[base >> 6] = acc;
  }
  return v;
}

BitVec BitVec::from_bytes(std::span<const std::uint8_t> bytes,
                          std::size_t nbits) {
  QKDPP_REQUIRE(bytes.size() * 8 >= nbits, "byte buffer too short for nbits");
  BitVec v(nbits);
  const std::size_t nbytes = (nbits + 7) / 8;
  for (std::size_t i = 0; i < nbytes; ++i) {
    v.words_[i >> 3] |= std::uint64_t{bytes[i]} << ((i & 7) * 8);
  }
  v.mask_tail();
  return v;
}

void BitVec::push_back(bool v) {
  if (nbits_ % 64 == 0) words_.push_back(0);
  ++nbits_;
  if (v) set(nbits_ - 1, true);
}

void BitVec::resize(std::size_t nbits) {
  words_.resize(words_for(nbits), 0);
  nbits_ = nbits;
  mask_tail();
}

void BitVec::clear() noexcept {
  nbits_ = 0;
  words_.clear();
}

BitVec& BitVec::operator^=(const BitVec& other) {
  QKDPP_REQUIRE(nbits_ == other.nbits_, "BitVec size mismatch in ^=");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

BitVec& BitVec::operator&=(const BitVec& other) {
  QKDPP_REQUIRE(nbits_ == other.nbits_, "BitVec size mismatch in &=");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVec& BitVec::operator|=(const BitVec& other) {
  QKDPP_REQUIRE(nbits_ == other.nbits_, "BitVec size mismatch in |=");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

std::size_t BitVec::popcount() const noexcept {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool BitVec::parity() const noexcept {
  std::uint64_t acc = 0;
  for (std::uint64_t w : words_) acc ^= w;
  return std::popcount(acc) & 1;
}

bool BitVec::parity_range(std::size_t begin, std::size_t end) const noexcept {
  if (begin >= end) return false;
  const std::size_t wb = begin >> 6;
  const std::size_t we = (end - 1) >> 6;
  if (wb == we) {
    std::uint64_t w = words_[wb];
    w >>= (begin & 63);
    const std::size_t len = end - begin;
    if (len < 64) w &= (std::uint64_t{1} << len) - 1;
    return std::popcount(w) & 1;
  }
  std::uint64_t acc = words_[wb] >> (begin & 63);
  for (std::size_t i = wb + 1; i < we; ++i) acc ^= words_[i];
  std::uint64_t last = words_[we];
  const std::size_t tail = end - (we << 6);  // 1..64 bits used in last word
  if (tail < 64) last &= (std::uint64_t{1} << tail) - 1;
  acc ^= last;
  return std::popcount(acc) & 1;
}

std::size_t BitVec::hamming_distance(const BitVec& a, const BitVec& b) {
  QKDPP_REQUIRE(a.nbits_ == b.nbits_, "BitVec size mismatch in hamming");
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.words_.size(); ++i) {
    n += static_cast<std::size_t>(std::popcount(a.words_[i] ^ b.words_[i]));
  }
  return n;
}

BitVec BitVec::subvec(std::size_t pos, std::size_t len) const {
  BitVec out;
  subvec_into(pos, len, out);
  return out;
}

void BitVec::subvec_into(std::size_t pos, std::size_t len, BitVec& out) const {
  QKDPP_REQUIRE(pos + len <= nbits_, "subvec out of range");
  out.nbits_ = len;
  out.words_.resize(words_for(len));
  const std::size_t shift = pos & 63;
  const std::size_t first = pos >> 6;
  if (shift == 0) {
    std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(first),
                out.words_.size(), out.words_.begin());
  } else {
    for (std::size_t i = 0; i < out.words_.size(); ++i) {
      std::uint64_t w = words_[first + i] >> shift;
      if (first + i + 1 < words_.size()) {
        w |= words_[first + i + 1] << (64 - shift);
      }
      out.words_[i] = w;
    }
  }
  out.mask_tail();
}

void BitVec::append(const BitVec& other) {
  const std::size_t shift = nbits_ & 63;
  if (shift == 0) {
    words_.insert(words_.end(), other.words_.begin(), other.words_.end());
    nbits_ += other.nbits_;
    return;
  }
  nbits_ += other.nbits_;
  words_.resize(words_for(nbits_), 0);
  const std::size_t base = (nbits_ - other.nbits_) >> 6;
  for (std::size_t i = 0; i < other.words_.size(); ++i) {
    words_[base + i] |= other.words_[i] << shift;
    if (base + i + 1 < words_.size()) {
      words_[base + i + 1] |= other.words_[i] >> (64 - shift);
    }
  }
  mask_tail();
}

BitVec BitVec::gather(std::span<const std::uint32_t> positions) const {
  BitVec out(positions.size());
  gather_words(g_gather_isa, words_.data(), positions, out.words_.data());
  return out;
}

BitVec BitVec::select(const BitVec& mask) const {
  QKDPP_REQUIRE(nbits_ == mask.nbits_, "BitVec size mismatch in select");
  BitVec out(mask.popcount());
  std::uint64_t acc = 0;
  unsigned fill = 0;
  std::size_t ow = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const std::uint64_t m = mask.words_[i];
    if (m == 0) continue;
    const std::uint64_t bits = extract_bits(words_[i], m);
    const auto cnt = static_cast<unsigned>(std::popcount(m));
    acc |= bits << fill;
    if (fill + cnt >= 64) {
      out.words_[ow++] = acc;
      acc = fill != 0 ? bits >> (64 - fill) : 0;
      fill = fill + cnt - 64;
    } else {
      fill += cnt;
    }
  }
  if (fill != 0) out.words_[ow] = acc;
  return out;
}

std::vector<std::uint8_t> BitVec::to_bytes() const {
  std::vector<std::uint8_t> out((nbits_ + 7) / 8, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(words_[i >> 3] >> ((i & 7) * 8));
  }
  return out;
}

std::string BitVec::to_string(std::size_t max_bits) const {
  std::string s;
  const std::size_t n = std::min(nbits_, max_bits);
  s.reserve(n + 3);
  for (std::size_t i = 0; i < n; ++i) s.push_back(get(i) ? '1' : '0');
  if (n < nbits_) s += "...";
  return s;
}

void BitVec::mask_tail() noexcept {
  const std::size_t tail = nbits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
}

}  // namespace qkdpp
