#include "common/buffer.hpp"

#include <bit>
#include <cstring>

namespace qkdpp {

void ByteWriter::put_u16(std::uint16_t v) {
  put_u8(static_cast<std::uint8_t>(v));
  put_u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_bytes(std::span<const std::uint8_t> data) {
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void ByteWriter::put_blob(std::span<const std::uint8_t> data) {
  put_varint(data.size());
  put_bytes(data);
}

void ByteWriter::put_string(std::string_view s) {
  put_varint(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteWriter::put_bitvec(const BitVec& v) {
  put_varint(v.size());
  const auto bytes = v.to_bytes();
  put_bytes(bytes);
}

void ByteWriter::put_u32_vec(std::span<const std::uint32_t> v) {
  put_varint(v.size());
  for (const std::uint32_t x : v) put_u32(x);
}

void ByteReader::need(std::size_t n) const {
  if (n > remaining()) {
    throw_error(ErrorCode::kSerialization, "truncated frame");
  }
}

std::uint8_t ByteReader::get_u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::get_u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint32_t ByteReader::get_u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::get_u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::uint64_t ByteReader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const std::uint8_t byte = get_u8();
    if (shift >= 63 && byte > 1) {
      throw_error(ErrorCode::kSerialization, "varint overflow");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::vector<std::uint8_t> ByteReader::get_bytes(std::size_t n) {
  need(n);
  std::vector<std::uint8_t> out(
      data_.begin() + static_cast<std::ptrdiff_t>(pos_),
      data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::vector<std::uint8_t> ByteReader::get_blob() {
  const std::uint64_t n = get_varint();
  if (n > remaining()) {
    throw_error(ErrorCode::kSerialization, "blob length exceeds frame");
  }
  return get_bytes(static_cast<std::size_t>(n));
}

std::string ByteReader::get_string() {
  const auto bytes = get_blob();
  return {bytes.begin(), bytes.end()};
}

// The lengths below come off the wire: compare them against what the frame
// can hold instead of scaling them, so no hostile value can wrap past the
// check.

BitVec ByteReader::get_bitvec() {
  const std::uint64_t nbits = get_varint();
  if (nbits > std::uint64_t{remaining()} * 8) {
    throw_error(ErrorCode::kSerialization, "bitvec length exceeds frame");
  }
  const auto bytes = get_bytes(static_cast<std::size_t>((nbits + 7) / 8));
  return BitVec::from_bytes(bytes, static_cast<std::size_t>(nbits));
}

std::vector<std::uint32_t> ByteReader::get_u32_vec() {
  const std::uint64_t n = get_varint();
  if (n > remaining() / 4) {
    throw_error(ErrorCode::kSerialization, "u32 vector exceeds frame");
  }
  std::vector<std::uint32_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(get_u32());
  return out;
}

void ByteReader::expect_exhausted() const {
  if (!exhausted()) {
    throw_error(ErrorCode::kSerialization, "trailing bytes in frame");
  }
}

}  // namespace qkdpp
