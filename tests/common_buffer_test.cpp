// ByteWriter/ByteReader framing round-trip and adversarial-input tests.
#include "common/buffer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp {
namespace {

TEST(Buffer, ScalarRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_f64(3.141592653589793);

  ByteReader r(w.data());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0x1234);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.141592653589793);
  EXPECT_TRUE(r.exhausted());
}

TEST(Buffer, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Buffer, VarintRoundTrip) {
  const std::uint64_t values[] = {0,       1,       127,        128,
                                  300,     16383,   16384,      1u << 20,
                                  1u << 31, std::uint64_t{1} << 40,
                                  ~std::uint64_t{0}};
  ByteWriter w;
  for (const auto v : values) w.put_varint(v);
  ByteReader r(w.data());
  for (const auto v : values) EXPECT_EQ(r.get_varint(), v);
  r.expect_exhausted();
}

TEST(Buffer, VarintCompact) {
  ByteWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(128);
  EXPECT_EQ(w.size(), 3u);  // +2 bytes
}

TEST(Buffer, BlobAndStringRoundTrip) {
  ByteWriter w;
  const std::vector<std::uint8_t> blob = {1, 2, 3, 254, 255};
  w.put_blob(blob);
  w.put_string("hello qkd");
  w.put_string("");

  ByteReader r(w.data());
  EXPECT_EQ(r.get_blob(), blob);
  EXPECT_EQ(r.get_string(), "hello qkd");
  EXPECT_EQ(r.get_string(), "");
  r.expect_exhausted();
}

TEST(Buffer, BitVecRoundTrip) {
  Xoshiro256 rng(3);
  for (const std::size_t n : {0u, 1u, 8u, 63u, 64u, 65u, 1000u}) {
    const BitVec v = rng.random_bits(n);
    ByteWriter w;
    w.put_bitvec(v);
    ByteReader r(w.data());
    EXPECT_EQ(r.get_bitvec(), v) << n;
    r.expect_exhausted();
  }
}

TEST(Buffer, U32VecRoundTrip) {
  const std::vector<std::uint32_t> v = {0, 1, 0xffffffffu, 42};
  ByteWriter w;
  w.put_u32_vec(v);
  ByteReader r(w.data());
  EXPECT_EQ(r.get_u32_vec(), v);
}

TEST(Buffer, TruncatedReadThrows) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.data());
  r.get_u16();
  r.get_u8();
  EXPECT_THROW(r.get_u16(), Error);
  try {
    ByteReader r2(w.data());
    r2.get_u64();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSerialization);
  }
}

TEST(Buffer, MaliciousBlobLengthRejected) {
  // A frame claiming a huge blob length must not allocate/overread.
  ByteWriter w;
  w.put_varint(std::uint64_t{1} << 40);
  w.put_u8(0);
  ByteReader r(w.data());
  EXPECT_THROW(r.get_blob(), Error);
}

TEST(Buffer, MaliciousBitvecLengthRejected) {
  ByteWriter w;
  w.put_varint(std::uint64_t{1} << 50);
  ByteReader r(w.data());
  EXPECT_THROW(r.get_bitvec(), Error);
}

TEST(Buffer, MaliciousU32VecLengthRejected) {
  ByteWriter w;
  w.put_varint(1000);  // claims 1000 entries, provides none
  ByteReader r(w.data());
  EXPECT_THROW(r.get_u32_vec(), Error);
}

// Lengths whose scaled size wraps a 64-bit word: 2^62 u32s are 2^64 bytes
// (0 after the wrap), and a bitvec of 2^64 - 7 bits or more rounds up to 0
// bytes. Each must fail as a typed serialization error, not slip past the
// size check into an allocation.
TEST(Buffer, WrappingLengthsRejectedAsSerializationErrors) {
  const auto expect_serialization_error = [](std::uint64_t length,
                                             bool bitvec) {
    ByteWriter w;
    w.put_varint(length);
    w.put_u32(0);
    ByteReader r(w.data());
    try {
      if (bitvec) {
        (void)r.get_bitvec();
      } else {
        (void)r.get_u32_vec();
      }
      ADD_FAILURE() << "length " << length << " accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kSerialization) << length;
    }
  };
  const std::uint64_t max = ~std::uint64_t{0};
  for (const std::uint64_t n :
       {std::uint64_t{1} << 62, std::uint64_t{1} << 63, max}) {
    expect_serialization_error(n, /*bitvec=*/false);
  }
  for (const std::uint64_t nbits : {max - 6, max - 1, max}) {
    expect_serialization_error(nbits, /*bitvec=*/true);
  }
}

TEST(Buffer, VarintOverflowRejected) {
  // 11 bytes of 0xff can encode > 64 bits; must throw, not wrap.
  std::vector<std::uint8_t> bytes(11, 0xff);
  ByteReader r(bytes);
  EXPECT_THROW(r.get_varint(), Error);
}

TEST(Buffer, TrailingBytesDetected) {
  ByteWriter w;
  w.put_u8(1);
  w.put_u8(2);
  ByteReader r(w.data());
  r.get_u8();
  EXPECT_THROW(r.expect_exhausted(), Error);
}

TEST(Buffer, TakeMovesOutStorage) {
  ByteWriter w;
  w.put_u32(5);
  auto bytes = w.take();
  EXPECT_EQ(bytes.size(), 4u);
}

}  // namespace
}  // namespace qkdpp
