// Seeded-mutation driver for protocol::decode_message, the parser of every
// frame a peer sends. One valid message of each type is encoded and
// mutated a few hundred times (bit flips, truncation, trailing bytes, tag
// swaps, and length varints replaced by values whose scaled sizes wrap a
// 64-bit word); whatever the bytes, decode_message may only return a
// message or throw qkdpp::Error. The seeds are in this file.
#include "protocol/messages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::protocol {
namespace {

/// Wire field kinds, as the field lists in messages.cpp order them.
enum class Field { kU8, kU32, kU64, kF64, kU32Vec, kBitVec, kString };

struct Sample {
  Message message;
  std::vector<Field> layout;  ///< fields after the tag byte, in wire order
};

/// One message of every type, with seeded contents (odd bitvec lengths, so
/// the last byte is partial).
std::vector<Sample> samples(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto ids = [&rng](std::size_t n) {
    return rng.sample_without_replacement(100000, n);
  };
  using F = Field;
  return {
      {DetectionReport{1, 100000, ids(37), rng.random_bits(37)},
       {F::kU64, F::kU64, F::kU32Vec, F::kBitVec}},
      {SiftResult{2, rng.random_bits(37), rng.random_bits(19)},
       {F::kU64, F::kBitVec, F::kBitVec}},
      {PeReveal{3, ids(5), rng.random_bits(5)},
       {F::kU64, F::kU32Vec, F::kBitVec}},
      {PeReport{4, rng.random_bits(5)}, {F::kU64, F::kBitVec}},
      {PeVerdict{5, true, 0.021, 0.034}, {F::kU64, F::kU8, F::kF64, F::kF64}},
      {ReconcileStart{6, ReconcileMethod::kLdpc, rng.next_u64(), 3, 40, 12,
                      0.02, rng.random_bits(203)},
       {F::kU64, F::kU8, F::kU64, F::kU32, F::kU32, F::kU32, F::kF64,
        F::kBitVec}},
      {ParityRequest{7, 2, {0, 16, 32}, {16, 32, 48}},
       {F::kU64, F::kU32, F::kU32Vec, F::kU32Vec}},
      {ParityResponse{8, 2, rng.random_bits(3)},
       {F::kU64, F::kU32, F::kBitVec}},
      {ReconcileDone{9, rng.random_bits(9)}, {F::kU64, F::kBitVec}},
      {BlindRequest{10, 4, 1}, {F::kU64, F::kU32, F::kU32}},
      {BlindResponse{11, 4, 1, ids(6), rng.random_bits(6)},
       {F::kU64, F::kU32, F::kU32, F::kU32Vec, F::kBitVec}},
      {VerifyRequest{12, rng.next_u64(), rng.next_u64(), rng.next_u64()},
       {F::kU64, F::kU64, F::kU64, F::kU64}},
      {VerifyResponse{13, true}, {F::kU64, F::kU8}},
      {PaParams{14, rng.next_u64(), 1000}, {F::kU64, F::kU64, F::kU64}},
      {KeyConfirm{15, 15, 0xdeadbeef}, {F::kU64, F::kU64, F::kU32}},
      {Abort{16, 2, "qber above abort threshold"},
       {F::kU64, F::kU8, F::kString}},
  };
}

/// A length varint inside a frame: its offset and encoded size.
struct LengthField {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

/// Walks a valid frame along `layout` and returns where its length varints
/// sit. Fails the test if the layout does not consume the frame exactly.
std::vector<LengthField> length_fields(const std::vector<std::uint8_t>& frame,
                                       const std::vector<Field>& layout) {
  ByteReader r(frame);
  (void)r.get_u8();  // tag
  std::vector<LengthField> lengths;
  for (const Field field : layout) {
    switch (field) {
      case Field::kU8:
        (void)r.get_u8();
        break;
      case Field::kU32:
        (void)r.get_u32();
        break;
      case Field::kU64:
      case Field::kF64:
        (void)r.get_u64();
        break;
      case Field::kU32Vec:
      case Field::kBitVec:
      case Field::kString: {
        const std::size_t offset = frame.size() - r.remaining();
        const std::uint64_t n = r.get_varint();
        lengths.push_back({offset, frame.size() - r.remaining() - offset});
        const std::uint64_t payload = field == Field::kU32Vec   ? n * 4
                                      : field == Field::kBitVec ? (n + 7) / 8
                                                                : n;
        (void)r.get_bytes(static_cast<std::size_t>(payload));
        break;
      }
    }
  }
  EXPECT_TRUE(r.exhausted()) << "layout does not match the encoder";
  return lengths;
}

std::vector<std::uint8_t> varint(std::uint64_t v) {
  ByteWriter w;
  w.put_varint(v);
  return w.take();
}

/// `frame` with the length varint `field` replaced by `value`.
std::vector<std::uint8_t> with_length(const std::vector<std::uint8_t>& frame,
                                      const LengthField& field,
                                      std::uint64_t value) {
  std::vector<std::uint8_t> out(
      frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(field.offset));
  const std::vector<std::uint8_t> encoded = varint(value);
  out.insert(out.end(), encoded.begin(), encoded.end());
  out.insert(out.end(),
             frame.begin() + static_cast<std::ptrdiff_t>(field.offset +
                                                         field.bytes),
             frame.end());
  return out;
}

/// 2^62 u32s are 2^64 bytes, and 2^64 - 1 bits round up past 2^64 bits:
/// both wrap a 64-bit size computed from them.
constexpr std::uint64_t kHugeLengths[] = {std::uint64_t{1} << 62,
                                          ~std::uint64_t{0}};

/// Decodes `frame`; returns "" when it decoded or threw qkdpp::Error, and
/// the escaping exception's description otherwise.
std::string untyped_escape(const std::vector<std::uint8_t>& frame,
                           ErrorCode* code = nullptr) {
  try {
    (void)decode_message(frame);
  } catch (const Error& error) {
    if (code != nullptr) *code = error.code();
  } catch (const std::exception& e) {
    return std::string("std::exception: ") + e.what();
  } catch (...) {
    return "non-standard exception";
  }
  return "";
}

TEST(MessageMutation, EveryTypeRoundTripsAndMatchesItsLayout) {
  for (const Sample& sample : samples(1)) {
    const auto frame = encode_message(sample.message);
    (void)length_fields(frame, sample.layout);
    const Message decoded = decode_message(frame);
    EXPECT_EQ(message_type(decoded), message_type(sample.message));
    EXPECT_EQ(encode_message(decoded), frame) << message_name(decoded);
  }
}

// Every length field of every type, set to each wrapping value: a typed
// serialization fault, never an allocation or a precondition failure.
TEST(MessageMutation, HugeLengthsAreSerializationErrors) {
  for (const Sample& sample : samples(2)) {
    const auto frame = encode_message(sample.message);
    const auto lengths = length_fields(frame, sample.layout);
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      for (const std::uint64_t value : kHugeLengths) {
        ErrorCode code = ErrorCode::kConfig;
        const std::string escaped =
            untyped_escape(with_length(frame, lengths[i], value), &code);
        EXPECT_EQ(escaped, "") << message_name(sample.message) << " length "
                               << i << " = " << value;
        if (escaped.empty()) {
          EXPECT_EQ(code, ErrorCode::kSerialization)
              << message_name(sample.message) << " length " << i << " = "
              << value;
        }
      }
    }
  }
}

// Each frame under every tag byte: another type's fields, or none.
TEST(MessageMutation, TagSwapsStayTyped) {
  for (const Sample& sample : samples(3)) {
    auto frame = encode_message(sample.message);
    for (int tag = 0; tag < 256; ++tag) {
      frame[0] = static_cast<std::uint8_t>(tag);
      EXPECT_EQ(untyped_escape(frame), "")
          << message_name(sample.message) << " under tag " << tag;
    }
  }
}

// Seeded random mutations, a few hundred per type, stacking up to three.
TEST(MessageMutation, SeededMutationsOnlyRaiseTypedErrors) {
  constexpr int kMutationsPerType = 400;
  Xoshiro256 rng(0x6d757461);
  for (const Sample& sample : samples(4)) {
    const auto valid = encode_message(sample.message);
    const auto lengths = length_fields(valid, sample.layout);
    for (int trial = 0; trial < kMutationsPerType; ++trial) {
      std::vector<std::uint8_t> frame = valid;
      std::string what;
      const int steps = 1 + static_cast<int>(rng.uniform(3));
      for (int step = 0; step < steps; ++step) {
        switch (rng.uniform(5)) {
          case 0:  // bit flip
            if (!frame.empty()) {
              const auto bit = rng.uniform(frame.size() * 8);
              frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
              what += " flip " + std::to_string(bit);
            }
            break;
          case 1:  // truncation
            frame.resize(rng.uniform(frame.size() + 1));
            what += " cut " + std::to_string(frame.size());
            break;
          case 2: {  // trailing bytes
            const auto extra = 1 + rng.uniform(8);
            for (std::uint64_t i = 0; i < extra; ++i) {
              frame.push_back(static_cast<std::uint8_t>(rng.next_u64()));
            }
            what += " append " + std::to_string(extra);
            break;
          }
          case 3:  // tag swap
            if (!frame.empty()) {
              frame[0] = static_cast<std::uint8_t>(rng.uniform(20));
              what += " tag " + std::to_string(frame[0]);
            }
            break;
          default:  // wrapping length, on the unmutated layout
            if (!lengths.empty() && frame == valid) {
              const auto& field = lengths[rng.uniform(lengths.size())];
              const std::uint64_t value = kHugeLengths[rng.uniform(2)];
              frame = with_length(frame, field, value);
              what += " length@" + std::to_string(field.offset) + " = " +
                      std::to_string(value);
            }
            break;
        }
      }
      EXPECT_EQ(untyped_escape(frame), "")
          << message_name(sample.message) << " trial " << trial << ":"
          << what;
    }
  }
}

}  // namespace
}  // namespace qkdpp::protocol
