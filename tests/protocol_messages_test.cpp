// Message round-trip serialization and adversarial decode tests.
#include "protocol/messages.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::protocol {
namespace {

template <typename T>
T round_trip(const T& in) {
  const auto bytes = encode_message(Message{in});
  const Message out = decode_message(bytes);
  return std::get<T>(out);
}

TEST(Messages, DetectionReportRoundTrip) {
  Xoshiro256 rng(1);
  DetectionReport m;
  m.block_id = 7;
  m.n_pulses = 100000;
  m.detected_idx = {1, 5, 9, 70000};
  m.bob_bases = rng.random_bits(4);
  const auto out = round_trip(m);
  EXPECT_EQ(out.block_id, 7u);
  EXPECT_EQ(out.n_pulses, 100000u);
  EXPECT_EQ(out.detected_idx, m.detected_idx);
  EXPECT_EQ(out.bob_bases, m.bob_bases);
}

TEST(Messages, SiftResultRoundTrip) {
  Xoshiro256 rng(2);
  SiftResult m;
  m.block_id = 3;
  m.keep_mask = rng.random_bits(100);
  m.signal_mask = rng.random_bits(47);
  const auto out = round_trip(m);
  EXPECT_EQ(out.keep_mask, m.keep_mask);
  EXPECT_EQ(out.signal_mask, m.signal_mask);
}

TEST(Messages, PeMessagesRoundTrip) {
  Xoshiro256 rng(3);
  PeReveal reveal;
  reveal.block_id = 4;
  reveal.positions = {2, 4, 8};
  reveal.alice_bits = rng.random_bits(3);
  EXPECT_EQ(round_trip(reveal).positions, reveal.positions);

  PeReport report;
  report.block_id = 4;
  report.bob_bits = rng.random_bits(3);
  EXPECT_EQ(round_trip(report).bob_bits, report.bob_bits);

  PeVerdict verdict;
  verdict.block_id = 4;
  verdict.proceed = true;
  verdict.qber_estimate = 0.021;
  verdict.qber_upper = 0.034;
  const auto v = round_trip(verdict);
  EXPECT_TRUE(v.proceed);
  EXPECT_DOUBLE_EQ(v.qber_estimate, 0.021);
  EXPECT_DOUBLE_EQ(v.qber_upper, 0.034);
}

TEST(Messages, ReconcileStartRoundTrip) {
  Xoshiro256 rng(4);
  ReconcileStart m;
  m.block_id = 11;
  m.method = ReconcileMethod::kLdpc;
  m.perm_seed = 0xdeadbeefcafef00dULL;
  m.code_id = 3;
  m.n_punctured = 100;
  m.n_shortened = 50;
  m.qber_hint = 0.025;
  m.syndrome = rng.random_bits(8192);
  const auto out = round_trip(m);
  EXPECT_EQ(out.method, ReconcileMethod::kLdpc);
  EXPECT_EQ(out.perm_seed, m.perm_seed);
  EXPECT_EQ(out.code_id, 3u);
  EXPECT_EQ(out.n_punctured, 100u);
  EXPECT_EQ(out.n_shortened, 50u);
  EXPECT_DOUBLE_EQ(out.qber_hint, 0.025);
  EXPECT_EQ(out.syndrome, m.syndrome);
}

TEST(Messages, CascadeMessagesRoundTrip) {
  Xoshiro256 rng(5);
  ParityRequest req;
  req.block_id = 9;
  req.pass = 2;
  req.range_begins = {0, 64, 4096};
  req.range_ends = {64, 128, 8000};
  const auto r = round_trip(req);
  EXPECT_EQ(r.pass, 2u);
  EXPECT_EQ(r.range_begins, req.range_begins);
  EXPECT_EQ(r.range_ends, req.range_ends);

  ParityResponse resp;
  resp.block_id = 9;
  resp.pass = 2;
  resp.parities = rng.random_bits(3);
  EXPECT_EQ(round_trip(resp).parities, resp.parities);
}

TEST(Messages, BlindMessagesRoundTrip) {
  Xoshiro256 rng(6);
  BlindRequest req;
  req.block_id = 10;
  req.frame = 7;
  req.round = 1;
  const auto q = round_trip(req);
  EXPECT_EQ(q.block_id, 10u);
  EXPECT_EQ(q.frame, 7u);
  EXPECT_EQ(q.round, 1u);

  BlindResponse resp;
  resp.block_id = 10;
  resp.frame = 0xfffffffeu;
  resp.round = 3;
  resp.positions = {3, 77};
  resp.values = rng.random_bits(2);
  const auto r = round_trip(resp);
  EXPECT_EQ(r.block_id, 10u);
  EXPECT_EQ(r.frame, 0xfffffffeu);
  EXPECT_EQ(r.round, 3u);
  EXPECT_EQ(r.positions, resp.positions);
  EXPECT_EQ(r.values, resp.values);
}

TEST(Messages, RemainingTypesRoundTrip) {
  VerifyRequest vr{12, 0x1234, 0xabcd, 0xef01};
  const auto v = round_trip(vr);
  EXPECT_EQ(v.seed, 0x1234u);
  EXPECT_EQ(v.tag_hi, 0xabcdu);
  EXPECT_EQ(v.tag_lo, 0xef01u);

  EXPECT_TRUE(round_trip(VerifyResponse{12, true}).match);
  EXPECT_EQ(round_trip(PaParams{12, 99, 512}).out_len, 512u);

  KeyConfirm kc{12, 777, 0xdeadbeef};
  const auto k = round_trip(kc);
  EXPECT_EQ(k.key_id, 777u);
  EXPECT_EQ(k.crc, 0xdeadbeefu);

  Abort abort{12, 3, "qber too high"};
  const auto a = round_trip(abort);
  EXPECT_EQ(a.reason, 3);
  EXPECT_EQ(a.detail, "qber too high");

  Xoshiro256 rng(8);
  ReconcileDone done{12, rng.random_bits(70)};  // one bit per frame
  const auto d = round_trip(done);
  EXPECT_EQ(d.block_id, 12u);
  EXPECT_EQ(d.converged, done.converged);
  EXPECT_TRUE(round_trip(ReconcileDone{12, BitVec(1, true)}).converged.get(0));
  EXPECT_TRUE(round_trip(ReconcileDone{12, BitVec()}).converged.empty());
}

TEST(Messages, TypeTagsAreDistinct) {
  // Every alternative must map to a unique wire tag.
  Xoshiro256 rng(7);
  std::vector<Message> all = {
      DetectionReport{}, SiftResult{},   PeReveal{},       PeReport{},
      PeVerdict{},       ReconcileStart{}, ParityRequest{}, ParityResponse{},
      ReconcileDone{},   BlindRequest{}, BlindResponse{},  VerifyRequest{},
      VerifyResponse{},  PaParams{},     KeyConfirm{},     Abort{}};
  std::set<std::uint8_t> tags;
  for (const auto& m : all) tags.insert(message_type(m));
  EXPECT_EQ(tags.size(), all.size());
}

TEST(Messages, UnknownTagRejected) {
  std::vector<std::uint8_t> frame = {0xee, 0, 0, 0};
  EXPECT_THROW(decode_message(frame), Error);
}

TEST(Messages, TruncatedFrameRejected) {
  const auto bytes = encode_message(Message{PaParams{1, 2, 3}});
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_THROW(
        decode_message(std::span(bytes).subspan(0, cut)), Error)
        << cut;
  }
}

TEST(Messages, TrailingGarbageRejected) {
  auto bytes = encode_message(Message{VerifyResponse{1, true}});
  bytes.push_back(0x00);
  EXPECT_THROW(decode_message(bytes), Error);
}

TEST(Messages, EmptyFrameRejected) {
  EXPECT_THROW(decode_message({}), Error);
}

TEST(Messages, NamesAreStable) {
  EXPECT_STREQ(message_name(Message{Abort{}}), "Abort");
  EXPECT_STREQ(message_name(Message{DetectionReport{}}), "DetectionReport");
  EXPECT_STREQ(message_name(Message{PaParams{}}), "PaParams");
}

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins every tag and every field's width and order on the wire: the digest
// came from this test body linked against the hand-written encoder that
// preceded the field lists. Seeded contents, odd bitvec lengths.
TEST(WireDigest, MatchesParent) {
  Xoshiro256 rng(24);
  const auto ids = [&rng](std::size_t n) {
    return rng.sample_without_replacement(100000, n);
  };
  const std::vector<Message> all = {
      DetectionReport{1, 100000, ids(37), rng.random_bits(37)},
      SiftResult{2, rng.random_bits(37), rng.random_bits(19)},
      PeReveal{3, ids(5), rng.random_bits(5)},
      PeReport{4, rng.random_bits(5)},
      PeVerdict{5, true, 0.021, 0.034},
      ReconcileStart{6, ReconcileMethod::kCascade, rng.next_u64(), 3, 40, 12,
                     0.02, rng.random_bits(203)},
      ParityRequest{7, 2, {0, 16, 32}, {16, 32, 48}},
      ParityResponse{8, 2, rng.random_bits(3)},
      ReconcileDone{9, rng.random_bits(9)},
      BlindRequest{10, 4, 1},
      BlindResponse{11, 4, 1, ids(6), rng.random_bits(6)},
      VerifyRequest{12, rng.next_u64(), rng.next_u64(), rng.next_u64()},
      VerifyResponse{13, true},
      PaParams{14, rng.next_u64(), 1000},
      KeyConfirm{15, rng.next_u64(), 0xdeadbeef},
      Abort{16, 2, "qber above abort threshold"},
  };
  ASSERT_EQ(all.size(), std::variant_size_v<Message>);
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].index(), i);
    EXPECT_EQ(message_type(all[i]), i + 1) << message_name(all[i]);
    digest = fnv1a(digest, encode_message(all[i]));
  }
  EXPECT_EQ(digest, 0x171c81bb50f4cad6ULL);
}

}  // namespace
}  // namespace qkdpp::protocol
