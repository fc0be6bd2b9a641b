// BitVec unit + property tests against a std::vector<bool> oracle.
#include "common/bitvec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "common/bitvec_isa.hpp"
#include "common/rng.hpp"

namespace qkdpp {
namespace {

TEST(BitVec, EmptyDefaults) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.popcount(), 0u);
  EXPECT_FALSE(v.parity());
}

TEST(BitVec, ConstructFilled) {
  BitVec zeros(130, false);
  EXPECT_EQ(zeros.size(), 130u);
  EXPECT_EQ(zeros.popcount(), 0u);

  BitVec ones(130, true);
  EXPECT_EQ(ones.popcount(), 130u);
  EXPECT_FALSE(ones.parity());  // 130 is even
  // Tail invariant: unused bits of the last word are zero.
  EXPECT_EQ(ones.words().back() >> (130 - 128), 0u);
}

TEST(BitVec, SetGetFlip) {
  BitVec v(200);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(199, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(199));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.flip(199);
  EXPECT_FALSE(v.get(199));
  v.flip(100);
  EXPECT_TRUE(v.get(100));
  EXPECT_EQ(v.popcount(), 4u);
}

TEST(BitVec, PushBackGrows) {
  BitVec v;
  for (int i = 0; i < 300; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(v.get(i), i % 3 == 0) << i;
}

TEST(BitVec, XorMatchesOracle) {
  Xoshiro256 rng(42);
  BitVec a = rng.random_bits(777);
  BitVec b = rng.random_bits(777);
  BitVec c = a;
  c ^= b;
  for (std::size_t i = 0; i < 777; ++i) {
    EXPECT_EQ(c.get(i), a.get(i) != b.get(i)) << i;
  }
}

TEST(BitVec, XorSizeMismatchThrows) {
  BitVec a(10), b(11);
  EXPECT_THROW(a ^= b, std::invalid_argument);
}

TEST(BitVec, AndOrMatchOracle) {
  Xoshiro256 rng(43);
  const BitVec a = rng.random_bits(300);
  const BitVec b = rng.random_bits(300);
  BitVec land = a;
  land &= b;
  BitVec lor = a;
  lor |= b;
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(land.get(i), a.get(i) && b.get(i));
    EXPECT_EQ(lor.get(i), a.get(i) || b.get(i));
  }
}

TEST(BitVec, ParityRangeMatchesNaive) {
  Xoshiro256 rng(7);
  const BitVec v = rng.random_bits(513);
  std::mt19937 gen(1);
  for (int trial = 0; trial < 500; ++trial) {
    std::size_t b = gen() % 513;
    std::size_t e = gen() % 514;
    if (b > e) std::swap(b, e);
    bool expected = false;
    for (std::size_t i = b; i < e; ++i) expected ^= v.get(i);
    EXPECT_EQ(v.parity_range(b, e), expected) << b << " " << e;
  }
}

TEST(BitVec, ParityRangeExact) {
  BitVec v(256);
  v.set(64, true);
  v.set(127, true);
  v.set(128, true);
  EXPECT_EQ(v.parity_range(64, 128), false);  // bits 64 and 127
  EXPECT_EQ(v.parity_range(64, 129), true);   // bits 64, 127, 128
  EXPECT_EQ(v.parity_range(128, 256), true);
  EXPECT_EQ(v.parity_range(5, 5), false);
}

TEST(BitVec, SubvecMatchesOracle) {
  Xoshiro256 rng(11);
  const BitVec v = rng.random_bits(1000);
  std::mt19937 gen(2);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t pos = gen() % 900;
    const std::size_t len = gen() % (1000 - pos);
    const BitVec s = v.subvec(pos, len);
    ASSERT_EQ(s.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(s.get(i), v.get(pos + i)) << pos << "+" << i;
    }
  }
}

TEST(BitVec, AppendMatchesOracle) {
  Xoshiro256 rng(12);
  for (const std::size_t la : {0u, 1u, 63u, 64u, 65u, 130u}) {
    for (const std::size_t lb : {0u, 1u, 63u, 64u, 65u, 200u}) {
      const BitVec a = rng.random_bits(la);
      const BitVec b = rng.random_bits(lb);
      BitVec joined = a;
      joined.append(b);
      ASSERT_EQ(joined.size(), la + lb);
      for (std::size_t i = 0; i < la; ++i) ASSERT_EQ(joined.get(i), a.get(i));
      for (std::size_t i = 0; i < lb; ++i)
        ASSERT_EQ(joined.get(la + i), b.get(i));
    }
  }
}

TEST(BitVec, GatherSelectsPositions) {
  Xoshiro256 rng(13);
  const BitVec v = rng.random_bits(500);
  const std::vector<std::uint32_t> idx = {0, 5, 63, 64, 65, 499, 250};
  const BitVec g = v.gather(idx);
  ASSERT_EQ(g.size(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(g.get(i), v.get(idx[i]));
  }
}

// Every gather body, run where the host can execute it, against a per-bit
// get() reference. Source lengths run from 0 to 70,000 bits, on and off
// 32- and 64-bit boundaries (the AVX2 body loads 32-bit halves of the
// source words); output lengths cover a partial first word, whole words
// and a partial last word; and positions hit the source's last bit in
// lanes 0, 3 and 6 of the first 8-position step and as the final
// position.
class GatherBody : public ::testing::TestWithParam<detail::GatherIsa> {};

TEST_P(GatherBody, MatchesPerBitReferenceAtRandomSizes) {
  const detail::GatherIsa isa = GetParam();
  if (!detail::gather_isa_available(isa)) {
    GTEST_SKIP() << "gather body not runnable on this CPU";
  }
  Xoshiro256 rng(31);
  std::vector<std::size_t> source_sizes = {0,  1,   31,  32,   33,    63,
                                           64, 65,  95,  97,   4097,  69999,
                                           70000};
  for (int i = 0; i < 40; ++i) {
    source_sizes.push_back(1 + static_cast<std::size_t>(rng.uniform(70000)));
  }
  for (const std::size_t n : source_sizes) {
    const BitVec source = rng.random_bits(n);
    std::vector<std::size_t> output_sizes = {0};
    if (n != 0) {
      output_sizes.insert(output_sizes.end(),
                          {1, 7, 8, 9, 63, 64, 65, 127, 128, 200, 3 * 64 + 17,
                           1 + static_cast<std::size_t>(rng.uniform(1000))});
    }
    for (const std::size_t m : output_sizes) {
      std::vector<std::uint32_t> positions(m);
      for (auto& p : positions) {
        p = static_cast<std::uint32_t>(rng.uniform(n));
      }
      const auto last = static_cast<std::uint32_t>(n - 1);
      for (std::size_t i = 0; i < std::min<std::size_t>(m, 8); i += 3) {
        positions[i] = last;
      }
      if (m != 0) positions.back() = last;
      const std::string what =
          "source " + std::to_string(n) + " output " + std::to_string(m);
      const BitVec got = detail::gather_on(isa, source, positions);
      ASSERT_EQ(got.size(), m) << what;
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_EQ(got.get(i), source.get(positions[i])) << what << " bit " << i;
      }
      if (m % 64 != 0) {
        EXPECT_EQ(got.words().back() >> (m % 64), 0u) << what << " tail";
      }
      EXPECT_EQ(source.gather(positions), got) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isas, GatherBody,
                         ::testing::Values(detail::GatherIsa::kPortable,
                                           detail::GatherIsa::kAvx2),
                         [](const auto& info) {
                           return info.param == detail::GatherIsa::kAvx2
                                      ? std::string("Avx2")
                                      : std::string("Portable");
                         });

TEST(BitVec, SelectMatchesBitLoop) {
  Xoshiro256 rng(20);
  // Word-boundary sizes where the compress accumulator wraps or ends flush.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    const BitVec v = rng.random_bits(n);
    const BitVec mask = rng.random_bits(n);
    const BitVec got = v.select(mask);
    BitVec expected;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask.get(i)) expected.push_back(v.get(i));
    }
    EXPECT_EQ(got, expected) << n;
  }
}

TEST(BitVec, SelectDegenerateMasks) {
  Xoshiro256 rng(21);
  const BitVec v = rng.random_bits(200);
  EXPECT_EQ(v.select(BitVec(200, true)), v);    // identity
  EXPECT_TRUE(v.select(BitVec(200)).empty());   // nothing kept
  BitVec dense_run(200);
  for (std::size_t i = 30; i < 130; ++i) dense_run.set(i, true);
  EXPECT_EQ(v.select(dense_run), v.subvec(30, 100));  // contiguous = subvec
  EXPECT_THROW(v.select(BitVec(100)), std::invalid_argument);
}

TEST(BitVec, ReserveKeepsContents) {
  BitVec v;
  v.reserve(1000);
  for (int i = 0; i < 300; ++i) v.push_back(i % 7 == 0);
  EXPECT_EQ(v.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(v.get(i), i % 7 == 0) << i;
}

TEST(BitVec, BytesRoundTrip) {
  Xoshiro256 rng(14);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 65u, 1000u}) {
    const BitVec v = rng.random_bits(n);
    const auto bytes = v.to_bytes();
    EXPECT_EQ(bytes.size(), (n + 7) / 8);
    const BitVec back = BitVec::from_bytes(bytes, n);
    EXPECT_EQ(back, v) << n;
  }
}

TEST(BitVec, HammingDistance) {
  BitVec a(100), b(100);
  a.set(3, true);
  b.set(3, true);
  a.set(99, true);
  b.set(50, true);
  EXPECT_EQ(BitVec::hamming_distance(a, b), 2u);
  EXPECT_EQ(BitVec::hamming_distance(a, a), 0u);
}

TEST(BitVec, ResizePreservesPrefixAndMasksTail) {
  BitVec v(100, true);
  v.resize(40);
  EXPECT_EQ(v.size(), 40u);
  EXPECT_EQ(v.popcount(), 40u);
  v.resize(100);
  EXPECT_EQ(v.popcount(), 40u);  // grown bits are zero
}

TEST(BitVec, FromBools) {
  const std::vector<std::uint8_t> bools = {1, 0, 1, 1, 0};
  const BitVec v = BitVec::from_bools(bools);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
  EXPECT_TRUE(v.get(3));
  EXPECT_FALSE(v.get(4));
}

TEST(BitVec, ToStringTruncates) {
  BitVec v(10);
  v.set(0, true);
  EXPECT_EQ(v.to_string(), "1000000000");
  EXPECT_EQ(v.to_string(4), "1000...");
}

// Property sweep: xor linearity of popcount parity across sizes.
class BitVecSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVecSizeSweep, ParityEqualsPopcountMod2) {
  Xoshiro256 rng(GetParam() + 99);
  const BitVec v = rng.random_bits(GetParam());
  EXPECT_EQ(v.parity(), v.popcount() % 2 == 1);
  EXPECT_EQ(v.parity(), v.parity_range(0, v.size()));
}

TEST_P(BitVecSizeSweep, SubvecConcatIdentity) {
  Xoshiro256 rng(GetParam() + 1000);
  const std::size_t n = GetParam();
  const BitVec v = rng.random_bits(n);
  const std::size_t cut = n / 3;
  BitVec joined = v.subvec(0, cut);
  joined.append(v.subvec(cut, n - cut));
  EXPECT_EQ(joined, v);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVecSizeSweep,
                         ::testing::Values(1, 3, 63, 64, 65, 127, 128, 129,
                                           1000, 4096, 100000));

}  // namespace
}  // namespace qkdpp
