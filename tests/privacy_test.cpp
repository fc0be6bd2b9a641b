// Privacy amplification tests: Toeplitz correctness (clmul == direct ==
// naive), linearity, universality smoke test, PA planner formulas,
// verification tags.
#include "privacy/pa_planner.hpp"
#include "privacy/toeplitz.hpp"
#include "privacy/verification.hpp"

#include <gtest/gtest.h>

#include "common/gf2.hpp"
#include "common/rng.hpp"

namespace qkdpp::privacy {
namespace {

/// Bit-at-a-time oracle, straight from the definition.
BitVec toeplitz_naive(const BitVec& x, const BitVec& t, std::size_t r) {
  const std::size_t n = x.size();
  BitVec y(r);
  for (std::size_t j = 0; j < r; ++j) {
    bool acc = false;
    for (std::size_t i = 0; i < n; ++i) {
      acc ^= x.get(i) && t.get(n - 1 + j - i);
    }
    if (acc) y.set(j, true);
  }
  return y;
}

TEST(Toeplitz, SeedExpansionDeterministic) {
  const BitVec a = toeplitz_seed(42, 1000);
  const BitVec b = toeplitz_seed(42, 1000);
  const BitVec c = toeplitz_seed(43, 1000);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1000u);
}

TEST(Toeplitz, DirectMatchesNaiveSmall) {
  Xoshiro256 rng(1);
  for (const auto [n, r] : {std::pair<std::size_t, std::size_t>{8, 4},
                            {64, 64},
                            {65, 33},
                            {130, 100},
                            {257, 31}}) {
    const BitVec x = rng.random_bits(n);
    const BitVec t = rng.random_bits(n + r - 1);
    EXPECT_EQ(toeplitz_hash_direct(x, t, r), toeplitz_naive(x, t, r))
        << n << "x" << r;
  }
}

TEST(Toeplitz, ClmulMatchesDirectAtWordBoundaries) {
  Xoshiro256 rng(20);
  // Every (n, r) pairing of the word-boundary sizes: the clmul kernel's
  // chunking, Karatsuba splits, and the output window slice all hit their
  // edge cases here.
  const std::size_t sizes[] = {63, 64, 65, 127, 128, 129};
  for (const std::size_t n : sizes) {
    for (const std::size_t r : sizes) {
      const BitVec x = rng.random_bits(n);
      const BitVec t = rng.random_bits(n + r - 1);
      EXPECT_EQ(toeplitz_hash_clmul(x, t, r), toeplitz_hash_direct(x, t, r))
          << n << "x" << r;
    }
  }
}

TEST(Toeplitz, ClmulMatchesDirectRandomized) {
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(6000));
    const std::size_t r = 1 + static_cast<std::size_t>(rng.uniform(n));
    const BitVec x = rng.random_bits(n);
    const BitVec t = rng.random_bits(n + r - 1);
    EXPECT_EQ(toeplitz_hash_clmul(x, t, r), toeplitz_hash_direct(x, t, r))
        << n << "x" << r;
  }
}

TEST(Toeplitz, ClmulMatchesDirectAtBlockSizes) {
  // Up to PA-sized blocks: the 10^5-bit and 2^17-bit shapes are the only
  // ones that recurse through several Karatsuba levels (2^17 bits is 2048
  // words a side).
  Xoshiro256 rng(22);
  for (const auto& [n, r] : {std::pair<std::size_t, std::size_t>{64, 32},
                             {1000, 800},
                             {4096, 2048},
                             {10000, 9999},
                             {1 << 15, 1 << 14},
                             {100000, 50000},
                             {1 << 17, 1 << 16}}) {
    const BitVec x = rng.random_bits(n);
    const BitVec t = rng.random_bits(n + r - 1);
    EXPECT_EQ(toeplitz_hash_clmul(x, t, r), toeplitz_hash_direct(x, t, r))
        << n << "x" << r;
  }
}

TEST(Toeplitz, ClmulShapeValidation) {
  Xoshiro256 rng(23);
  const BitVec x = rng.random_bits(100);
  EXPECT_THROW(toeplitz_hash_clmul(x, rng.random_bits(100), 50),
               std::invalid_argument);
  EXPECT_THROW(toeplitz_hash_clmul(BitVec(), rng.random_bits(149), 50),
               std::invalid_argument);
}

TEST(Toeplitz, DispatcherConsistent) {
  Xoshiro256 rng(3);
  // Above the crossover: clmul path, must match the direct oracle.
  const std::size_t n = kClmulCrossover;
  const BitVec x = rng.random_bits(n);
  const BitVec t = rng.random_bits(n + 100 - 1);
  EXPECT_EQ(toeplitz_hash(x, t, 100), toeplitz_hash_direct(x, t, 100));
  const BitVec x_mid = rng.random_bits(512);
  const BitVec t_mid = rng.random_bits(512 + 100 - 1);
  EXPECT_EQ(toeplitz_hash(x_mid, t_mid, 100),
            toeplitz_hash_direct(x_mid, t_mid, 100));
  // Below the crossover: direct path, must match the clmul kernel.
  const std::size_t n_small = kClmulCrossover - 1;
  const BitVec x_small = rng.random_bits(n_small);
  const BitVec t_small = rng.random_bits(n_small + 10 - 1);
  EXPECT_EQ(toeplitz_hash(x_small, t_small, 10),
            toeplitz_hash_clmul(x_small, t_small, 10));
}

TEST(Toeplitz, LinearityProperty) {
  // T(x ^ y) == T(x) ^ T(y) for any fixed seed: the defining property of a
  // linear hash, and what makes Toeplitz PA composable with XOR secrets.
  Xoshiro256 rng(4);
  const std::size_t n = 2048, r = 1024;
  const BitVec t = rng.random_bits(n + r - 1);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec x = rng.random_bits(n);
    const BitVec y = rng.random_bits(n);
    BitVec xy = x;
    xy ^= y;
    BitVec expected = toeplitz_hash_direct(x, t, r);
    expected ^= toeplitz_hash_direct(y, t, r);
    EXPECT_EQ(toeplitz_hash_direct(xy, t, r), expected);
  }
}

TEST(Toeplitz, ZeroInputHashesToZero) {
  Xoshiro256 rng(5);
  const BitVec x(1000);
  const BitVec t = rng.random_bits(1000 + 500 - 1);
  EXPECT_EQ(toeplitz_hash_direct(x, t, 500).popcount(), 0u);
  EXPECT_EQ(toeplitz_hash_clmul(x, t, 500).popcount(), 0u);
}

TEST(Toeplitz, UniversalitySmokeTest) {
  // Over random seeds, two distinct inputs collide with probability ~2^-r.
  // With r = 16 and 3000 trials we expect ~0.05 collisions; allow a few.
  Xoshiro256 rng(6);
  const std::size_t n = 256, r = 16;
  const BitVec x = rng.random_bits(n);
  BitVec y = x;
  y.flip(100);
  int collisions = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const BitVec t = rng.random_bits(n + r - 1);
    collisions +=
        toeplitz_hash_direct(x, t, r) == toeplitz_hash_direct(y, t, r);
  }
  EXPECT_LE(collisions, 3);
}

TEST(Toeplitz, OutputBitsAreBalanced) {
  Xoshiro256 rng(7);
  const std::size_t n = 4096, r = 2048;
  const BitVec x = rng.random_bits(n);
  const BitVec t = rng.random_bits(n + r - 1);
  const BitVec y = toeplitz_hash(x, t, r);
  const double frac = static_cast<double>(y.popcount()) / r;
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(Toeplitz, ShapeValidation) {
  Xoshiro256 rng(8);
  const BitVec x = rng.random_bits(100);
  const BitVec t = rng.random_bits(100);  // wrong length
  EXPECT_THROW(toeplitz_hash_direct(x, t, 50), std::invalid_argument);
  EXPECT_THROW(toeplitz_hash_clmul(x, t, 50), std::invalid_argument);
  EXPECT_THROW(toeplitz_hash_direct(BitVec(), t, 50), std::invalid_argument);
  EXPECT_THROW(toeplitz_hash_direct(x, rng.random_bits(99), 0),
               std::invalid_argument);
}

TEST(PaPlanner, ShrinksWithLeakage) {
  const auto a = plan_privacy_amplification(100000, 5000, 0.02, 20000);
  const auto b = plan_privacy_amplification(100000, 5000, 0.02, 40000);
  ASSERT_TRUE(a.viable);
  ASSERT_TRUE(b.viable);
  EXPECT_GT(a.output_bits, b.output_bits);
  EXPECT_EQ(a.output_bits - b.output_bits, 20000u);
}

TEST(PaPlanner, ShrinksWithPhaseError) {
  const auto a = plan_privacy_amplification(100000, 5000, 0.01, 20000);
  const auto b = plan_privacy_amplification(100000, 5000, 0.05, 20000);
  EXPECT_GT(a.output_bits, b.output_bits);
}

TEST(PaPlanner, SamplePenaltyShrinksWithSampleSize) {
  const auto tiny = plan_privacy_amplification(100000, 200, 0.02, 20000);
  const auto big = plan_privacy_amplification(100000, 20000, 0.02, 20000);
  EXPECT_GT(big.phase_error_bound, 0.02);
  EXPECT_LT(big.phase_error_bound, tiny.phase_error_bound);
}

TEST(PaPlanner, NotViableWhenLeakDominates) {
  const auto plan = plan_privacy_amplification(10000, 1000, 0.08, 9000);
  EXPECT_FALSE(plan.viable);
  EXPECT_EQ(plan.output_bits, 0u);
}

TEST(PaPlanner, NotViableAtHalfErrorRate) {
  const auto plan = plan_privacy_amplification(100000, 10000, 0.5, 0);
  EXPECT_FALSE(plan.viable);
}

TEST(PaPlanner, EmptyInput) {
  const auto plan = plan_privacy_amplification(0, 0, 0.01, 0);
  EXPECT_FALSE(plan.viable);
}

TEST(PaPlanner, SecurityCostsAreCharged) {
  // Zero-error, zero-leak plan still pays the composable epsilon costs and
  // the (small, well-sampled) phase-error penalty.
  const auto plan = plan_privacy_amplification(100000, 1000000, 0.0, 0);
  ASSERT_TRUE(plan.viable);
  EXPECT_LT(plan.output_bits, 100000u);
  EXPECT_GT(plan.output_bits, 85000u);
}

TEST(PaPlanner, LaxEpsilonsNeverInflateTheKey) {
  // Regression: pa_cost = 2 log2(1/(2 eps_pa)) goes negative for
  // eps_pa > 0.5 (and correctness_cost for eps_corr > 2), which used to
  // *credit* ~2.3 bits back and let output_bits exceed input_bits whenever
  // the sampling penalty was small enough (tiny key, huge sample, lax
  // eps_pe): this exact plan produced 101 output bits from 100 input bits.
  SecurityParams lax;
  lax.eps_pe = 0.9999;
  lax.eps_pa = 0.9;
  lax.eps_corr = 3.0;
  const auto plan = plan_privacy_amplification(100, 1000000000, 0.0, 0, lax);
  ASSERT_TRUE(plan.viable);
  EXPECT_LE(plan.output_bits, plan.input_bits);
}

TEST(PaPlanner, OutputNeverExceedsInputAcrossEpsilonSweep) {
  for (const double eps : {1e-10, 0.4, 0.5, 0.6, 0.99}) {
    SecurityParams params;
    params.eps_pe = 0.999;
    params.eps_pa = eps;
    params.eps_corr = eps * 4;  // crosses the eps_corr = 2 threshold too
    for (const std::size_t n_key : {16u, 100u, 5000u}) {
      const auto plan =
          plan_privacy_amplification(n_key, 100000000, 0.0, 0, params);
      EXPECT_LE(plan.output_bits, plan.input_bits)
          << "eps_pa=" << eps << " n=" << n_key;
    }
  }
}

TEST(PaPlanner, InvalidParamsThrow) {
  EXPECT_THROW(plan_privacy_amplification(100, 10, -0.1, 0),
               std::invalid_argument);
  SecurityParams params;
  params.eps_pa = 0.0;
  EXPECT_THROW(plan_privacy_amplification(100, 10, 0.01, 0, params),
               std::invalid_argument);
}

TEST(DecoyRate, PositiveBelowThresholdZeroAbove) {
  // Healthy link: plenty of single-photon secrecy.
  EXPECT_GT(decoy_key_rate_asymptotic(0.5, 0.02, 0.02, 0.025, 0.02, 1.16),
            0.0);
  // e1 at 50%: nothing extractable.
  EXPECT_DOUBLE_EQ(
      decoy_key_rate_asymptotic(0.5, 0.02, 0.5, 0.025, 0.02, 1.16), 0.0);
}

TEST(DecoyRate, MonotoneInErrorRates) {
  const double base =
      decoy_key_rate_asymptotic(0.5, 0.02, 0.02, 0.025, 0.02, 1.16);
  EXPECT_LT(decoy_key_rate_asymptotic(0.5, 0.02, 0.05, 0.025, 0.02, 1.16),
            base);
  EXPECT_LT(decoy_key_rate_asymptotic(0.5, 0.02, 0.02, 0.025, 0.05, 1.16),
            base);
  EXPECT_LT(decoy_key_rate_asymptotic(0.5, 0.02, 0.02, 0.025, 0.02, 1.5),
            base);
}

TEST(Verification, EqualKeysAlwaysVerify) {
  Xoshiro256 rng(9);
  for (const std::size_t n : {1u, 64u, 1000u, 100000u}) {
    const BitVec key = rng.random_bits(n);
    const std::uint64_t seed = rng.next_u64();
    EXPECT_TRUE(keys_verify(key, key, seed)) << n;
  }
}

TEST(Verification, SingleBitDifferenceDetected) {
  Xoshiro256 rng(10);
  const BitVec a = rng.random_bits(10000);
  for (const std::size_t flip_at : {0u, 5000u, 9999u}) {
    BitVec b = a;
    b.flip(flip_at);
    int detected = 0;
    for (int trial = 0; trial < 50; ++trial) {
      detected += !keys_verify(a, b, trial);
    }
    EXPECT_EQ(detected, 50) << flip_at;
  }
}

TEST(Verification, TagDependsOnSeed) {
  Xoshiro256 rng(11);
  const BitVec key = rng.random_bits(1000);
  EXPECT_NE(verification_tag(key, 1), verification_tag(key, 2));
}

TEST(Verification, TagDeterministic) {
  Xoshiro256 rng(12);
  const BitVec key = rng.random_bits(1000);
  EXPECT_EQ(verification_tag(key, 77), verification_tag(key, 77));
}

/// The hash point verification_tag derives from its public seed (pinned
/// here so the cross-check below exercises the same r the tag used).
U128 verification_point(std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x5eedf0011ULL);
  return U128{rng.next_u64(), rng.next_u64()};
}

TEST(Verification, TagIsPolyHashAtSeedPoint) {
  // The tag is poly_hash of the key's bytes at the point derived from the
  // public seed; pin the derivation bit for bit.
  Xoshiro256 rng(13);
  for (const std::size_t bits : {8u, 64u, 256u, 1000u, 4096u, 100000u}) {
    const BitVec key = rng.random_bits(bits);
    const std::uint64_t seed = rng.next_u64();
    const U128 r = verification_point(seed);
    const auto bytes = key.to_bytes();
    EXPECT_EQ(verification_tag(key, seed), poly_hash(r, bytes))
        << bits << " bits";
  }
}

TEST(Verification, TagIsPolyHashAtBlockBoundaries) {
  // 16-byte-block edges of the Horner loop: exactly one block, one block
  // +/- one byte, several blocks, and the empty-message length block.
  Xoshiro256 rng(14);
  const std::size_t byte_sizes[] = {0, 1, 15, 16, 17, 31, 32, 33, 48, 127, 128};
  for (const std::size_t n_bytes : byte_sizes) {
    const BitVec key = rng.random_bits(n_bytes * 8);
    ASSERT_EQ(key.to_bytes().size(), n_bytes);
    const std::uint64_t seed = 0xb10cull + n_bytes;
    const U128 r = verification_point(seed);
    EXPECT_EQ(verification_tag(key, seed), poly_hash(r, key.to_bytes()))
        << n_bytes << " bytes";
  }
}

TEST(Verification, PartialBlockPaddingIsLengthDistinguished) {
  // A partial final block is zero-padded; the leading length block must
  // still separate a key from its zero-extended sibling, and both tags stay
  // poly_hash at the seed's point.
  Xoshiro256 rng(15);
  const BitVec key = rng.random_bits(9 * 8);  // 9 bytes: partial block
  BitVec extended = key;
  for (int i = 0; i < 8; ++i) extended.push_back(false);  // 10 bytes, 0-padded
  const std::uint64_t seed = 99;
  const U128 r = verification_point(seed);
  EXPECT_NE(verification_tag(key, seed), verification_tag(extended, seed));
  EXPECT_EQ(verification_tag(key, seed), poly_hash(r, key.to_bytes()));
  EXPECT_EQ(verification_tag(extended, seed),
            poly_hash(r, extended.to_bytes()));
}

}  // namespace
}  // namespace qkdpp::privacy
