// Cascade tests: full-correction property across the (n, qber) grid,
// leakage/efficiency envelope, permutation agreement, responder math.
#include "reconcile/cascade.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "common/entropy.hpp"
#include "common/rng.hpp"
#include "reconcile/parity_oracle.hpp"
#include "reconcile/reconciler.hpp"

namespace qkdpp::reconcile {
namespace {

/// Flip each bit of `key` with probability q, returning the corrupted copy.
BitVec corrupt(const BitVec& key, double q, Xoshiro256& rng) {
  BitVec noisy = key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (rng.bernoulli(q)) noisy.flip(i);
  }
  return noisy;
}

TEST(CascadePermutation, PassZeroIsIdentity) {
  const auto perm = cascade_permutation(100, 42, 0);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(perm[i], i);
}

// Pass 0 is the identity by construction: the table leaves it empty, both
// sides read it straight from the key, and a written-out identity is
// refused rather than gathered.
TEST(CascadePermutation, PassZeroIsNotStored) {
  const auto permutations = cascade_permutations(100, 42, 3);
  ASSERT_EQ(permutations.size(), 3u);
  EXPECT_TRUE(permutations[0].empty());
  EXPECT_EQ(permutations[1], cascade_permutation(100, 42, 1));
  EXPECT_EQ(permutations[2], cascade_permutation(100, 42, 2));

  auto written_out = permutations;
  written_out[0] = cascade_permutation(100, 42, 0);
  Xoshiro256 rng(4);
  const BitVec alice = rng.random_bits(100);
  EXPECT_THROW(CascadeResponder(alice, written_out), std::invalid_argument);
  LocalParityOracle oracle(alice, permutations);
  BitVec bob = alice;
  CascadeConfig config;
  config.passes = 3;
  EXPECT_THROW(cascade_reconcile(bob, oracle, 0.02, config, written_out),
               std::invalid_argument);
}

TEST(CascadePermutation, DeterministicAndPassDependent) {
  const auto a = cascade_permutation(1000, 7, 1);
  const auto b = cascade_permutation(1000, 7, 1);
  const auto c = cascade_permutation(1000, 7, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(CascadeResponder, RangeParitiesMatchDirectComputation) {
  // Sizes around the word boundaries: the prefix vector holds n+1 bits, so
  // ranges ending at n read its tail word.
  for (const std::uint32_t n : {1u, 63u, 64u, 65u, 517u, 4097u}) {
    Xoshiro256 rng(n);
    const BitVec key = rng.random_bits(n);
    const CascadeResponder responder(key, cascade_permutations(n, 99, 3));
    const std::vector<ParityRange> ranges = {
        {0, 1},     {0, n},         {n / 3, 2 * n / 3}, {n - 1, n},
        {n / 2, n}, {n / 2, n / 2}, {n, n},             {0, n / 2 + 1}};
    for (std::uint32_t pass = 0; pass < 3; ++pass) {
      const auto perm = cascade_permutation(n, 99, pass);
      const BitVec got = responder.parities(pass, ranges);
      ASSERT_EQ(got.size(), ranges.size());
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        bool expected = false;
        for (std::uint32_t j = ranges[i].begin; j < ranges[i].end; ++j) {
          expected ^= key.get(perm[j]);
        }
        EXPECT_EQ(got.get(i), expected)
            << "n " << n << " pass " << pass << " range " << i;
      }
    }
  }
}

TEST(CascadeBlockSize, RuleOfThumb) {
  EXPECT_EQ(cascade_block_size(0.01, 1u << 14), 73u);
  EXPECT_EQ(cascade_block_size(0.05, 1u << 14), 15u);
  EXPECT_EQ(cascade_block_size(0.5, 1u << 14), 2u);   // clamped below
  EXPECT_EQ(cascade_block_size(0.0, 1u << 14), 1u << 14);  // clamped above
}

TEST(Cascade, CorrectsSingleError) {
  Xoshiro256 rng(2);
  const BitVec alice = rng.random_bits(1024);
  BitVec bob = alice;
  bob.flip(500);
  const CascadeConfig config{};
  LocalParityOracle oracle(alice, 5, config.passes);
  const auto result = cascade_reconcile(bob, oracle, 0.01, 5, config);
  EXPECT_EQ(bob, alice);
  EXPECT_EQ(result.corrected_bits, 1u);
}

TEST(Cascade, NoErrorsMeansNoCorrections) {
  Xoshiro256 rng(3);
  const BitVec alice = rng.random_bits(4096);
  BitVec bob = alice;
  const CascadeConfig config{};
  LocalParityOracle oracle(alice, 6, config.passes);
  const auto result = cascade_reconcile(bob, oracle, 0.02, 6, config);
  EXPECT_EQ(bob, alice);
  EXPECT_EQ(result.corrected_bits, 0u);
  // Leakage is just the per-pass block parities.
  EXPECT_EQ(result.rounds, config.passes);
}

TEST(Cascade, AdversarialBurstErrors) {
  Xoshiro256 rng(4);
  const BitVec alice = rng.random_bits(8192);
  BitVec bob = alice;
  for (std::size_t i = 4000; i < 4064; ++i) bob.flip(i);  // 64-bit burst
  CascadeConfig config;
  config.passes = 6;
  LocalParityOracle oracle(alice, 7, config.passes);
  cascade_reconcile(bob, oracle, 64.0 / 8192, 7, config);
  EXPECT_EQ(bob, alice);
}

struct CascadeCase {
  std::size_t n;
  double qber;
};

class CascadeSweep : public ::testing::TestWithParam<CascadeCase> {};

TEST_P(CascadeSweep, FullyCorrects) {
  const auto [n, q] = GetParam();
  Xoshiro256 rng(n * 131 + static_cast<std::uint64_t>(q * 10000));
  const BitVec alice = rng.random_bits(n);
  BitVec bob = corrupt(alice, q, rng);

  CascadeConfig config;
  config.passes = 6;  // generous pass count -> residual FER negligible
  LocalParityOracle oracle(alice, 17, config.passes);
  const auto result = cascade_reconcile(bob, oracle, q, 17, config);
  EXPECT_EQ(bob, alice) << "n=" << n << " q=" << q;
  EXPECT_GT(result.leaked_bits, 0u);
}

TEST_P(CascadeSweep, EfficiencyEnvelope) {
  const auto [n, q] = GetParam();
  if (n < 4096) GTEST_SKIP() << "efficiency only meaningful at scale";
  Xoshiro256 rng(n * 177 + static_cast<std::uint64_t>(q * 10000) + 5);
  const BitVec alice = rng.random_bits(n);
  BitVec bob = corrupt(alice, q, rng);

  CascadeConfig config;
  config.passes = 6;
  LocalParityOracle oracle(alice, 18, config.passes);
  const auto result = cascade_reconcile(bob, oracle, q, 18, config);
  ASSERT_EQ(bob, alice);
  const double f = result.efficiency(n, q);
  // Above the Shannon limit, below a loose production ceiling.
  EXPECT_GT(f, 1.0) << "q=" << q;
  EXPECT_LT(f, 2.0) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CascadeSweep,
    ::testing::Values(CascadeCase{256, 0.02}, CascadeCase{1024, 0.005},
                      CascadeCase{1024, 0.03}, CascadeCase{4096, 0.01},
                      CascadeCase{4096, 0.05}, CascadeCase{16384, 0.02},
                      CascadeCase{16384, 0.08}, CascadeCase{65536, 0.03},
                      CascadeCase{65536, 0.11}));

TEST(Cascade, LeakageScalesWithQber) {
  Xoshiro256 rng(20);
  const std::size_t n = 16384;
  const BitVec alice = rng.random_bits(n);
  std::uint64_t previous_leak = 0;
  for (const double q : {0.01, 0.03, 0.06}) {
    BitVec bob = corrupt(alice, q, rng);
    CascadeConfig config;
    config.passes = 6;
    LocalParityOracle oracle(alice, 21, config.passes);
    const auto result = cascade_reconcile(bob, oracle, q, 21, config);
    ASSERT_EQ(bob, alice);
    EXPECT_GT(result.leaked_bits, previous_leak);
    previous_leak = result.leaked_bits;
  }
}

TEST(Cascade, OracleAndEngineAgreeOnAccounting) {
  Xoshiro256 rng(22);
  const std::size_t n = 8192;
  const BitVec alice = rng.random_bits(n);
  BitVec bob = corrupt(alice, 0.03, rng);
  const CascadeConfig config{};
  LocalParityOracle oracle(alice, 23, config.passes);
  const auto result = cascade_reconcile(bob, oracle, 0.03, 23, config);
  EXPECT_EQ(result.leaked_bits, oracle.bits_leaked());
  EXPECT_EQ(result.rounds, oracle.rounds());
}

TEST(Cascade, WrongSeedDesynchronizesHarmlessly) {
  // A mismatched permutation seed must not crash; it just fails to correct
  // (verification would catch it in the pipeline).
  Xoshiro256 rng(24);
  const BitVec alice = rng.random_bits(2048);
  BitVec bob = corrupt(alice, 0.02, rng);
  CascadeConfig config;
  config.max_rounds = 2000;  // desync never converges; cap terminates it
  LocalParityOracle oracle(alice, /*seed=*/200, config.passes);  // wrong seed
  CascadeResult result;
  EXPECT_NO_THROW(result = cascade_reconcile(bob, oracle, 0.02, 100, config));
  EXPECT_FALSE(result.converged);
}

TEST(Cascade, ConvergedFlagReportsRoundExhaustion) {
  // Regression: hitting max_rounds used to return with odd blocks still
  // unresolved and no way for the caller to tell the run from a clean one.
  Xoshiro256 rng(25);
  const std::size_t n = 4096;
  const BitVec alice = rng.random_bits(n);
  BitVec bob = corrupt(alice, 0.05, rng);
  CascadeConfig config;
  config.passes = 6;
  config.max_rounds = 8;  // nowhere near enough for ~200 errors
  LocalParityOracle oracle(alice, 26, config.passes);
  const auto result = cascade_reconcile(bob, oracle, 0.05, 26, config);
  EXPECT_FALSE(result.converged);
  EXPECT_NE(bob, alice);
  // Cap checked per batch; one in-flight bisection may overshoot slightly.
  EXPECT_LE(result.rounds, config.max_rounds + 32);

  // The same run with the full budget converges and says so.
  BitVec bob_again = corrupt(alice, 0.05, rng);
  CascadeConfig generous = config;
  generous.max_rounds = 100000;
  LocalParityOracle fresh(alice, 26, generous.passes);
  const auto ok = cascade_reconcile(bob_again, fresh, 0.05, 26, generous);
  EXPECT_TRUE(ok.converged);
  EXPECT_EQ(bob_again, alice);
}

TEST(Cascade, NonConvergenceFailsLocalReconcileOutcome) {
  // The reconciler wrapper must surface non-convergence as failure so the
  // engine's reconcile stage can route the block into its failure path
  // instead of leaking a verification tag on a lost cause.
  Xoshiro256 rng(27);
  const BitVec alice = rng.random_bits(4096);
  BitVec bob = corrupt(alice, 0.05, rng);
  CascadeConfig config;
  config.max_rounds = 8;
  const auto failed =
      reconcile::cascade_reconcile_local(alice, bob, 0.05, 28, config);
  EXPECT_FALSE(failed.success);

  config.max_rounds = 100000;
  const auto ok =
      reconcile::cascade_reconcile_local(alice, bob, 0.05, 28, config);
  EXPECT_TRUE(ok.success);
  EXPECT_EQ(ok.corrected, alice);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct DigestCase {
  std::size_t n;
  double qber;
  std::uint32_t passes;
  std::uint64_t max_rounds;
  bool wrong_seed;  // the oracle answers for another permutation seed
};

// Pins every parity asked, every correction and every round count to the
// values the per-bit implementation produced: the digest below came from
// this test body linked against it. Both entry points run: the engine with
// a seed-derived LocalParityOracle, and cascade_reconcile_local.
TEST(CascadeDigest, MatchesParentDigest) {
  const DigestCase cases[] = {
      {1000, 0.02, 4, 100000, false},    // n not a multiple of 64
      {4096, 0.05, 4, 100000, false},
      {35713, 0.045, 6, 100000, false},  // a noisy-cascade block
      {20000, 0.09, 8, 100000, false},   // the hot band's 8 passes
      {4096, 0.05, 6, 8, false},         // round budget exhausted
      {2048, 0.02, 4, 2000, true},       // desynchronized peer
  };
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t converged = 0;
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    const DigestCase& dc = cases[c];
    Xoshiro256 rng(1000 + c);
    const BitVec alice = rng.random_bits(dc.n);
    const BitVec bob = corrupt(alice, dc.qber, rng);
    CascadeConfig config;
    config.passes = dc.passes;
    config.max_rounds = dc.max_rounds;
    const std::uint64_t seed = 77 + c;

    BitVec corrected = bob;
    const std::uint64_t oracle_seed = dc.wrong_seed ? seed + 1 : seed;
    LocalParityOracle oracle(alice, oracle_seed, config.passes);
    const CascadeResult result =
        cascade_reconcile(corrected, oracle, dc.qber, seed, config);
    digest = fnv1a(digest, result.rounds);
    digest = fnv1a(digest, result.leaked_bits);
    digest = fnv1a(digest, result.corrected_bits);
    digest = fnv1a(digest, result.converged ? 1u : 0u);
    for (const std::uint64_t w : corrected.words()) digest = fnv1a(digest, w);
    converged += result.converged ? 1 : 0;

    const ReconcileOutcome local =
        cascade_reconcile_local(alice, bob, dc.qber, seed, config);
    digest = fnv1a(digest, local.rounds);
    digest = fnv1a(digest, local.leaked_bits);
    digest = fnv1a(digest, local.success ? 1u : 0u);
    for (const std::uint64_t w : local.corrected.words()) {
      digest = fnv1a(digest, w);
    }
  }
  EXPECT_EQ(converged, 4u) << "the exhausted and desynchronized runs fail";
  EXPECT_EQ(digest, 0xfcbb18d200f0b2c1ULL) << std::hex << digest;
}

// Keys of shrinking, growing and repeated length and pass count
// reconciled one after another on one thread, each on the thread's reused
// inverse permutations and on one reused permutation buffer, must give
// each key exactly what a fresh thread with fresh buffers gives: a reused
// buffer's stale contents are never read, also when the length repeats
// under a new seed.
TEST(Cascade, ReusedThreadBuffersMatchFreshThread) {
  struct Shape {
    std::size_t n;
    double qber;
    std::uint32_t passes;
  };
  CascadePermutations permutations;
  Xoshiro256 rng(31);
  std::uint64_t seed = 0;
  for (const Shape shape : {Shape{35000, 0.05, 6}, Shape{1000, 0.02, 4},
                            Shape{4097, 0.09, 8}, Shape{64, 0.03, 2},
                            Shape{20000, 0.045, 6}, Shape{20000, 0.045, 6}}) {
    const BitVec alice = rng.random_bits(shape.n);
    const BitVec bob = corrupt(alice, shape.qber, rng);
    CascadeConfig config;
    config.passes = shape.passes;
    fill_cascade_permutations(shape.n, ++seed, config.passes, permutations);

    BitVec reused_key = bob;
    LocalParityOracle reused_oracle(alice, permutations);
    const CascadeResult reused = cascade_reconcile(
        reused_key, reused_oracle, shape.qber, config, permutations);
    BitVec fresh_key = bob;
    CascadeResult expected;
    std::thread([&] {
      const CascadePermutations fresh =
          cascade_permutations(shape.n, seed, config.passes);
      EXPECT_EQ(permutations, fresh) << shape.n;
      LocalParityOracle fresh_oracle(alice, fresh);
      expected = cascade_reconcile(fresh_key, fresh_oracle, shape.qber, config,
                                   fresh);
    }).join();
    EXPECT_EQ(reused_key, fresh_key) << shape.n;
    EXPECT_EQ(reused.leaked_bits, expected.leaked_bits) << shape.n;
    EXPECT_EQ(reused.rounds, expected.rounds) << shape.n;
    EXPECT_EQ(reused.corrected_bits, expected.corrected_bits) << shape.n;
    EXPECT_EQ(reused.converged, expected.converged) << shape.n;
  }
}

TEST(Cascade, ThrowsOnEmptyKey) {
  BitVec alice(64), bob;
  const CascadeConfig config{};
  LocalParityOracle oracle(alice, 0, config.passes);
  EXPECT_THROW(cascade_reconcile(bob, oracle, 0.02, 0, config),
               std::invalid_argument);
}

}  // namespace
}  // namespace qkdpp::reconcile
