// LDPC tests: PEG structure, syndrome math, int8 decoder convergence over
// a QBER grid, rate adaptation, blind reconciliation.
#include "reconcile/reconciler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/entropy.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "reconcile/batch_decoder.hpp"

namespace qkdpp::reconcile {
namespace {

BitVec corrupt(const BitVec& key, double q, Xoshiro256& rng) {
  BitVec noisy = key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (rng.bernoulli(q)) noisy.flip(i);
  }
  return noisy;
}

// One frame through the production exchange: alice/bob hold exactly one
// payload, reconciled by ldpc_reconcile_key_batch with a single frame seed.
ReconcileOutcome reconcile_one_frame(const BitVec& alice, const BitVec& bob,
                                     double qber, const FramePlan& plan,
                                     std::uint64_t frame_seed,
                                     const LdpcReconcilerConfig& config,
                                     Xoshiro256& alice_private) {
  const std::uint64_t seeds[] = {frame_seed};
  BitVec alice_out;
  BitVec bob_out;
  std::vector<ReconcileOutcome> per_frame;
  ldpc_reconcile_key_batch(alice, bob, qber, plan, seeds, config,
                           alice_private, /*arena=*/nullptr, alice_out,
                           bob_out, &per_frame);
  return per_frame.at(0);
}

TEST(LdpcCode, PegStructureIsValid) {
  const LdpcCode code = LdpcCode::peg(1024, 512, DegreeProfile::regular(3), 1);
  EXPECT_EQ(code.n(), 1024u);
  EXPECT_EQ(code.m(), 512u);
  EXPECT_EQ(code.edges(), 3 * 1024u);
  EXPECT_NO_THROW(code.validate());
  EXPECT_DOUBLE_EQ(code.rate(), 0.5);
}

TEST(LdpcCode, PegAvoidsShortCycles) {
  const LdpcCode code = LdpcCode::peg(1024, 512, DegreeProfile::regular(3), 2);
  EXPECT_FALSE(code.has_four_cycle());
}

TEST(LdpcCode, PegDeterministicInSeed) {
  const LdpcCode a = LdpcCode::peg(512, 256, DegreeProfile::regular(3), 7);
  const LdpcCode b = LdpcCode::peg(512, 256, DegreeProfile::regular(3), 7);
  Xoshiro256 rng(3);
  const BitVec x = rng.random_bits(512);
  EXPECT_EQ(a.syndrome(x), b.syndrome(x));
}

TEST(LdpcCode, IrregularProfileHonoursFractions) {
  DegreeProfile profile{{{2, 0.5}, {4, 0.5}}};
  const LdpcCode code = LdpcCode::peg(1000, 400, profile, 3);
  EXPECT_EQ(code.edges(), 500u * 2 + 500u * 4);
  std::size_t degree2 = 0;
  for (std::size_t v = 0; v < code.n(); ++v) {
    degree2 += code.var_checks(v).size() == 2;
  }
  EXPECT_EQ(degree2, 500u);
}

TEST(LdpcCode, SyndromeIsLinear) {
  Xoshiro256 rng(4);
  const LdpcCode code = LdpcCode::peg(512, 256, DegreeProfile::regular(3), 9);
  const BitVec x = rng.random_bits(512);
  const BitVec y = rng.random_bits(512);
  BitVec xy = x;
  xy ^= y;
  BitVec sx = code.syndrome(x);
  const BitVec sy = code.syndrome(y);
  sx ^= sy;
  EXPECT_EQ(code.syndrome(xy), sx);
}

TEST(LdpcCode, SyndromeMatchesNaive) {
  Xoshiro256 rng(5);
  const LdpcCode code = LdpcCode::peg(256, 128, DegreeProfile::regular(3), 11);
  const BitVec x = rng.random_bits(256);
  const BitVec s = code.syndrome(x);
  for (std::size_t c = 0; c < code.m(); ++c) {
    bool parity = false;
    for (const auto v : code.check_vars(c)) parity ^= x.get(v);
    EXPECT_EQ(s.get(c), parity) << c;
  }
  EXPECT_TRUE(code.syndrome_matches(x, s));
}

TEST(LdpcCode, TableLookupsWork) {
  EXPECT_GE(code_table().size(), 10u);
  const LdpcCode& code = code_by_id(0);
  EXPECT_EQ(code.n(), 1024u);
  EXPECT_EQ(&code, &code_by_id(0));  // memoized
  EXPECT_THROW(code_by_id(9999), Error);
}

TEST(Decoder, BscLlrValues) {
  EXPECT_NEAR(bsc_llr(0.02), std::log(0.98 / 0.02), 1e-6);
  EXPECT_GT(bsc_llr(1e-12), 0.0f);   // clamped, finite
  EXPECT_NEAR(bsc_llr(0.5), 0.0f, 1e-6);
}

TEST(Decoder, ZeroNoiseConvergesImmediately) {
  Xoshiro256 rng(6);
  const LdpcCode& code = code_by_id(0);
  const BitVec x = rng.random_bits(code.n());
  const BitVec s = code.syndrome(x);
  std::vector<float> llr(code.n());
  for (std::size_t v = 0; v < code.n(); ++v) {
    llr[v] = x.get(v) ? -8.0f : 8.0f;
  }
  const auto result = decode_syndrome_quant(code, s, llr, DecoderConfig{});
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.word, x);
  EXPECT_EQ(result.iterations, 1u);
}

class DecoderGrid : public ::testing::TestWithParam<double> {};

TEST_P(DecoderGrid, RecoversAliceWordThroughBsc) {
  const double q = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(q * 1e5) + 77);
  const LdpcCode& code = code_by_id(3);  // n=4096, rate 0.5
  const BitVec alice = rng.random_bits(code.n());
  const BitVec bob = corrupt(alice, q, rng);
  const BitVec s = code.syndrome(alice);

  const float channel = bsc_llr(q);
  std::vector<float> llr(code.n());
  for (std::size_t v = 0; v < code.n(); ++v) {
    llr[v] = bob.get(v) ? -channel : channel;
  }
  DecoderConfig config;
  config.max_iterations = 100;
  const auto result = decode_syndrome_quant(code, s, llr, config);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.word, alice);
}

INSTANTIATE_TEST_SUITE_P(Grid, DecoderGrid, ::testing::Values(0.02, 0.05));

TEST(Decoder, FailsGracefullyAboveThreshold) {
  // Rate 0.8 code at q = 11% is far beyond capacity: must report failure,
  // not loop or crash.
  Xoshiro256 rng(90);
  const LdpcCode& code = code_by_id(7);
  const BitVec alice = rng.random_bits(code.n());
  const BitVec bob = corrupt(alice, 0.11, rng);
  const BitVec s = code.syndrome(alice);
  const float channel = bsc_llr(0.11);
  std::vector<float> llr(code.n());
  for (std::size_t v = 0; v < code.n(); ++v) {
    llr[v] = bob.get(v) ? -channel : channel;
  }
  DecoderConfig config;
  config.max_iterations = 30;
  const auto result = decode_syndrome_quant(code, s, llr, config);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 30u);
}

TEST(RateAdapt, PartitionIsExactAndDeterministic) {
  const auto a = derive_adaptation(1000, 100, 50, 42);
  const auto b = derive_adaptation(1000, 100, 50, 42);
  EXPECT_EQ(a.punctured, b.punctured);
  EXPECT_EQ(a.shortened, b.shortened);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.punctured.size(), 100u);
  EXPECT_EQ(a.shortened.size(), 50u);
  EXPECT_EQ(a.payload.size(), 850u);
  std::vector<bool> seen(1000, false);
  for (const auto v : a.punctured) seen[v] = true;
  for (const auto v : a.shortened) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  for (const auto v : a.payload) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_TRUE(seen[i]);
}

TEST(RateAdapt, OverBudgetThrows) {
  EXPECT_THROW(derive_adaptation(100, 80, 30, 1), std::invalid_argument);
}

// Test oracle, not a production path: the partition by sorting - the
// same shuffle as derive_adaptation, each class's prefix of it sorted, and
// the payload collected through a byte map.
RateAdaptation sort_reference_adaptation(std::size_t n,
                                         std::uint32_t n_punctured,
                                         std::uint32_t n_shortened,
                                         std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0xada97ca7104eULL);
  const auto perm = rng.permutation(n);
  RateAdaptation adaptation;
  adaptation.punctured.assign(perm.begin(), perm.begin() + n_punctured);
  adaptation.shortened.assign(perm.begin() + n_punctured,
                              perm.begin() + n_punctured + n_shortened);
  std::sort(adaptation.punctured.begin(), adaptation.punctured.end());
  std::sort(adaptation.shortened.begin(), adaptation.shortened.end());
  std::vector<std::uint8_t> special(n, 0);
  for (const auto p : adaptation.punctured) special[p] = 1;
  for (const auto s : adaptation.shortened) special[s] = 1;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!special[v]) adaptation.payload.push_back(v);
  }
  return adaptation;
}

void expect_partition_matches_reference(std::size_t n, std::uint32_t d,
                                        std::uint32_t s, std::uint64_t seed) {
  const RateAdaptation got = derive_adaptation(n, d, s, seed);
  const RateAdaptation want = sort_reference_adaptation(n, d, s, seed);
  EXPECT_EQ(got.punctured, want.punctured)
      << "n=" << n << " d=" << d << " s=" << s << " seed=" << seed;
  EXPECT_EQ(got.shortened, want.shortened)
      << "n=" << n << " d=" << d << " s=" << s << " seed=" << seed;
  EXPECT_EQ(got.payload, want.payload)
      << "n=" << n << " d=" << d << " s=" << s << " seed=" << seed;
}

// The bitmap read-back must give the sort reference's three lists: at
// frame lengths with and without a partial tail word (which pins the
// payload scan's tail mask), with d and s at zero, small, at the 10%
// budget and filling the whole frame; then at every table code's shape
// for QBER 1-5% as plan_frame_batched sizes it.
TEST(RateAdapt, PartitionMatchesSortReference) {
  for (const std::size_t n : {1000, 4095, 4096, 16384}) {
    const auto all = static_cast<std::uint32_t>(n);
    const std::uint32_t budget = all / 10;
    const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
        {0, 0},        {0, 3},
        {5, 0},        {7, 11},
        {budget, 0},   {0, budget},
        {budget / 3, budget - budget / 3},
        {all, 0},      {0, all},
        {all / 2, all - all / 2},
        {all - 1, 1}};
    for (const auto& [d, s] : shapes) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 0x9e3779b97f4a7c15ULL}) {
        expect_partition_matches_reference(n, d, s, seed);
      }
    }
  }

  const LdpcReconcilerConfig config;
  std::size_t planner_agrees = 0;
  for (const CodeSpec& spec : code_table()) {
    const LdpcCode& code = code_by_id(spec.id);
    const std::size_t n = code.n();
    const auto budget = static_cast<std::uint32_t>(config.adapt_fraction *
                                                   static_cast<double>(n));
    for (const double q : {0.01, 0.02, 0.03, 0.04, 0.05}) {
      // plan_frame_batched's (d, s) for this code: the syndrome minus the
      // punctured bits discloses f_target * penalty(n) * h2(q) per payload
      // bit, with d clamped into the budget and the rest of it shortened.
      const double ideal_d =
          static_cast<double>(code.m()) -
          config.f_target * finite_length_penalty(n) * binary_entropy(q) *
              static_cast<double>(n - budget);
      const auto d = static_cast<std::uint32_t>(
          std::clamp(ideal_d, 0.0, static_cast<double>(budget)));
      // Where the planner picks this code, its shape must be this one.
      const FramePlan picked =
          plan_frame_batched(16 * 4096, q, config.f_target);
      if (picked.code_id == spec.id) {
        EXPECT_EQ(picked.n_punctured, d) << "code " << spec.id << " q=" << q;
        EXPECT_EQ(picked.n_shortened, budget - d)
            << "code " << spec.id << " q=" << q;
        ++planner_agrees;
      }
      const std::uint64_t seed = 1000 * std::uint64_t{spec.id} +
                                 static_cast<std::uint64_t>(q * 100);
      expect_partition_matches_reference(n, d, budget - d, seed);
    }
  }
  EXPECT_EQ(planner_agrees, 5u) << "one planner pick per QBER";
}

TEST(RateAdapt, PlanHitsEfficiencyTarget) {
  // The batched planner discloses at the penalty-adjusted target: the
  // syndrome minus the punctured bits is f_target * penalty(n) * h2(q) per
  // payload bit, to within one bit of rounding, wherever the puncture
  // budget reaches it (higher QBER clamps d and over-discloses).
  for (const double q : {0.01, 0.02, 0.03}) {
    const FramePlan plan = plan_frame_batched(16 * 4096, q, 1.25);
    const LdpcCode& code = code_by_id(plan.code_id);
    EXPECT_GE(code.n(), 4096u) << "q=" << q;
    EXPECT_EQ(plan.payload_bits,
              code.n() - plan.n_punctured - plan.n_shortened);
    const double target = 1.25 * finite_length_penalty(code.n());
    EXPECT_GE(plan.predicted_efficiency, target) << "q=" << q;
    EXPECT_NEAR(plan.predicted_efficiency, target,
                1.0 / (static_cast<double>(plan.payload_bits) *
                       binary_entropy(q)))
        << "q=" << q;
  }
}

TEST(RateAdapt, PlanFallsBackToLowestRatePastEveryTarget) {
  // q = 9%: h2 = 0.4365, so f 1.25 with the finite-length penalty asks for
  // more disclosure than any mother code's syndrome: the plan falls back
  // to the lowest rate (0.5).
  const FramePlan plan = plan_frame_batched(16 * 4096, 0.09, 1.25);
  EXPECT_NEAR(code_by_id(plan.code_id).rate(), 0.5, 1e-3);
}

TEST(RateAdapt, PlanValidatesInput) {
  EXPECT_THROW(plan_frame_batched(4096, 0.0, 1.2), std::invalid_argument);
  EXPECT_THROW(plan_frame_batched(4096, 0.5, 1.2), std::invalid_argument);
  EXPECT_THROW(plan_frame_batched(4096, 0.02, 0.9), std::invalid_argument);
  EXPECT_THROW(plan_frame_batched(4096, 0.02, 1.2, 0.5),
               std::invalid_argument);
  EXPECT_THROW(plan_frame_batched(4096, 0.02, 1.2, 0.1, 0),
               std::invalid_argument);
}

class LdpcLocalSweep : public ::testing::TestWithParam<double> {};

TEST_P(LdpcLocalSweep, ReconcilesFrameEndToEnd) {
  const double q = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(q * 1e6));
  Xoshiro256 alice_private(999);

  LdpcReconcilerConfig config;
  config.f_target = 1.3;
  const FramePlan plan = plan_frame_batched(4096, q, config.f_target);
  const BitVec alice = rng.random_bits(plan.payload_bits);
  const BitVec bob = corrupt(alice, q, rng);

  const auto outcome = reconcile_one_frame(alice, bob, q, plan, 0xf00d,
                                           config, alice_private);
  ASSERT_TRUE(outcome.success) << "q=" << q;
  EXPECT_EQ(outcome.corrected, alice) << "q=" << q;
  EXPECT_GT(outcome.efficiency, 1.0);
  EXPECT_LT(outcome.efficiency, 2.2) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Qbers, LdpcLocalSweep,
                         ::testing::Values(0.01, 0.02, 0.03, 0.05, 0.07));

TEST(LdpcLocal, BlindRevealRescuesUnderestimatedQber) {
  // Plan for 2% but the channel actually runs at 3.5%: the first decode
  // should fail and blind reveals should rescue the frame.
  Xoshiro256 rng(404);
  Xoshiro256 alice_private(405);
  LdpcReconcilerConfig config;
  config.f_target = 1.15;  // deliberately tight
  const FramePlan plan = plan_frame_batched(4096, 0.02, config.f_target);
  ASSERT_GT(plan.n_punctured, 0u);
  const BitVec alice = rng.random_bits(plan.payload_bits);
  const BitVec bob = corrupt(alice, 0.035, rng);

  const auto outcome = reconcile_one_frame(alice, bob, 0.035, plan, 0xbeef,
                                           config, alice_private);
  if (outcome.success) {
    EXPECT_EQ(outcome.corrected, alice);
    // Leak grows beyond the syndrome when blind rounds fire.
    if (outcome.blind_rounds > 0) {
      const LdpcCode& code = code_by_id(plan.code_id);
      EXPECT_GT(outcome.leaked_bits, code.m() - plan.n_punctured);
    }
  }
  // Either way the accounting must be self-consistent.
  EXPECT_GE(outcome.rounds, 1u);
}

TEST(LdpcLocal, LeakAccountingMatchesPlan) {
  Xoshiro256 rng(505);
  Xoshiro256 alice_private(506);
  LdpcReconcilerConfig config;
  const FramePlan plan = plan_frame_batched(4096, 0.03, 1.3);
  const BitVec alice = rng.random_bits(plan.payload_bits);
  const BitVec bob = corrupt(alice, 0.03, rng);
  const auto outcome = reconcile_one_frame(alice, bob, 0.03, plan, 0xcafe,
                                           config, alice_private);
  ASSERT_TRUE(outcome.success);
  if (outcome.blind_rounds == 0) {
    const LdpcCode& code = code_by_id(plan.code_id);
    EXPECT_EQ(outcome.leaked_bits, code.m() - plan.n_punctured);
    EXPECT_EQ(outcome.rounds, 1u);
  }
}

TEST(LdpcLocal, PayloadSizeMismatchThrows) {
  Xoshiro256 alice_private(507);
  const FramePlan plan = plan_frame_batched(4096, 0.03, 1.3);
  const RateAdaptation adaptation =
      derive_adaptation(code_by_id(plan.code_id).n(), plan.n_punctured,
                        plan.n_shortened, 1);
  const BitVec wrong(plan.payload_bits + 1);
  EXPECT_THROW(LdpcFrameSender(plan, adaptation, wrong, alice_private),
               std::invalid_argument);
  // A partition of another shape (here one more punctured bit) is refused:
  // the sender reveals exactly the punctured positions it was built on.
  const RateAdaptation other =
      derive_adaptation(code_by_id(plan.code_id).n(), plan.n_punctured + 1,
                        plan.n_shortened, 1);
  const BitVec payload(plan.payload_bits);
  EXPECT_THROW(LdpcFrameSender(plan, other, payload, alice_private),
               std::invalid_argument);
}

TEST(CascadeVsLdpc, CascadeLeaksLessButTalksMore) {
  // The headline trade-off behind experiment F4.
  Xoshiro256 rng(606);
  const double q = 0.03;
  // One 16k frame: a single-lane target lets the largest code win.
  const FramePlan plan = plan_frame_batched(16384, q, 1.3, 0.10,
                                            /*target_frames=*/1);
  const BitVec alice = rng.random_bits(plan.payload_bits);
  const BitVec bob = corrupt(alice, q, rng);

  Xoshiro256 alice_private(607);
  LdpcReconcilerConfig ldpc_config;
  const auto ldpc = reconcile_one_frame(alice, bob, q, plan, 1, ldpc_config,
                                        alice_private);
  CascadeConfig cascade_config;
  cascade_config.passes = 6;
  const auto cascade =
      cascade_reconcile_local(alice, bob, q, /*seed=*/0, cascade_config);

  ASSERT_TRUE(ldpc.success);
  ASSERT_EQ(ldpc.corrected, alice);
  ASSERT_EQ(cascade.corrected, alice);
  EXPECT_LT(cascade.efficiency, ldpc.efficiency);
  EXPECT_GT(cascade.rounds, ldpc.rounds * 5);
}

}  // namespace
}  // namespace qkdpp::reconcile
