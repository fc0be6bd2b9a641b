// KeyStore ledger tests, and single-process blocks: simulate, then
// make_block_input, then process_block on a cpu-only engine, with one RNG
// stream feeding both. End-to-end distillation on healthy links, abort
// paths on hostile ones, determinism.
#include "pipeline/kms.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "engine/engine.hpp"
#include "engine/sim_adapter.hpp"
#include "sim/bb84.hpp"

namespace qkdpp::pipeline {
namespace {

TEST(KeyStore, DepositAndFifoConsume) {
  Xoshiro256 rng(1);
  KeyStore store;
  const BitVec k1 = rng.random_bits(256);
  const BitVec k2 = rng.random_bits(128);
  const auto id1 = store.deposit(k1);
  const auto id2 = store.deposit(k2);
  EXPECT_NE(id1.key_id, id2.key_id);
  EXPECT_EQ(store.keys_available(), 2u);
  EXPECT_EQ(store.bits_available(), 384u);

  const auto got = store.get_key();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->key_id, id1.key_id);
  EXPECT_EQ(got->bits, k1);
  EXPECT_EQ(store.keys_available(), 1u);
}

TEST(KeyStore, GetByIdIsDestructiveOnce) {
  Xoshiro256 rng(2);
  KeyStore store;
  const BitVec k = rng.random_bits(64);
  const auto id = store.deposit(k).key_id;
  ASSERT_TRUE(store.get_key_with_id(id).has_value());
  EXPECT_FALSE(store.get_key_with_id(id).has_value());
  EXPECT_FALSE(store.get_key_with_id(999).has_value());
}

TEST(KeyStore, EmptyStoreReturnsNothing) {
  KeyStore store;
  EXPECT_FALSE(store.get_key().has_value());
  EXPECT_EQ(store.bits_available(), 0u);
}

TEST(KeyStore, LedgerTracksConsumption) {
  Xoshiro256 rng(3);
  KeyStore store;
  store.deposit(rng.random_bits(100));
  store.deposit(rng.random_bits(50));
  (void)store.get_key();
  EXPECT_EQ(store.total_deposited_bits(), 150u);
  EXPECT_EQ(store.total_consumed_bits(), 100u);
  EXPECT_EQ(store.bits_available(), 50u);
}

sim::LinkConfig metro_link() {
  sim::LinkConfig link;
  link.channel.length_km = 25.0;
  return link;
}

constexpr std::size_t kMetroPulses = std::size_t{1} << 20;

/// One block: the simulator and then the engine draw from `rng`, in that
/// order.
engine::BlockOutcome run_block(const sim::LinkConfig& link, std::size_t pulses,
                               const engine::PostprocessParams& params,
                               std::uint64_t block_id, Xoshiro256& rng) {
  engine::PostprocessEngine engine(params, engine::EngineOptions::cpu_only());
  const engine::BlockInput input = engine::make_block_input(
      sim::Bb84Simulator(link).run(pulses, rng), block_id);
  return engine.process_block(input, block_id, rng);
}

engine::PostprocessParams cascade_params() {
  engine::PostprocessParams params;
  params.method = protocol::ReconcileMethod::kCascade;
  params.cascade.passes = 6;
  return params;
}

TEST(SimulatedBlock, LdpcBlockProducesKey) {
  Xoshiro256 rng(10);
  const auto outcome = run_block(metro_link(), kMetroPulses, {}, 1, rng);
  ASSERT_TRUE(outcome.success) << outcome.abort_reason;
  EXPECT_GT(outcome.final_key_bits, 0u);
  EXPECT_EQ(outcome.final_key.size(), outcome.final_key_bits);
  EXPECT_GT(outcome.skr_per_pulse(), 0.0);
  // Plausibility chain: pulses > detections > sifted > candidates > final.
  EXPECT_GT(outcome.detections, outcome.sifted_bits);
  EXPECT_GE(outcome.sifted_bits, outcome.key_candidate_bits);
  EXPECT_GT(outcome.key_candidate_bits, outcome.final_key_bits);
  // QBER estimate should be near the configured misalignment (1.5%).
  EXPECT_NEAR(outcome.qber_estimate, 0.017, 0.012);
  EXPECT_GT(outcome.leak_ec_bits, 0u);
  EXPECT_GT(outcome.efficiency, 1.0);
}

TEST(SimulatedBlock, CascadeBlockProducesKey) {
  Xoshiro256 rng(11);
  const auto outcome =
      run_block(metro_link(), kMetroPulses, cascade_params(), 2, rng);
  ASSERT_TRUE(outcome.success) << outcome.abort_reason;
  EXPECT_GT(outcome.final_key_bits, 0u);
  EXPECT_GT(outcome.reconcile_rounds, 10u);  // cascade chats a lot
}

TEST(SimulatedBlock, CascadeBeatsLdpcOnEfficiency) {
  Xoshiro256 rng_a(12), rng_b(12);
  const auto ldpc = run_block(metro_link(), kMetroPulses, {}, 3, rng_a);
  const auto cascade =
      run_block(metro_link(), kMetroPulses, cascade_params(), 3, rng_b);
  ASSERT_TRUE(ldpc.success);
  ASSERT_TRUE(cascade.success);
  EXPECT_LT(cascade.efficiency, ldpc.efficiency);
}

TEST(SimulatedBlock, EveTriggersQberAbort) {
  Xoshiro256 rng(13);
  sim::LinkConfig link = metro_link();
  link.eve.intercept_fraction = 1.0;
  const auto outcome = run_block(link, std::size_t{1} << 18, {}, 4, rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.abort_reason, "qber above abort threshold");
  EXPECT_EQ(outcome.final_key_bits, 0u);
}

TEST(SimulatedBlock, PartialEveStillCaught) {
  // 40% interception pushes QBER to ~10% + misalignment: above threshold.
  Xoshiro256 rng(14);
  sim::LinkConfig link = metro_link();
  link.eve.intercept_fraction = 0.45;
  const auto outcome = run_block(link, std::size_t{1} << 18, {}, 5, rng);
  EXPECT_FALSE(outcome.success);
}

TEST(SimulatedBlock, TinyBlockAborts) {
  Xoshiro256 rng(15);
  // ~20 detections: nothing to work with.
  const auto outcome = run_block(metro_link(), 1000, {}, 6, rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_FALSE(outcome.abort_reason.empty());
}

TEST(SimulatedBlock, LongHaulHasLowerSkr) {
  Xoshiro256 rng_a(16), rng_b(16);
  sim::LinkConfig near_link = metro_link();
  near_link.channel.length_km = 10.0;
  sim::LinkConfig far_link = metro_link();
  far_link.channel.length_km = 60.0;
  const auto near_outcome = run_block(near_link, kMetroPulses, {}, 7, rng_a);
  // Long haul needs bigger blocks or the finite-key penalty on the small
  // reconciled key eats the whole secret (realistic behaviour).
  const auto far_outcome =
      run_block(far_link, std::size_t{1} << 22, {}, 7, rng_b);
  ASSERT_TRUE(near_outcome.success);
  ASSERT_TRUE(far_outcome.success);
  EXPECT_GT(near_outcome.skr_per_pulse(), 2 * far_outcome.skr_per_pulse());
}

TEST(SimulatedBlock, DeterministicGivenSeed) {
  Xoshiro256 rng_a(17), rng_b(17);
  const auto a = run_block(metro_link(), std::size_t{1} << 19, {}, 8, rng_a);
  const auto b = run_block(metro_link(), std::size_t{1} << 19, {}, 8, rng_b);
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.final_key, b.final_key);
  EXPECT_EQ(a.leak_ec_bits, b.leak_ec_bits);
}

TEST(SimulatedBlock, StageTimingsPopulated) {
  Xoshiro256 rng(18);
  const auto outcome = run_block(metro_link(), kMetroPulses, {}, 9, rng);
  ASSERT_TRUE(outcome.success);
  EXPECT_GT(outcome.timings.sift, 0.0);
  EXPECT_GT(outcome.timings.reconcile, 0.0);
  EXPECT_GT(outcome.timings.amplify, 0.0);
  EXPECT_GT(outcome.timings.post_processing_total(),
            outcome.timings.sift);
}

}  // namespace
}  // namespace qkdpp::pipeline
