// KMS + offline pipeline tests: end-to-end distillation on healthy links,
// abort paths on hostile ones, ledger consistency, determinism.
#include "pipeline/kms.hpp"
#include "pipeline/offline.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

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

OfflineConfig metro_config() {
  OfflineConfig config;
  config.link.channel.length_km = 25.0;
  config.pulses_per_block = 1 << 20;
  return config;
}

TEST(OfflinePipeline, LdpcBlockProducesKey) {
  Xoshiro256 rng(10);
  OfflinePipeline pipeline(metro_config());
  const auto outcome = pipeline.process_block(1, rng);
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

TEST(OfflinePipeline, CascadeBlockProducesKey) {
  Xoshiro256 rng(11);
  OfflineConfig config = metro_config();
  config.method = protocol::ReconcileMethod::kCascade;
  config.cascade.passes = 6;
  OfflinePipeline pipeline(config);
  const auto outcome = pipeline.process_block(2, rng);
  ASSERT_TRUE(outcome.success) << outcome.abort_reason;
  EXPECT_GT(outcome.final_key_bits, 0u);
  EXPECT_GT(outcome.reconcile_rounds, 10u);  // cascade chats a lot
}

TEST(OfflinePipeline, CascadeBeatsLdpcOnEfficiency) {
  Xoshiro256 rng_a(12), rng_b(12);
  OfflineConfig ldpc_config = metro_config();
  OfflineConfig cascade_config = metro_config();
  cascade_config.method = protocol::ReconcileMethod::kCascade;
  cascade_config.cascade.passes = 6;
  const auto ldpc = OfflinePipeline(ldpc_config).process_block(3, rng_a);
  const auto cascade =
      OfflinePipeline(cascade_config).process_block(3, rng_b);
  ASSERT_TRUE(ldpc.success);
  ASSERT_TRUE(cascade.success);
  EXPECT_LT(cascade.efficiency, ldpc.efficiency);
}

TEST(OfflinePipeline, EveTriggersQberAbort) {
  Xoshiro256 rng(13);
  OfflineConfig config = metro_config();
  config.link.eve.intercept_fraction = 1.0;
  config.pulses_per_block = 1 << 18;
  OfflinePipeline pipeline(config);
  const auto outcome = pipeline.process_block(4, rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.abort_reason, "qber above abort threshold");
  EXPECT_EQ(outcome.final_key_bits, 0u);
}

TEST(OfflinePipeline, PartialEveStillCaught) {
  // 40% interception pushes QBER to ~10% + misalignment: above threshold.
  Xoshiro256 rng(14);
  OfflineConfig config = metro_config();
  config.link.eve.intercept_fraction = 0.45;
  config.pulses_per_block = 1 << 18;
  OfflinePipeline pipeline(config);
  const auto outcome = pipeline.process_block(5, rng);
  EXPECT_FALSE(outcome.success);
}

TEST(OfflinePipeline, TinyBlockAborts) {
  Xoshiro256 rng(15);
  OfflineConfig config = metro_config();
  config.pulses_per_block = 1000;  // ~20 detections: nothing to work with
  OfflinePipeline pipeline(config);
  const auto outcome = pipeline.process_block(6, rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_FALSE(outcome.abort_reason.empty());
}

TEST(OfflinePipeline, LongHaulHasLowerSkr) {
  Xoshiro256 rng_a(16), rng_b(16);
  OfflineConfig near_config = metro_config();
  near_config.link.channel.length_km = 10.0;
  OfflineConfig far_config = metro_config();
  far_config.link.channel.length_km = 60.0;
  // Long haul needs bigger blocks or the finite-key penalty on the small
  // reconciled key eats the whole secret (realistic behaviour).
  far_config.pulses_per_block = 1 << 22;
  const auto near_outcome =
      OfflinePipeline(near_config).process_block(7, rng_a);
  const auto far_outcome =
      OfflinePipeline(far_config).process_block(7, rng_b);
  ASSERT_TRUE(near_outcome.success);
  ASSERT_TRUE(far_outcome.success);
  EXPECT_GT(near_outcome.skr_per_pulse(), 2 * far_outcome.skr_per_pulse());
}

TEST(OfflinePipeline, DeterministicGivenSeed) {
  OfflineConfig config = metro_config();
  config.pulses_per_block = 1 << 19;
  Xoshiro256 rng_a(17), rng_b(17);
  const auto a = OfflinePipeline(config).process_block(8, rng_a);
  const auto b = OfflinePipeline(config).process_block(8, rng_b);
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.final_key, b.final_key);
  EXPECT_EQ(a.leak_ec_bits, b.leak_ec_bits);
}

TEST(OfflinePipeline, StageTimingsPopulated) {
  Xoshiro256 rng(18);
  OfflinePipeline pipeline(metro_config());
  const auto outcome = pipeline.process_block(9, rng);
  ASSERT_TRUE(outcome.success);
  EXPECT_GT(outcome.timings.simulate, 0.0);
  EXPECT_GT(outcome.timings.sift, 0.0);
  EXPECT_GT(outcome.timings.reconcile, 0.0);
  EXPECT_GT(outcome.timings.amplify, 0.0);
  EXPECT_GT(outcome.timings.post_processing_total(),
            outcome.timings.sift);
}

TEST(OfflinePipeline, InvalidConfigRejected) {
  OfflineConfig config = metro_config();
  config.pe_fraction = 0.0;
  EXPECT_THROW(OfflinePipeline{config}, std::invalid_argument);
  config = metro_config();
  config.pulses_per_block = 0;
  EXPECT_THROW(OfflinePipeline{config}, std::invalid_argument);
  config = metro_config();
  config.link.detector.efficiency = 2.0;
  EXPECT_THROW(OfflinePipeline{config}, Error);
}

}  // namespace
}  // namespace qkdpp::pipeline
