// Link-simulator tests: analytic channel math, Monte-Carlo agreement with
// the WCP model, config validation, eavesdropper signature.
#include "sim/bb84.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace qkdpp::sim {
namespace {

LinkConfig default_link(double km = 25.0) {
  LinkConfig link;
  link.channel.length_km = km;
  return link;
}

TEST(Channel, TransmittanceMath) {
  ChannelConfig ch;
  ch.length_km = 50.0;
  ch.attenuation_db_per_km = 0.2;
  ch.insertion_loss_db = 0.0;
  EXPECT_NEAR(ch.transmittance(), 0.1, 1e-12);  // 10 dB loss
  ch.insertion_loss_db = 3.0;
  EXPECT_NEAR(ch.transmittance(), 0.1 * std::pow(10.0, -0.3), 1e-12);
  ch.length_km = 0.0;
  ch.insertion_loss_db = 0.0;
  EXPECT_DOUBLE_EQ(ch.transmittance(), 1.0);
}

TEST(Channel, OverallTransmittanceIncludesDetector) {
  LinkConfig link = default_link(50.0);
  link.channel.insertion_loss_db = 0.0;
  link.detector.efficiency = 0.2;
  EXPECT_NEAR(link.overall_transmittance(), 0.02, 1e-12);
}

TEST(LinkValidate, AcceptsDefaults) {
  EXPECT_NO_THROW(default_link().validate());
}

TEST(LinkValidate, RejectsBadParameters) {
  auto expect_config_error = [](LinkConfig link) {
    try {
      link.validate();
      FAIL() << "expected config error";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kConfig);
    }
  };
  LinkConfig bad = default_link();
  bad.channel.length_km = -1;
  expect_config_error(bad);

  bad = default_link();
  bad.detector.efficiency = 0.0;
  expect_config_error(bad);
  bad.detector.efficiency = 2.0;
  expect_config_error(bad);

  bad = default_link();
  bad.source.p_signal = 0.5;  // probabilities no longer sum to 1
  expect_config_error(bad);

  bad = default_link();
  bad.source.mu_decoy = 1.0;  // decoy >= signal
  expect_config_error(bad);

  bad = default_link();
  bad.eve.intercept_fraction = 1.5;
  expect_config_error(bad);

  bad = default_link();
  bad.channel.misalignment = 0.7;
  expect_config_error(bad);
}

TEST(AnalyticLink, GainAndYieldFormulas) {
  LinkConfig link = default_link(25.0);
  const AnalyticLink model(link);
  const double eta = link.overall_transmittance();
  EXPECT_NEAR(model.gain(0.48), model.y0() + 1 - std::exp(-eta * 0.48), 1e-15);
  EXPECT_NEAR(model.yield(0), model.y0(), 1e-15);
  EXPECT_NEAR(model.yield(1), model.y0() + eta, 1e-9);
  EXPECT_GT(model.yield(2), model.yield(1));
}

TEST(AnalyticLink, QberApproachesHalfAtExtremeLoss) {
  // At absurd distance the gain is dark-count dominated -> QBER -> 0.5.
  LinkConfig link = default_link(600.0);
  const AnalyticLink model(link);
  EXPECT_GT(model.qber(0.48), 0.40);
  EXPECT_LE(model.qber(0.48), 0.5 + 1e-12);
}

TEST(Bb84, DetectionRecordShapeConsistent) {
  Xoshiro256 rng(1);
  const Bb84Simulator simulator(default_link());
  const auto record = simulator.run(20000, rng);
  EXPECT_EQ(record.n_pulses, 20000u);
  EXPECT_EQ(record.alice_bits.size(), 20000u);
  EXPECT_EQ(record.alice_bases.size(), 20000u);
  EXPECT_EQ(record.alice_signal.size(), 20000u);
  EXPECT_EQ(record.alice_decoy.size(), 20000u);
  // A pulse has one class: signal, decoy, or vacuum when neither bit is set.
  BitVec both = record.alice_signal;
  both &= record.alice_decoy;
  EXPECT_EQ(both.popcount(), 0u);
  EXPECT_EQ(record.bob_bits.size(), record.detections());
  EXPECT_EQ(record.bob_bases.size(), record.detections());
  for (const auto idx : record.detected_idx) EXPECT_LT(idx, 20000u);
}

TEST(Bb84, GainMatchesAnalyticModel) {
  Xoshiro256 rng(2);
  LinkConfig link = default_link(25.0);
  const Bb84Simulator simulator(link);
  const AnalyticLink model(link);
  const std::size_t n = 400000;
  const auto stats = Bb84Simulator::stats(simulator.run(n, rng));

  const double q_signal_expected = model.gain(link.source.mu_signal);
  const double q_signal = stats.per_class[0].gain();
  EXPECT_NEAR(q_signal, q_signal_expected, 5 * std::sqrt(q_signal_expected / (0.9 * n)) + 1e-4);

  const double q_decoy_expected = model.gain(link.source.mu_decoy);
  EXPECT_NEAR(stats.per_class[1].gain(), q_decoy_expected,
              0.3 * q_decoy_expected + 2e-4);
}

TEST(Bb84, QberMatchesAnalyticModel) {
  Xoshiro256 rng(3);
  LinkConfig link = default_link(25.0);
  link.channel.misalignment = 0.02;
  const Bb84Simulator simulator(link);
  const AnalyticLink model(link);
  const auto stats = Bb84Simulator::stats(simulator.run(600000, rng));
  EXPECT_NEAR(stats.per_class[0].qber(), model.qber(link.source.mu_signal),
              0.004);
}

TEST(Bb84, SiftedFractionIsHalfOfDetections) {
  Xoshiro256 rng(4);
  const Bb84Simulator simulator(default_link());
  const auto stats = Bb84Simulator::stats(simulator.run(300000, rng));
  const double sift_rate = static_cast<double>(stats.total.sifted) /
                           static_cast<double>(stats.total.detected);
  EXPECT_NEAR(sift_rate, 0.5, 0.01);
}

TEST(Bb84, VacuumPulsesClickOnlyFromDarkCounts) {
  Xoshiro256 rng(5);
  LinkConfig link = default_link(25.0);
  link.detector.dark_count_prob = 0.0;
  const Bb84Simulator simulator(link);
  const auto stats = Bb84Simulator::stats(simulator.run(200000, rng));
  EXPECT_EQ(stats.per_class[2].detected, 0u);
  EXPECT_GT(stats.per_class[0].detected, 0u);
}

TEST(Bb84, SinglePhotonIdealModeRaisesGain) {
  Xoshiro256 rng(6);
  LinkConfig link = default_link(25.0);
  link.source.single_photon_ideal = true;
  link.detector.dark_count_prob = 0.0;
  const Bb84Simulator simulator(link);
  const auto stats = Bb84Simulator::stats(simulator.run(200000, rng));
  // With exactly one photon per pulse, the gain equals eta.
  EXPECT_NEAR(stats.total.gain(), link.overall_transmittance(), 0.002);
}

TEST(Bb84, InterceptResendRaisesQberTowardQuarter) {
  Xoshiro256 rng(7);
  LinkConfig link = default_link(10.0);
  link.channel.misalignment = 0.0;
  link.eve.intercept_fraction = 1.0;
  const Bb84Simulator simulator(link);
  const auto stats = Bb84Simulator::stats(simulator.run(300000, rng));
  EXPECT_NEAR(stats.per_class[0].qber(), 0.25, 0.01);
}

TEST(Bb84, PartialInterceptScalesLinearly) {
  Xoshiro256 rng(8);
  LinkConfig link = default_link(10.0);
  link.channel.misalignment = 0.0;
  link.eve.intercept_fraction = 0.4;
  const Bb84Simulator simulator(link);
  const auto stats = Bb84Simulator::stats(simulator.run(300000, rng));
  EXPECT_NEAR(stats.per_class[0].qber(), 0.10, 0.01);
}

TEST(Bb84, DeadTimeReducesDetections) {
  Xoshiro256 rng(9);
  LinkConfig base = default_link(5.0);
  LinkConfig dead = base;
  dead.detector.dead_time_gates = 10.0;
  Xoshiro256 rng2(9);
  const auto n_base =
      Bb84Simulator(base).run(100000, rng).detections();
  const auto n_dead = Bb84Simulator(dead).run(100000, rng2).detections();
  EXPECT_LT(n_dead, n_base);
}

TEST(Bb84, DeterministicGivenSeed) {
  const Bb84Simulator simulator(default_link());
  Xoshiro256 rng_a(11), rng_b(11);
  const auto a = simulator.run(5000, rng_a);
  const auto b = simulator.run(5000, rng_b);
  EXPECT_EQ(a.detected_idx, b.detected_idx);
  EXPECT_EQ(a.bob_bits, b.bob_bits);
  EXPECT_EQ(a.alice_bits, b.alice_bits);
}

// Distance sweep: gain decays exponentially with distance.
class DistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(DistanceSweep, GainTracksTransmittance) {
  const double km = GetParam();
  Xoshiro256 rng(static_cast<std::uint64_t>(km * 100));
  LinkConfig link = default_link(km);
  const Bb84Simulator simulator(link);
  const AnalyticLink model(link);
  const auto stats = Bb84Simulator::stats(simulator.run(300000, rng));
  const double expected = model.gain(link.source.mu_signal);
  EXPECT_NEAR(stats.per_class[0].gain(), expected,
              0.15 * expected + 2e-4)
      << km << " km";
}

INSTANTIATE_TEST_SUITE_P(Distances, DistanceSweep,
                         ::testing::Values(5.0, 10.0, 25.0, 50.0, 75.0, 100.0));

}  // namespace
}  // namespace qkdpp::sim
