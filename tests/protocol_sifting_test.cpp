// Sifting + parameter estimation tests, including end-to-end agreement with
// the link simulator and decoy-bound sanity against the analytic model.
#include "protocol/param_estimation.hpp"
#include "protocol/sifting.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "sim/bb84.hpp"

namespace qkdpp::protocol {
namespace {

AliceTransmitLog log_from(const sim::DetectionRecord& record) {
  return AliceTransmitLog{record.alice_bits, record.alice_bases,
                          record.alice_signal};
}

DetectionReport report_from(const sim::DetectionRecord& record) {
  DetectionReport report;
  report.n_pulses = record.n_pulses;
  report.detected_idx = record.detected_idx;
  report.bob_bases = record.bob_bases;
  return report;
}

TEST(Sifting, HandBuiltExample) {
  // 6 pulses; detections at 0,2,3,5. Bases match at 0 and 5 only.
  AliceTransmitLog log;
  log.bits = BitVec::from_bools(std::vector<std::uint8_t>{1, 0, 1, 1, 0, 0});
  log.bases = BitVec::from_bools(std::vector<std::uint8_t>{0, 1, 0, 1, 0, 1});
  log.signal = BitVec::from_bools(std::vector<std::uint8_t>{1, 1, 0, 1, 1, 1});

  DetectionReport report;
  report.n_pulses = 6;
  report.detected_idx = {0, 2, 3, 5};
  report.bob_bases =
      BitVec::from_bools(std::vector<std::uint8_t>{0, 1, 0, 1});

  const auto outcome = sift_alice(log, report);
  // Matches: det 0 (basis 0==0), det 1 -> pulse 2 (0 vs 1 no),
  // det 2 -> pulse 3 (1 vs 0 no), det 3 -> pulse 5 (1==1 yes).
  EXPECT_EQ(outcome.result.keep_mask.size(), 4u);
  EXPECT_TRUE(outcome.result.keep_mask.get(0));
  EXPECT_FALSE(outcome.result.keep_mask.get(1));
  EXPECT_FALSE(outcome.result.keep_mask.get(2));
  EXPECT_TRUE(outcome.result.keep_mask.get(3));
  ASSERT_EQ(outcome.sifted_key.size(), 2u);
  EXPECT_EQ(outcome.sifted_key.get(0), true);   // alice bit at pulse 0
  EXPECT_EQ(outcome.sifted_key.get(1), false);  // alice bit at pulse 5
  // Signal mask: pulse 0 is signal, pulse 5 is signal.
  ASSERT_EQ(outcome.result.signal_mask.size(), 2u);
  EXPECT_TRUE(outcome.result.signal_mask.get(0));
  EXPECT_TRUE(outcome.result.signal_mask.get(1));

  // Bob side.
  const BitVec bob_bits =
      BitVec::from_bools(std::vector<std::uint8_t>{1, 1, 0, 0});
  const BitVec bob_sifted = sift_bob(bob_bits, outcome.result);
  ASSERT_EQ(bob_sifted.size(), 2u);
  EXPECT_EQ(bob_sifted.get(0), true);
  EXPECT_EQ(bob_sifted.get(1), false);
}

TEST(Sifting, EndToEndAgainstSimulator) {
  Xoshiro256 rng(21);
  sim::LinkConfig link;
  link.channel.length_km = 10.0;
  const sim::Bb84Simulator simulator(link);
  const auto record = simulator.run(200000, rng);

  const auto outcome = sift_alice(log_from(record), report_from(record));
  const BitVec bob_sifted = sift_bob(record.bob_bits, outcome.result);

  ASSERT_EQ(outcome.sifted_key.size(), bob_sifted.size());
  // Mismatch fraction must equal the simulator's ground-truth QBER.
  const auto stats = sim::Bb84Simulator::stats(record);
  const std::size_t mismatches =
      BitVec::hamming_distance(outcome.sifted_key, bob_sifted);
  EXPECT_EQ(mismatches, stats.total.errors);
  EXPECT_EQ(outcome.sifted_key.size(), stats.total.sifted);
}

// Reference oracle for sift_alice: the per-detection loop it replaced, one
// get/push_back per detection. Kept here so the gather-based version is
// checked against it on random logs and on every error placement.
AliceSiftOutcome sift_alice_reference(const AliceTransmitLog& log,
                                      const DetectionReport& report) {
  const std::size_t n_pulses = log.bits.size();
  if (log.bases.size() != n_pulses || log.signal.size() != n_pulses) {
    throw_error(ErrorCode::kProtocol, "inconsistent transmit log");
  }
  if (report.bob_bases.size() != report.detected_idx.size()) {
    throw_error(ErrorCode::kProtocol,
                "detection report bases/indices shape mismatch");
  }
  AliceSiftOutcome out;
  out.result.block_id = report.block_id;
  out.result.keep_mask = BitVec(report.detected_idx.size());
  std::uint32_t previous = 0;
  bool first = true;
  for (std::size_t d = 0; d < report.detected_idx.size(); ++d) {
    const std::uint32_t pulse = report.detected_idx[d];
    if (pulse >= n_pulses) {
      throw_error(ErrorCode::kProtocol, "detection index out of range");
    }
    if (!first && pulse <= previous) {
      throw_error(ErrorCode::kProtocol, "detection indices not increasing");
    }
    previous = pulse;
    first = false;
    if (log.bases.get(pulse) == report.bob_bases.get(d)) {
      out.result.keep_mask.set(d, true);
      out.sifted_key.push_back(log.bits.get(pulse));
      out.result.signal_mask.push_back(log.signal.get(pulse));
    }
  }
  return out;
}

/// A random transmit log and a report of `detections` increasing indices.
std::pair<AliceTransmitLog, DetectionReport> random_sift_input(
    std::size_t detections, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const std::size_t n_pulses = 3 * detections + 5;
  AliceTransmitLog log;
  log.bits = rng.random_bits(n_pulses);
  log.bases = rng.random_bits(n_pulses);
  for (std::size_t i = 0; i < n_pulses; ++i) {
    log.signal.push_back(rng.uniform(3) == 0);  // a third are signal
  }
  DetectionReport report;
  report.block_id = seed;
  report.n_pulses = n_pulses;
  report.detected_idx = rng.sample_without_replacement(n_pulses, detections);
  report.bob_bases = rng.random_bits(detections);
  return {log, report};
}

/// Runs both sifts; they must agree on the outcome or on the exact error.
void expect_same_sift(const AliceTransmitLog& log,
                      const DetectionReport& report, const std::string& what) {
  std::optional<AliceSiftOutcome> expected;
  std::string expected_error;
  try {
    expected = sift_alice_reference(log, report);
  } catch (const Error& error) {
    ASSERT_EQ(error.code(), ErrorCode::kProtocol) << what;
    expected_error = error.what();
  }
  try {
    const AliceSiftOutcome got = sift_alice(log, report);
    ASSERT_TRUE(expected.has_value())
        << what << ": reference threw " << expected_error;
    EXPECT_EQ(got.result.block_id, expected->result.block_id) << what;
    EXPECT_EQ(got.result.keep_mask, expected->result.keep_mask) << what;
    EXPECT_EQ(got.result.signal_mask, expected->result.signal_mask) << what;
    EXPECT_EQ(got.sifted_key, expected->sifted_key) << what;
  } catch (const Error& error) {
    EXPECT_FALSE(expected.has_value()) << what << ": threw " << error.what();
    EXPECT_EQ(error.code(), ErrorCode::kProtocol) << what;
    EXPECT_EQ(std::string(error.what()), expected_error) << what;
  }
}

TEST(Sifting, WordSiftMatchesPerDetectionReference) {
  for (const std::size_t detections :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{1000}, std::size_t{4097}}) {
    const auto [log, report] = random_sift_input(detections, 500 + detections);
    expect_same_sift(log, report, "detections " + std::to_string(detections));
  }

  // Hostile indices first, mid-word, on both sides of the word boundary
  // and last in a partial word (100 detections: the second word holds 36).
  enum class Bad { kOutOfRange, kEqual, kDecreasing };
  for (const Bad bad : {Bad::kOutOfRange, Bad::kEqual, Bad::kDecreasing}) {
    for (const std::size_t at :
         {std::size_t{0}, std::size_t{30}, std::size_t{63}, std::size_t{64},
          std::size_t{70}, std::size_t{99}}) {
      auto [log, report] = random_sift_input(100, 600 + at);
      auto& idx = report.detected_idx;
      const std::size_t other = at == 0 ? 1 : at - 1;
      switch (bad) {
        case Bad::kOutOfRange:
          idx[at] = static_cast<std::uint32_t>(log.bits.size());
          break;
        case Bad::kEqual:
          idx[at] = idx[other];
          break;
        case Bad::kDecreasing:
          idx[at] = at == 0 ? idx[other] + 1 : idx[other] - 1;
          break;
      }
      expect_same_sift(log, report,
                       "bad kind " + std::to_string(static_cast<int>(bad)) +
                           " at " + std::to_string(at));
    }
  }
}

TEST(Sifting, RejectsOutOfRangeIndex) {
  AliceTransmitLog log;
  log.bits = BitVec(4);
  log.bases = BitVec(4);
  log.signal = BitVec(4, true);
  DetectionReport report;
  report.n_pulses = 4;
  report.detected_idx = {5};
  report.bob_bases = BitVec(1);
  EXPECT_THROW(sift_alice(log, report), Error);
}

TEST(Sifting, RejectsNonMonotoneIndices) {
  AliceTransmitLog log;
  log.bits = BitVec(10);
  log.bases = BitVec(10);
  log.signal = BitVec(10, true);
  DetectionReport report;
  report.n_pulses = 10;
  report.detected_idx = {3, 2};
  report.bob_bases = BitVec(2);
  EXPECT_THROW(sift_alice(log, report), Error);
}

TEST(Sifting, RejectsShapeMismatch) {
  AliceTransmitLog log;
  log.bits = BitVec(10);
  log.bases = BitVec(10);
  log.signal = BitVec(10, true);
  DetectionReport report;
  report.n_pulses = 10;
  report.detected_idx = {1, 2};
  report.bob_bases = BitVec(3);  // wrong length
  EXPECT_THROW(sift_alice(log, report), Error);

  SiftResult result;
  result.keep_mask = BitVec(5);
  EXPECT_THROW(sift_bob(BitVec(4), result), Error);
}

TEST(ParamEstimation, ZeroSampleIsUninformative) {
  const auto est = estimate_qber(0, 0, 1e-10);
  EXPECT_DOUBLE_EQ(est.qber, 0.0);
  EXPECT_DOUBLE_EQ(est.qber_upper, 1.0);
}

TEST(ParamEstimation, PointEstimateAndBound) {
  const auto est = estimate_qber(10000, 250, 1e-10);
  EXPECT_DOUBLE_EQ(est.qber, 0.025);
  EXPECT_GT(est.qber_upper, 0.025);
  EXPECT_LT(est.qber_upper, 0.07);
}

TEST(ParamEstimation, BoundTightensWithSample) {
  const auto small = estimate_qber(1000, 25, 1e-10);
  const auto large = estimate_qber(100000, 2500, 1e-10);
  EXPECT_LT(large.qber_upper - large.qber, small.qber_upper - small.qber);
}

TEST(ParamEstimation, InvalidArgumentsThrow) {
  EXPECT_THROW(estimate_qber(10, 11, 1e-10), std::invalid_argument);
  EXPECT_THROW(estimate_qber(10, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(estimate_qber(10, 1, 1.0), std::invalid_argument);
}

TEST(ParamEstimation, BoundCoversTruthAcrossTrials) {
  // Repeated sampling: the upper bound must cover the true rate in (almost)
  // every trial at eps = 1e-6.
  Xoshiro256 rng(33);
  const double truth = 0.03;
  int covered = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    std::size_t errors = 0;
    const std::size_t n = 2000;
    for (std::size_t i = 0; i < n; ++i) errors += rng.bernoulli(truth);
    covered += estimate_qber(n, errors, 1e-6).qber_upper >= truth;
  }
  EXPECT_EQ(covered, trials);
}

sim::LinkConfig decoy_link(double km) {
  sim::LinkConfig link;
  link.channel.length_km = km;
  link.source.p_signal = 0.7;
  link.source.p_decoy = 0.15;
  link.source.p_vacuum = 0.15;
  return link;
}

TEST(Decoy, BoundsValidAndCoverSinglePhotonTruth) {
  Xoshiro256 rng(34);
  const sim::LinkConfig link = decoy_link(25.0);
  const sim::Bb84Simulator simulator(link);
  const auto record = simulator.run(2000000, rng);
  const auto stats = sim::Bb84Simulator::stats(record);

  DecoyObservations obs;
  obs.mu = link.source.mu_signal;
  obs.nu = link.source.mu_decoy;
  obs.q_mu = stats.per_class[0].gain();
  obs.q_nu = stats.per_class[1].gain();
  obs.e_mu = stats.per_class[0].qber();
  obs.e_nu = stats.per_class[1].qber();
  obs.y0 = stats.per_class[2].gain();

  const auto bounds = decoy_bounds(obs);
  ASSERT_TRUE(bounds.valid);

  // Ground truth from the analytic model.
  const sim::AnalyticLink model(link);
  const double y1_true = model.yield(1);
  EXPECT_LE(bounds.y1_lower, y1_true * 1.05);  // lower bound (within MC noise)
  EXPECT_GT(bounds.y1_lower, 0.5 * y1_true);   // and not uselessly loose
  // True single-photon error rate ~ misalignment + dark contribution.
  EXPECT_GE(bounds.e1_upper, link.channel.misalignment * 0.9);
  EXPECT_LT(bounds.e1_upper, 0.1);
}

TEST(Decoy, InvalidWhenIntensitiesDegenerate) {
  DecoyObservations obs;
  obs.mu = 0.1;
  obs.nu = 0.1;  // nu must be < mu
  EXPECT_FALSE(decoy_bounds(obs).valid);
  obs.nu = 0.0;
  EXPECT_FALSE(decoy_bounds(obs).valid);
}

TEST(Decoy, FiniteSizeBoundsAreMoreConservative) {
  Xoshiro256 rng(35);
  const sim::LinkConfig link = decoy_link(25.0);
  const sim::Bb84Simulator simulator(link);
  const auto record = simulator.run(2000000, rng);
  const auto stats = sim::Bb84Simulator::stats(record);

  DecoyObservations obs;
  obs.mu = link.source.mu_signal;
  obs.nu = link.source.mu_decoy;
  obs.q_mu = stats.per_class[0].gain();
  obs.q_nu = stats.per_class[1].gain();
  obs.e_mu = stats.per_class[0].qber();
  obs.e_nu = stats.per_class[1].qber();
  obs.y0 = stats.per_class[2].gain();

  const auto asym = decoy_bounds(obs);
  const auto finite =
      decoy_bounds_finite(obs, stats.per_class[0].sent,
                          stats.per_class[1].sent, stats.per_class[2].sent,
                          1e-10);
  ASSERT_TRUE(asym.valid);
  ASSERT_TRUE(finite.valid);
  EXPECT_LE(finite.y1_lower, asym.y1_lower);
  EXPECT_GE(finite.e1_upper, asym.e1_upper);
}

TEST(Decoy, FiniteBoundsConvergeToAsymptoticAndStayPessimistic) {
  // Regression for the E_nu*Q_nu margin: the finite-size e1 bound used to
  // reuse d_nu - the deviation derived for the *gain* Q_nu - as the margin
  // for the product observable E_nu*Q_nu. Each observable must carry its
  // own deviation; then the finite bounds (a) stay strictly more
  // pessimistic than the asymptotic ones at finite n in *every* bound, and
  // (b) converge to them as n -> infinity.
  const sim::LinkConfig link = decoy_link(25.0);
  const sim::AnalyticLink model(link);
  DecoyObservations obs;
  obs.mu = link.source.mu_signal;
  obs.nu = link.source.mu_decoy;
  obs.q_mu = model.gain(obs.mu);
  obs.q_nu = model.gain(obs.nu);
  obs.e_mu = model.qber(obs.mu);
  obs.e_nu = model.qber(obs.nu);
  obs.y0 = model.y0();

  const auto asym = decoy_bounds(obs);
  ASSERT_TRUE(asym.valid);

  // Strictly more pessimistic at finite n, in both Y1 and e1.
  const auto finite = decoy_bounds_finite(obs, 10000000, 1000000, 1000000,
                                          1e-10);
  ASSERT_TRUE(finite.valid);
  EXPECT_LT(finite.y1_lower, asym.y1_lower);
  EXPECT_LT(finite.q1_lower, asym.q1_lower);
  EXPECT_GT(finite.e1_upper, asym.e1_upper);

  // Monotone approach: more pulses -> tighter (never looser) bounds.
  double previous_y1 = finite.y1_lower;
  double previous_e1 = finite.e1_upper;
  for (const double scale : {1e8, 1e10, 1e12}) {
    const auto n = static_cast<std::size_t>(scale);
    const auto better = decoy_bounds_finite(obs, 10 * n, n, n, 1e-10);
    ASSERT_TRUE(better.valid) << scale;
    EXPECT_GE(better.y1_lower, previous_y1) << scale;
    EXPECT_LE(better.e1_upper, previous_e1) << scale;
    previous_y1 = better.y1_lower;
    previous_e1 = better.e1_upper;
  }

  // Convergence: at n = 1e14 decoy pulses the deviations are negligible.
  const auto huge =
      decoy_bounds_finite(obs, std::size_t{1} << 50, std::size_t{100000000000000},
                          std::size_t{100000000000000}, 1e-10);
  ASSERT_TRUE(huge.valid);
  EXPECT_NEAR(huge.y1_lower, asym.y1_lower, asym.y1_lower * 1e-3);
  EXPECT_NEAR(huge.e1_upper, asym.e1_upper, asym.e1_upper * 1e-2);
}

TEST(Decoy, ProductObservableCarriesItsOwnMargin) {
  // Direct regression pin: with the decoy QBER at zero the product
  // observable E_nu*Q_nu is zero, so its floored deviation is
  // sqrt(3 ln(1/eps) / n^2) ~ 1e-4 at n = 1e6 - while d_nu (the gain's
  // margin, the value the bug reused) is ~50x larger at Q_nu ~ 2.6e-3.
  // Pre-fix, e1_upper therefore carried the gain-sized margin and landed
  // ~6x above the correct value.
  sim::LinkConfig link = decoy_link(25.0);
  link.channel.misalignment = 0.0;  // error-free channel: E_nu ~ dark only
  link.detector.dark_count_prob = 0.0;
  const sim::AnalyticLink model(link);
  DecoyObservations obs;
  obs.mu = link.source.mu_signal;
  obs.nu = link.source.mu_decoy;
  obs.q_mu = model.gain(obs.mu);
  obs.q_nu = model.gain(obs.nu);
  obs.e_mu = 0.0;
  obs.e_nu = 0.0;
  obs.y0 = 0.0;

  const std::size_t n = 1000000;
  const auto finite = decoy_bounds_finite(obs, 10 * n, n, n, 1e-10);
  ASSERT_TRUE(finite.valid);
  // Margin for E_nu*Q_nu = 0 is rate_delta(0, n, eps) = sqrt(3 ln(1/eps))/n;
  // e1 <= margin * e^nu / (Y1 * nu). With the reused gain margin this bound
  // sits ~6x higher, so 2x the correct value cleanly separates the two.
  const double margin = std::sqrt(3.0 * std::log(1e10)) / static_cast<double>(n);
  const double correct_e1 =
      margin * std::exp(obs.nu) / (finite.y1_lower * obs.nu);
  EXPECT_LT(finite.e1_upper, 2.0 * correct_e1);
}

TEST(Decoy, InterceptResendDestroysSinglePhotonBound) {
  // Under full intercept-resend the e1 upper bound must blow past the 11%
  // BB84 threshold - that is the detection mechanism working.
  Xoshiro256 rng(36);
  sim::LinkConfig link = decoy_link(10.0);
  link.eve.intercept_fraction = 1.0;
  const sim::Bb84Simulator simulator(link);
  const auto stats =
      sim::Bb84Simulator::stats(simulator.run(1500000, rng));

  DecoyObservations obs;
  obs.mu = link.source.mu_signal;
  obs.nu = link.source.mu_decoy;
  obs.q_mu = stats.per_class[0].gain();
  obs.q_nu = stats.per_class[1].gain();
  obs.e_mu = stats.per_class[0].qber();
  obs.e_nu = stats.per_class[1].qber();
  obs.y0 = stats.per_class[2].gain();

  const auto bounds = decoy_bounds(obs);
  if (bounds.valid) {
    EXPECT_GT(bounds.e1_upper, 0.11);
  }
  // (An invalid bound also aborts the protocol - either way Eve is caught.)
}

}  // namespace
}  // namespace qkdpp::protocol
