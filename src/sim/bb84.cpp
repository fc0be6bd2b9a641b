#include "sim/bb84.hpp"

#include <cmath>
#include <span>

namespace qkdpp::sim {

Bb84Simulator::Bb84Simulator(LinkConfig config) : config_(config) {
  config_.validate();
}

DetectionRecord Bb84Simulator::run(std::size_t n_pulses,
                                   Xoshiro256& rng) const {
  DetectionRecord record;
  record.n_pulses = n_pulses;
  record.alice_bits = rng.random_bits(n_pulses);
  record.alice_bases = rng.random_bits(n_pulses);
  record.alice_signal = BitVec(n_pulses);
  record.alice_decoy = BitVec(n_pulses);
  const std::span<std::uint64_t> signal = record.alice_signal.mutable_words();
  const std::span<std::uint64_t> decoy = record.alice_decoy.mutable_words();

  const double eta = config_.overall_transmittance();
  const double y0 = 2.0 * config_.detector.dark_count_prob;
  const double e_d = config_.channel.misalignment;
  const double f_eve = config_.eve.intercept_fraction;
  const double intensities[3] = {config_.source.mu_signal,
                                 config_.source.mu_decoy,
                                 config_.source.mu_vacuum};
  const double p_signal = config_.source.p_signal;
  const double p_decoy = config_.source.p_decoy;

  double dead_until = -1.0;  // pulse index until which the detector is blind

  for (std::size_t i = 0; i < n_pulses; ++i) {
    // Intensity class selection.
    const double u = rng.next_double();
    const auto cls = u < p_signal                ? PulseClass::kSignal
                     : (u < p_signal + p_decoy) ? PulseClass::kDecoy
                                                : PulseClass::kVacuum;
    signal[i >> 6] |= std::uint64_t{cls == PulseClass::kSignal} << (i & 63);
    decoy[i >> 6] |= std::uint64_t{cls == PulseClass::kDecoy} << (i & 63);

    bool state_bit = record.alice_bits.get(i);
    bool state_basis = record.alice_bases.get(i);

    // Intercept-resend: Eve measures in a random basis and re-prepares.
    if (f_eve > 0.0 && rng.bernoulli(f_eve)) {
      const bool eve_basis = rng.bernoulli(0.5);
      const bool eve_bit = eve_basis == state_basis ? state_bit
                                                    : rng.bernoulli(0.5);
      state_bit = eve_bit;
      state_basis = eve_basis;
    }

    // Photon statistics and channel survival.
    const double mu = intensities[static_cast<std::size_t>(cls)];
    const std::uint32_t n_photons =
        config_.source.single_photon_ideal ? 1u : rng.poisson(mu);
    bool signal_click = false;
    if (n_photons > 0) {
      // P(at least one of n photons detected) = 1 - (1-eta)^n.
      signal_click = rng.bernoulli(1.0 - std::pow(1.0 - eta, n_photons));
    }
    const bool dark_click = rng.bernoulli(y0);

    if (static_cast<double>(i) < dead_until) continue;  // detector blind
    if (!signal_click && !dark_click) continue;

    if (config_.detector.dead_time_gates > 0) {
      dead_until = static_cast<double>(i) + config_.detector.dead_time_gates;
    }

    const bool bob_basis = rng.bernoulli(0.5);
    bool bob_bit;
    if (signal_click) {
      if (bob_basis == state_basis) {
        bob_bit = state_bit != rng.bernoulli(e_d);
      } else {
        bob_bit = rng.bernoulli(0.5);
      }
    } else {
      bob_bit = rng.bernoulli(0.5);  // pure dark count
    }

    record.detected_idx.push_back(static_cast<std::uint32_t>(i));
    record.bob_bits.push_back(bob_bit);
    record.bob_bases.push_back(bob_basis);
  }
  return record;
}

LinkStats Bb84Simulator::stats(const DetectionRecord& record) {
  LinkStats stats;  // per_class is indexed by PulseClass
  const std::size_t signal = record.alice_signal.popcount();
  const std::size_t decoy = record.alice_decoy.popcount();
  stats.per_class[0].sent = signal;
  stats.per_class[1].sent = decoy;
  stats.per_class[2].sent = record.n_pulses - signal - decoy;
  stats.total.sent = record.n_pulses;
  for (std::size_t d = 0; d < record.detections(); ++d) {
    const std::uint32_t pulse = record.detected_idx[d];
    const std::size_t class_index = record.alice_signal.get(pulse)  ? 0
                                    : record.alice_decoy.get(pulse) ? 1
                                                                    : 2;
    auto& cls = stats.per_class[class_index];
    ++cls.detected;
    ++stats.total.detected;
    if (record.bob_bases.get(d) == record.alice_bases.get(pulse)) {
      ++cls.sifted;
      ++stats.total.sifted;
      if (record.bob_bits.get(d) != record.alice_bits.get(pulse)) {
        ++cls.errors;
        ++stats.total.errors;
      }
    }
  }
  return stats;
}

}  // namespace qkdpp::sim
