// Physical-layer configuration of the simulated decoy-state BB84 link.
//
// The simulator replaces the paper's physical QKD testbed, because the
// post-processing under study only sees detection logs and those can be
// generated in software: it produces raw-key streams whose statistics (gain,
// QBER, basis-match rate, decoy yields) follow the standard weak-coherent-
// pulse channel model, so every post-processing code path downstream is
// exercised exactly as it would be by detector hardware.
#pragma once

#include <cstddef>
#include <cstdint>

namespace qkdpp::sim {

/// Optical channel between Alice and Bob.
struct ChannelConfig {
  double length_km = 25.0;
  double attenuation_db_per_km = 0.2;  ///< standard telecom fiber at 1550 nm
  double insertion_loss_db = 1.0;      ///< connectors, mux/demux
  double misalignment = 0.015;         ///< intrinsic bit-flip probability e_d

  /// Fraction of photons that survive the fiber (excluding detector).
  double transmittance() const noexcept;
};

/// Bob's single-photon detector pair (gated APD model).
struct DetectorConfig {
  double efficiency = 0.20;        ///< eta_det
  double dark_count_prob = 1e-6;   ///< per-gate dark click probability Y0/2
  double dead_time_gates = 0.0;    ///< gates blinded after a click
};

/// Alice's decoy-state weak-coherent-pulse source (vacuum + weak decoy).
struct SourceConfig {
  double mu_signal = 0.48;   ///< mean photon number, signal state
  double mu_decoy = 0.1;     ///< mean photon number, weak decoy
  double mu_vacuum = 0.0;    ///< vacuum state
  double p_signal = 0.90;    ///< emission probabilities (sum to 1)
  double p_decoy = 0.05;
  double p_vacuum = 0.05;
  bool single_photon_ideal = false;  ///< bypass Poisson: exactly one photon
};

/// Active eavesdropper: intercept-resend on a fraction of pulses.
struct EveConfig {
  double intercept_fraction = 0.0;
};

/// Intensity class of an emitted pulse.
enum class PulseClass : std::uint8_t { kSignal = 0, kDecoy = 1, kVacuum = 2 };

struct LinkConfig {
  ChannelConfig channel;
  DetectorConfig detector;
  SourceConfig source;
  EveConfig eve;

  /// Overall single-photon transmittance eta = eta_channel * eta_detector.
  double overall_transmittance() const noexcept;

  /// Throws Error{kConfig} on out-of-range parameters.
  void validate() const;
};

/// Analytic expectations from the standard WCP channel model, used by tests
/// and by the decoy-state analysis as ground truth.
struct AnalyticLink {
  explicit AnalyticLink(const LinkConfig& config);

  /// Background click probability per gate (both detectors).
  double y0() const noexcept { return y0_; }
  /// Expected overall gain Q_mu = Y0 + 1 - exp(-eta*mu) for intensity mu.
  double gain(double mu) const noexcept;
  /// Expected QBER for intensity mu.
  double qber(double mu) const noexcept;
  /// Yield of an n-photon pulse: Y_n = Y0 + 1 - (1-eta)^n (Y0-overlap
  /// neglected, standard approximation).
  double yield(unsigned n_photons) const noexcept;

 private:
  double eta_;
  double y0_;
  double misalignment_;
  double intercept_;
};

/// Expected per-pulse detection probability averaged over the source's
/// intensity mix: p_signal Q_mu + p_decoy Q_nu + p_vacuum Y0.
double expected_mean_gain(const LinkConfig& config) noexcept;

/// Pulses per block so that ~`target_sifted_bits` survive basis sifting
/// (half the detections), clamped to [min_pulses, max_pulses] - the
/// accumulate-to-a-block-size policy real systems run, shared by the
/// orchestrator's workload pricing and the examples/benches.
std::size_t pulses_for_sifted_target(const LinkConfig& config,
                                     double target_sifted_bits,
                                     std::size_t min_pulses,
                                     std::size_t max_pulses) noexcept;

}  // namespace qkdpp::sim
