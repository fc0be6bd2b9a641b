// Monte-Carlo decoy-state BB84 link simulator.
//
// Emits pulse-by-pulse records: Alice's full transmit log plus Bob's
// detection log (bit/basis for each clicked gate). Sifting, parameter
// estimation and everything downstream live in qkdpp::protocol - this module
// is purely the "hardware".
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "sim/link_config.hpp"

namespace qkdpp::sim {

/// One simulation batch. Alice-side arrays are indexed by pulse id
/// [0, n_pulses); Bob-side arrays are indexed by detection order and
/// `detected_idx` maps back to pulse ids. A pulse's PulseClass is one bit
/// in each of two vectors: signal, decoy, or vacuum when neither is set.
struct DetectionRecord {
  std::size_t n_pulses = 0;
  BitVec alice_bits;                        ///< per pulse
  BitVec alice_bases;                       ///< per pulse (0 = Z, 1 = X)
  BitVec alice_signal;                      ///< per pulse, PulseClass::kSignal
  BitVec alice_decoy;                       ///< per pulse, PulseClass::kDecoy
  std::vector<std::uint32_t> detected_idx;  ///< pulse ids that clicked
  BitVec bob_bits;                          ///< per detection
  BitVec bob_bases;                         ///< per detection

  std::size_t detections() const noexcept { return detected_idx.size(); }
};

/// Empirical per-intensity statistics of a batch (ground truth view used by
/// simulator tests and by benches to label workloads; the protocol stack
/// never reads these).
struct LinkStats {
  struct PerClass {
    std::size_t sent = 0;
    std::size_t detected = 0;
    std::size_t sifted = 0;    ///< detected with matching bases
    std::size_t errors = 0;    ///< sifted bits differing from Alice's
    double gain() const noexcept {
      return sent ? static_cast<double>(detected) / static_cast<double>(sent)
                  : 0.0;
    }
    double qber() const noexcept {
      return sifted ? static_cast<double>(errors) / static_cast<double>(sifted)
                    : 0.0;
    }
  };
  PerClass per_class[3];
  PerClass total;
};

class Bb84Simulator {
 public:
  explicit Bb84Simulator(LinkConfig config);

  const LinkConfig& config() const noexcept { return config_; }

  /// Simulate `n_pulses` gated pulses.
  DetectionRecord run(std::size_t n_pulses, Xoshiro256& rng) const;

  /// Ground-truth statistics of a batch.
  static LinkStats stats(const DetectionRecord& record);

 private:
  LinkConfig config_;
};

}  // namespace qkdpp::sim
