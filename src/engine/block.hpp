// Per-block data types of the engine API: what goes in (raw detections from
// both endpoints), what comes out (the distillation funnel + final key), and
// the leakage ledger every stage charges against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/bitvec.hpp"
#include "protocol/messages.hpp"
#include "protocol/sifting.hpp"

namespace qkdpp::engine {

/// Raw material for one block: both endpoints' views of the quantum layer,
/// the one per-block input of the engine and the two-party session (Alice
/// runs on `log`, Bob on `report` and `bob_bits`). make_block_input fills it
/// from the link simulator; a hardware deployment would fill it from
/// transmitter/receiver logs.
struct BlockInput {
  protocol::AliceTransmitLog log;    ///< Alice's per-pulse transmit log
  protocol::DetectionReport report;  ///< Bob's click announcement
  BitVec bob_bits;                   ///< Bob's measured bits, per detection
};

/// Seconds charged per stage for one block. CPU devices charge measured
/// wall-clock; simulated accelerators charge modeled time (drives F1).
struct StageTimings {
  double sift = 0.0;
  double estimate = 0.0;
  double reconcile = 0.0;
  double verify = 0.0;
  double amplify = 0.0;

  double post_processing_total() const noexcept {
    return sift + estimate + reconcile + verify + amplify;
  }
};

/// Everything reconciliation and verification disclosed to Eve, in bits.
/// Privacy amplification subtracts the total.
struct LeakageLedger {
  std::uint64_t ec_bits = 0;      ///< syndromes, parities, blind reveals
  std::uint64_t verify_bits = 0;  ///< verification tag length

  std::uint64_t total() const noexcept { return ec_bits + verify_bits; }
};

/// BlockOutcome::abort_reason when a stage's placed device was hot-removed
/// before the stage could launch (the orchestrator counts these, and an
/// adaptive policy replans them away).
inline constexpr const char* kAbortDeviceOffline = "assigned device offline";

struct BlockOutcome {
  std::uint64_t block_id = 0;
  bool success = false;
  std::string abort_reason;

  std::size_t pulses = 0;
  std::size_t detections = 0;
  std::size_t sifted_bits = 0;        ///< matched-basis detections
  std::size_t key_candidate_bits = 0; ///< signal-class sifted bits
  std::size_t pe_sample_bits = 0;
  double qber_estimate = 0.0;
  double qber_upper = 0.0;

  std::size_t reconciled_bits = 0;    ///< payload that survived framing
  std::uint64_t leak_ec_bits = 0;
  double efficiency = 0.0;
  std::uint64_t reconcile_rounds = 0;
  std::uint64_t reconcile_frames = 0;            ///< LDPC frames decoded
  std::uint64_t decoder_iterations = 0;          ///< BP iterations, summed
  std::uint64_t reconcile_early_exit_frames = 0; ///< converged before the cap

  std::size_t final_key_bits = 0;
  BitVec final_key;                   ///< identical on both ends by construction

  StageTimings timings;

  /// Secret key rate per emitted pulse.
  double skr_per_pulse() const noexcept {
    return pulses ? static_cast<double>(final_key_bits) /
                        static_cast<double>(pulses)
                  : 0.0;
  }
};

}  // namespace qkdpp::engine
