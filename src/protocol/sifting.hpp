// Basis sifting: turning detection reports into aligned raw keys.
//
// Bob announces which gates clicked and his measurement bases; Alice keeps
// the detections measured in her preparation basis and tells Bob which ones
// those were. Bits from non-signal (decoy/vacuum) pulses are flagged - they
// are estimation material, never key material.
#pragma once

#include "common/bitvec.hpp"
#include "protocol/messages.hpp"

namespace qkdpp::protocol {

/// Alice's transmit-side log (what a real transmitter retains per pulse):
/// one bit per pulse in each vector.
struct AliceTransmitLog {
  BitVec bits;
  BitVec bases;
  BitVec signal;  ///< 1 = signal-intensity pulse, 0 = decoy or vacuum
};

/// Alice-side sifting outcome.
struct AliceSiftOutcome {
  SiftResult result;  ///< message for Bob
  BitVec sifted_key;  ///< Alice's bits at kept detections (key + estimation)
};

/// Run Alice's half of sifting against Bob's detection report.
/// Throws Error{kProtocol} if the report references pulses out of range or
/// its shape is inconsistent.
AliceSiftOutcome sift_alice(const AliceTransmitLog& log,
                            const DetectionReport& report);

/// Bob's half: select his detection bits through Alice's keep mask.
/// Throws Error{kProtocol} on shape mismatch.
BitVec sift_bob(const BitVec& bob_bits, const SiftResult& result);

}  // namespace qkdpp::protocol
