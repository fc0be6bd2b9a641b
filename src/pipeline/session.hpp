// Two-party post-processing session over the classical channel.
//
// Alice and Bob run as peers (typically on two threads or two processes)
// exchanging the typed messages of protocol/messages.hpp over any
// ClassicalChannel - usually the AuthenticatedChannel wrapper, so every
// frame is Wegman-Carter tagged. The session covers the complete chain:
//
//   Bob:   DetectionReport ->                        (his clicks + bases)
//   Alice:                 <- SiftResult
//   Alice:                 <- PeReveal               (estimation positions)
//   Bob:   PeReport ->
//   Alice:                 <- PeVerdict              (continue / abort)
//   Alice:                 <- ReconcileStart         (per frame | cascade)
//          ... ParityRequest/ParityResponse | BlindRequest/BlindResponse ...
//   Bob:   ReconcileDone ->                          (outcome per frame)
//   Alice:                 <- VerifyRequest
//   Bob:   VerifyResponse ->
//   Alice:                 <- PaParams
//   both:  KeyConfirm      (non-secret bookkeeping)
//
// Every computation is the engine's: the per-stage primitives
// (engine/primitives.hpp) and the block-level reconcile exchange
// (reconcile/reconciler.hpp). Alice frames an LDPC key with
// frame_ldpc_block and streams every frame's syndrome; Bob decodes the
// block with the engine's lockstep blind loop, asking for reveals by frame
// at one round trip per blind stage. Fed the same BlockInput, block id and
// RNG seed, both peers end with exactly process_block's key. This file
// owns the message choreography and checks every reconcile field it takes
// off the wire (a hostile one is a kProtocol fault). Abort at any decision
// point is a message, not an exception; both sides return success=false
// with the same reason.
//
// Channel faults are typed aborts too: an exchange deadline blown at the
// ARQ layer (Error{kTimeout}), a peer hang-up
// (kChannelClosed), or a Wegman-Carter tag mismatch (kAuthentication) ends
// the block with success=false and SessionResult::fault_code set, after a
// best-effort Abort message to the peer — the orchestrator's circuit
// breaker consumes these instead of the process unwinding. A corrupted or
// replayed message is either healed below (ReliableChannel dedup + CRC +
// retransmit) or lands here as one of those typed aborts; it can never
// become a delivered key, because verification still gates delivery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "engine/params.hpp"
#include "protocol/channel.hpp"
#include "protocol/messages.hpp"
#include "protocol/sifting.hpp"

namespace qkdpp::pipeline {

struct SessionResult {
  bool success = false;
  std::string abort_reason;
  /// Set when the block died to a transport/authentication fault rather
  /// than a protocol decision: the ErrorCode the channel stack surfaced
  /// (kTimeout, kChannelClosed, kAuthentication, ...). Empty for protocol
  /// aborts (high QBER, verification mismatch, short key).
  std::optional<ErrorCode> fault_code;

  BitVec final_key;          ///< empty unless success
  std::uint64_t key_id = 0;  ///< shared id (block id based)

  std::size_t sifted_bits = 0;
  std::size_t key_candidate_bits = 0;
  double qber_estimate = 0.0;
  std::uint64_t leak_ec_bits = 0;
  std::size_t reconciled_bits = 0;
  protocol::ChannelCounters channel;
};

/// Run Alice's side to completion for one block: her half of an
/// engine::BlockInput, the transmit log.
SessionResult run_alice_session(protocol::ClassicalChannel& channel,
                                const protocol::AliceTransmitLog& log,
                                std::uint64_t block_id,
                                const engine::PostprocessParams& params,
                                Xoshiro256& rng);

/// Run Bob's side to completion for one block: his half of an
/// engine::BlockInput, the click announcement (sent to Alice as given; its
/// block_id names the block) and his measured bits.
SessionResult run_bob_session(protocol::ClassicalChannel& channel,
                              const protocol::DetectionReport& report,
                              const BitVec& bob_bits,
                              const engine::PostprocessParams& params);

}  // namespace qkdpp::pipeline
