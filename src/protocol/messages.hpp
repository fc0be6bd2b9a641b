// Typed protocol messages exchanged over the classical channel.
//
// Every message carries the block id it refers to, so a session can detect
// out-of-order or replayed frames cheaply (full integrity/authenticity is the
// authenticated channel's job). Wire format: 1 type byte + fields in
// ByteWriter little-endian encoding, in the order messages.cpp lists them.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bitvec.hpp"

namespace qkdpp::protocol {

/// Bob -> Alice: which gates clicked and in which bases they were measured.
struct DetectionReport {
  std::uint64_t block_id = 0;
  std::uint64_t n_pulses = 0;
  std::vector<std::uint32_t> detected_idx;
  BitVec bob_bases;  ///< one bit per detection
};

/// Alice -> Bob: which detections had matching bases (mask over detections)
/// and which of the kept bits are non-signal pulses (decoy/vacuum, to be
/// fully revealed during estimation rather than keyed).
struct SiftResult {
  std::uint64_t block_id = 0;
  BitVec keep_mask;    ///< over detections
  BitVec signal_mask;  ///< over kept bits: 1 = signal pulse (key material)
};

/// Alice -> Bob: reveal request for parameter estimation. `positions` index
/// into the *sifted* string; alice_bits are her values there (disclosed).
struct PeReveal {
  std::uint64_t block_id = 0;
  std::vector<std::uint32_t> positions;
  BitVec alice_bits;
};

/// Bob -> Alice: his bits at the requested positions.
struct PeReport {
  std::uint64_t block_id = 0;
  BitVec bob_bits;
};

/// Alice -> Bob: continue/abort decision with the estimate that drove it.
struct PeVerdict {
  std::uint64_t block_id = 0;
  bool proceed = false;
  double qber_estimate = 0.0;
  double qber_upper = 0.0;
};

/// Reconciliation method selector.
enum class ReconcileMethod : std::uint8_t { kCascade = 0, kLdpc = 1 };

/// Alice -> Bob: reconciliation parameters. LDPC sends one per frame, all
/// sharing the block's plan, with the frame's seed and syndrome; Cascade
/// sends one whose permutation seed drives both sides' shuffles.
struct ReconcileStart {
  std::uint64_t block_id = 0;
  ReconcileMethod method = ReconcileMethod::kLdpc;
  std::uint64_t perm_seed = 0;
  std::uint32_t code_id = 0;
  std::uint32_t n_punctured = 0;
  std::uint32_t n_shortened = 0;
  double qber_hint = 0.0;
  BitVec syndrome;
};

/// Bob -> Alice (Cascade): batched parity queries over half-open ranges in
/// the pass-`pass` permuted domain.
struct ParityRequest {
  std::uint64_t block_id = 0;
  std::uint32_t pass = 0;
  std::vector<std::uint32_t> range_begins;
  std::vector<std::uint32_t> range_ends;
};

/// Alice -> Bob (Cascade): one parity bit per requested range.
struct ParityResponse {
  std::uint64_t block_id = 0;
  std::uint32_t pass = 0;
  BitVec parities;
};

/// Bob -> Alice: reconciliation finished on his side, with one outcome bit
/// per ReconcileStart Alice sent (LDPC: per frame, in frame order;
/// Cascade: one bit for the whole key).
struct ReconcileDone {
  std::uint64_t block_id = 0;
  BitVec converged;
};

/// Bob -> Alice (blind LDPC): decoding frame `frame` failed, reveal its
/// next chunk of punctured bits.
struct BlindRequest {
  std::uint64_t block_id = 0;
  std::uint32_t frame = 0;
  std::uint32_t round = 0;
};

/// Alice -> Bob (blind LDPC): values of previously punctured positions of
/// frame `frame`.
struct BlindResponse {
  std::uint64_t block_id = 0;
  std::uint32_t frame = 0;
  std::uint32_t round = 0;
  std::vector<std::uint32_t> positions;
  BitVec values;
};

/// Alice -> Bob: seeded universal-hash challenge over her corrected key.
struct VerifyRequest {
  std::uint64_t block_id = 0;
  std::uint64_t seed = 0;
  std::uint64_t tag_hi = 0;
  std::uint64_t tag_lo = 0;
};

/// Bob -> Alice: whether his key hashes to the same tag.
struct VerifyResponse {
  std::uint64_t block_id = 0;
  bool match = false;
};

/// Alice -> Bob: privacy-amplification parameters (Toeplitz seed + length).
struct PaParams {
  std::uint64_t block_id = 0;
  std::uint64_t seed = 0;
  std::uint64_t out_len = 0;
};

/// Both directions: final-key fingerprint for bookkeeping (not secret).
struct KeyConfirm {
  std::uint64_t block_id = 0;
  std::uint64_t key_id = 0;
  std::uint32_t crc = 0;
};

/// Either side: abandon the block (reason mirrors ErrorCode).
struct Abort {
  std::uint64_t block_id = 0;
  std::uint8_t reason = 0;
  std::string detail;
};

/// The type byte is the alternative's index + 1, so this order is part of
/// the wire format: append new messages at the end.
using Message =
    std::variant<DetectionReport, SiftResult, PeReveal, PeReport, PeVerdict,
                 ReconcileStart, ParityRequest, ParityResponse, ReconcileDone,
                 BlindRequest, BlindResponse, VerifyRequest, VerifyResponse,
                 PaParams, KeyConfirm, Abort>;

/// Stable wire tag of the alternative held by `m` (1-16).
std::uint8_t message_type(const Message& m) noexcept;
/// Human-readable name, for logs and protocol errors.
const char* message_name(const Message& m) noexcept;

std::vector<std::uint8_t> encode_message(const Message& m);
/// Throws Error{kSerialization} on malformed frames.
Message decode_message(std::span<const std::uint8_t> frame);

}  // namespace qkdpp::protocol
