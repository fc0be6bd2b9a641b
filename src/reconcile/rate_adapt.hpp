// Rate adaptation for syndrome-based LDPC reconciliation.
//
// A fixed mother code is tuned to the observed QBER by shortening (positions
// pinned to 0, known to both sides) and puncturing (positions filled with
// the sender's private randomness, unknown to receiver and eavesdropper).
// Blind reconciliation reveals punctured values incrementally when decoding
// fails, converging on the channel's real rate without a precise prior
// estimate (Martinez-Mateo et al.).
//
// Leakage accounting (upper bound, used by the privacy-amplification
// planner): syndrome discloses m bits, of which d are "absorbed" by the
// punctured randomness => leak = m - d + (punctured values revealed later).
#pragma once

#include <cstdint>
#include <vector>

#include "reconcile/ldpc_code.hpp"

namespace qkdpp::reconcile {

/// Deterministic position classes for a frame, derived from a shared seed.
struct RateAdaptation {
  std::vector<std::uint32_t> punctured;  ///< d positions, LLR 0 at receiver
  std::vector<std::uint32_t> shortened;  ///< s positions, pinned to 0
  std::vector<std::uint32_t> payload;    ///< n - d - s key positions, ascending
};

/// Derive the (punctured, shortened, payload) partition of [0, n).
/// Both peers must call with identical arguments.
RateAdaptation derive_adaptation(std::size_t n, std::uint32_t n_punctured,
                                 std::uint32_t n_shortened,
                                 std::uint64_t seed);

/// A planned reconciliation frame.
struct FramePlan {
  std::uint32_t code_id = 0;
  std::uint32_t n_punctured = 0;
  std::uint32_t n_shortened = 0;
  std::size_t payload_bits = 0;
  /// Predicted efficiency f = (m - d) / (payload * h2(q)).
  double predicted_efficiency = 0.0;
};

/// Choose code + (d, s) for a frame whose payload FITS inside a key of
/// `key_bits` bits (so at least one full frame can be cut from it) at
/// crossover `qber`, aiming at reconciliation efficiency `f_target` and
/// preferring the largest such payload. `adapt_fraction` is the d+s budget
/// as a fraction of n (0.1 is typical). Throws Error{kConfig} when even the
/// smallest code's payload exceeds the key.
FramePlan plan_frame_fitting(std::size_t key_bits, double qber,
                             double f_target, double adapt_fraction = 0.10);

/// Like plan_frame_fitting, but shaped for the lockstep batch decoder:
/// prefer the largest code whose payload cuts the key into at least
/// `target_frames` frames, so the decoder gets enough lanes to fill its
/// vectors. Candidates stay at n >= 4096 - below that the finite-length
/// rate penalty costs more secret key than the extra lanes buy - and when
/// no such code reaches target_frames the one yielding the most frames
/// wins. Keys shorter than every >= 4096-payload fall back to
/// plan_frame_fitting (which may pick a 1024-bit frame or throw).
FramePlan plan_frame_batched(std::size_t key_bits, double qber,
                             double f_target, double adapt_fraction = 0.10,
                             std::size_t target_frames = 8);

}  // namespace qkdpp::reconcile
