// High-level reconciliation API: one call per frame, with exact leakage and
// efficiency reporting. Two families behind one result type:
//
//   * LdpcReconciler - one-way syndrome coding with blind (incremental)
//     rate adaptation; the Alice->Bob payload is a single message, failures
//     cost one extra round per blind reveal.
//   * Cascade (see cascade.hpp) - interactive, efficiency ~1.05-1.2 but
//     O(log n) round trips per error.
//
// The pipeline chooses per block; reconcile_ldpc_test pins the trade-off
// (Cascade leaks less but talks more).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "reconcile/cascade.hpp"
#include "reconcile/ldpc_decoder.hpp"
#include "reconcile/rate_adapt.hpp"

namespace qkdpp {
class BlockArena;
}

namespace qkdpp::reconcile {

struct ReconcileOutcome {
  bool success = false;
  BitVec corrected;             ///< Bob's corrected payload (= Alice's)
  std::uint64_t leaked_bits = 0;
  std::uint64_t rounds = 0;     ///< protocol round-trips consumed
  unsigned decoder_iterations = 0;
  unsigned blind_rounds = 0;
  double efficiency = 0.0;      ///< leak / (payload * h2(qber))
};

struct LdpcReconcilerConfig {
  /// Regular (3,dc) PEG codes are not capacity-tight; 1.45 keeps the frame
  /// error rate near zero without blind rescues (measured in
  /// reconcile_ldpc_test). Tighter targets trade blind round-trips for
  /// leakage.
  double f_target = 1.45;
  double adapt_fraction = 0.10;
  unsigned max_blind_rounds = 4;
  /// Lockstep frames the batched planner aims to cut a key into (see
  /// plan_frame_batched).
  std::size_t batch_target_frames = 8;
  DecoderConfig decoder;
};

/// Alice-side state for one LDPC frame: keeps the filled frame (payload +
/// private punctured randomness) so blind reveals can be served.
class LdpcFrameSender {
 public:
  /// `payload` must have exactly plan.payload_bits bits.
  LdpcFrameSender(const FramePlan& plan, const BitVec& payload,
                  std::uint64_t frame_seed, Xoshiro256& private_rng);

  const BitVec& syndrome() const noexcept { return syndrome_; }
  const FramePlan& plan() const noexcept { return plan_; }

  /// Serve blind round `round` (1-based): the values of the next chunk of
  /// punctured positions. Empty when everything is already revealed.
  struct Reveal {
    std::vector<std::uint32_t> positions;
    BitVec values;
  };
  Reveal reveal_chunk(unsigned round, unsigned max_rounds) const;

 private:
  FramePlan plan_;
  RateAdaptation adaptation_;
  BitVec frame_;
  BitVec syndrome_;
};

/// Bob-side decoder for one LDPC frame.
class LdpcFrameReceiver {
 public:
  LdpcFrameReceiver(const FramePlan& plan, const BitVec& payload,
                    std::uint64_t frame_seed, double qber,
                    DecoderConfig decoder);

  /// Attempt decode against Alice's syndrome. Call apply_reveal() between
  /// attempts on failure.
  struct Attempt {
    bool converged = false;
    unsigned iterations = 0;
  };
  Attempt try_decode(const BitVec& syndrome);

  void apply_reveal(const std::vector<std::uint32_t>& positions,
                    const BitVec& values);

  /// Corrected payload; only meaningful after a converged attempt.
  BitVec corrected_payload() const;

 private:
  FramePlan plan_;
  RateAdaptation adaptation_;
  std::vector<float> llr_;
  DecoderConfig decoder_;
  BitVec decoded_;
};

/// Run the whole LDPC exchange in-process (tests, benches, offline
/// pipeline): Alice = `alice_payload`, Bob = `bob_payload`.
ReconcileOutcome ldpc_reconcile_local(const BitVec& alice_payload,
                                      const BitVec& bob_payload, double qber,
                                      const FramePlan& plan,
                                      std::uint64_t frame_seed,
                                      const LdpcReconcilerConfig& config,
                                      Xoshiro256& alice_private_rng);

/// Aggregate statistics for one batched reconcile call (all counters are
/// sums over frames unless noted).
struct BatchReconcileStats {
  std::uint64_t frames = 0;
  std::uint64_t frames_ok = 0;       ///< converged frames
  std::uint64_t iterations = 0;      ///< decoder iterations, all attempts
  std::uint64_t early_exit_frames = 0;  ///< converged before the iteration cap
  std::uint64_t blind_rounds = 0;
  std::uint64_t leaked_bits = 0;
  std::uint64_t rounds = 0;          ///< protocol round-trips
};

/// Reconcile frame_seeds.size() consecutive payload-sized slices of the
/// two keys in lockstep: all frames share one quantized batch decode per
/// blind stage, failed frames apply their own reveal chunk and re-decode
/// as a shrinking sub-batch. Surviving payload pairs are appended to
/// alice_out / bob_out in frame order (failed frames are skipped but
/// their leakage still counts). Per-frame results - corrected payloads,
/// leak accounting, rounds - are bit-identical to calling
/// ldpc_reconcile_local frame by frame with the same shared private RNG
/// and DecoderConfig (the equivalence the reconcile_batch tests pin
/// down). `per_frame`, when non-null, receives one
/// ReconcileOutcome per frame. `arena` (nullable) backs the decoder and
/// payload scratch.
BatchReconcileStats ldpc_reconcile_key_batch(
    const BitVec& alice_key, const BitVec& bob_key, double qber,
    const FramePlan& plan, std::span<const std::uint64_t> frame_seeds,
    const LdpcReconcilerConfig& config, Xoshiro256& alice_private_rng,
    BlockArena* arena, BitVec& alice_out, BitVec& bob_out,
    std::vector<ReconcileOutcome>* per_frame = nullptr);

/// Run Cascade in-process; thin wrapper pairing the engine with a local
/// oracle (both given the same pass permutations, derived once from
/// config.seed) and translating to ReconcileOutcome.
ReconcileOutcome cascade_reconcile_local(const BitVec& alice_key,
                                         const BitVec& bob_key, double qber,
                                         const CascadeConfig& config);

}  // namespace qkdpp::reconcile
