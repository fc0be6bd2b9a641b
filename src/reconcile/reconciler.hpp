// High-level reconciliation API: one exchange per block, with exact leakage
// and efficiency reporting. Two families behind one result type:
//
//   * LDPC - one-way syndrome coding with blind (incremental) rate
//     adaptation: Alice sends one syndrome per frame, Bob decodes the
//     block's frames in lockstep, and a failed attempt costs one extra
//     round per blind reveal.
//   * Cascade (see cascade.hpp) - interactive, efficiency ~1.05-1.2 but
//     O(log n) round trips per error.
//
// Both draw their per-block seeds from the block id (frame_ldpc_block,
// cascade_block_seed), so the engine and the two-party session reconcile a
// block the same way. The pipeline chooses the family per block;
// reconcile_ldpc_test pins the trade-off (Cascade leaks less but talks
// more).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

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

/// Values of punctured positions Alice discloses in one blind round.
struct BlindReveal {
  std::vector<std::uint32_t> positions;
  BitVec values;
};

/// Alice-side state for one LDPC frame: keeps the filled frame (payload +
/// private punctured randomness) so blind reveals can be served.
class LdpcFrameSender {
 public:
  /// `adaptation` is the frame's partition: derive_adaptation over the
  /// plan's code with the frame's seed. The sender keeps a pointer to it,
  /// so it must outlive the sender. `payload` must have exactly
  /// plan.payload_bits bits.
  LdpcFrameSender(const FramePlan& plan, const RateAdaptation& adaptation,
                  const BitVec& payload, Xoshiro256& private_rng);
  LdpcFrameSender(const FramePlan&, RateAdaptation&&, const BitVec&,
                  Xoshiro256&) = delete;

  const BitVec& syndrome() const noexcept { return syndrome_; }

  /// Serve blind round `round` (1-based): the values of the next chunk of
  /// the frame's punctured positions (its private bits, never payload).
  /// Empty when everything is already revealed.
  BlindReveal reveal_chunk(unsigned round, unsigned max_rounds) const;

 private:
  const RateAdaptation* adaptation_;
  BitVec frame_;
  BitVec syndrome_;
};

// --- one block's LDPC exchange ---------------------------------------------
// Cascade's shape: Alice's half (LdpcResponder), Bob's half
// (ldpc_decode_block) and a RevealOracle between them - the responder
// itself in process, BlindRequest/BlindResponse over a session's channel.

/// Alice's framing of a block, announced in its ReconcileStart messages.
struct LdpcBlockFraming {
  FramePlan plan;                          ///< shared by every frame
  std::vector<std::uint64_t> frame_seeds;  ///< one per frame
};

/// Frame a key of `key_bits` bits for block `block_id`: plan_frame_batched
/// with the config's target, budget and lane target, key_bits /
/// payload_bits frames, each seeded from the block id. Throws
/// Error{kConfig} when the key is shorter than every frame payload.
LdpcBlockFraming frame_ldpc_block(std::size_t key_bits, double qber,
                                  std::uint64_t block_id,
                                  const LdpcReconcilerConfig& config);

/// Cascade's permutation seed for block `block_id`.
std::uint64_t cascade_block_seed(std::uint64_t block_id) noexcept;

/// Per-attempt iteration cap of the lockstep blind loop (a lower decoder
/// cap in the config wins). A failed attempt costs its full budget across
/// every live lane, and frames that need more almost always converge right
/// after the next blind reveal instead: against a 60-iteration cap this
/// cut wall time 2-3x at low QBER with the same (occasionally lower) leak.
inline constexpr unsigned kBlindAttemptIterations = 20;

/// A blind reveal Bob asks for: chunk `round` (1-based) of frame `frame`.
struct RevealQuery {
  std::uint32_t frame = 0;
  std::uint32_t round = 0;
};

/// Bob's window onto Alice's punctured bits. One call is one protocol round
/// trip: the reveals of every query, in query order.
class RevealOracle {
 public:
  virtual ~RevealOracle() = default;
  virtual std::vector<BlindReveal> reveal(
      std::span<const RevealQuery> queries) = 0;
};

/// Alice's half: one LdpcFrameSender per frame, built in frame order from
/// her private RNG; frame f carries alice_key bits [f * payload, (f + 1) *
/// payload). Reveals are cut into `max_blind_rounds` chunks. `arena`
/// (nullable) backs payload scratch.
class LdpcResponder final : public RevealOracle {
 public:
  LdpcResponder(const BitVec& alice_key, const FramePlan& plan,
                std::span<const std::uint64_t> frame_seeds,
                unsigned max_blind_rounds, Xoshiro256& private_rng,
                BlockArena* arena = nullptr);
  /// A copy's senders would point into the source's partitions.
  LdpcResponder(const LdpcResponder&) = delete;
  LdpcResponder& operator=(const LdpcResponder&) = delete;

  std::size_t frames() const noexcept { return senders_.size(); }
  std::span<const BitVec> syndromes() const noexcept { return syndromes_; }
  /// Each frame's partition, derived once from its seed; Bob's side of an
  /// in-process exchange decodes on these same partitions.
  std::span<const RateAdaptation> adaptations() const noexcept {
    return adaptations_;
  }

  /// Requires frame < frames() and round >= 1; callers serving untrusted
  /// requests check both first.
  BlindReveal reveal(std::uint32_t frame, std::uint32_t round) const;
  std::vector<BlindReveal> reveal(
      std::span<const RevealQuery> queries) override;

 private:
  std::vector<RateAdaptation> adaptations_;
  std::vector<LdpcFrameSender> senders_;
  std::vector<BitVec> syndromes_;
  unsigned max_blind_rounds_;
};

/// Aggregate statistics for one block's exchange (all counters are sums
/// over frames unless noted).
struct BatchReconcileStats {
  std::uint64_t frames = 0;
  BitVec converged;                  ///< one bit per frame, in frame order
  std::uint64_t iterations = 0;      ///< decoder iterations, all attempts
  std::uint64_t early_exit_frames = 0;  ///< converged before the iteration cap
  std::uint64_t leaked_bits = 0;
  std::uint64_t rounds = 0;          ///< protocol round-trips
};

/// Bob's half: decode adaptations.size() consecutive payload slices of
/// `bob_key` against Alice's `syndromes` in lockstep; frame f's partition
/// is adaptations[f] (derive_adaptation with the frame's seed). Each blind
/// stage is one batch decode of every pending frame (attempts capped at
/// kBlindAttemptIterations) and one `oracle` call for the failed frames'
/// next reveal chunks. Converged frames' corrected payloads are appended to
/// `bob_out` in frame order; failed frames' leakage still counts.
/// `per_frame` (nullable) receives one ReconcileOutcome per frame; `arena`
/// (nullable) backs the decoder and payload scratch. Requires
/// plan.n_punctured <= the code's m: each frame is charged m - n_punctured
/// syndrome bits.
BatchReconcileStats ldpc_decode_block(
    const BitVec& bob_key, double qber, const FramePlan& plan,
    std::span<const RateAdaptation> adaptations,
    std::span<const BitVec> syndromes, const LdpcReconcilerConfig& config,
    RevealOracle& oracle, BlockArena* arena, BitVec& bob_out,
    std::vector<ReconcileOutcome>* per_frame = nullptr);

/// Append the payload slices of `key` whose bit is set in `converged`
/// (frame f = bits [f * payload_bits, (f + 1) * payload_bits)) to `out`, in
/// frame order: Alice's side of the reconciled key.
void append_converged_frames(const BitVec& key, std::size_t payload_bits,
                             const BitVec& converged, BitVec& out);

/// The whole exchange in process (the engine's reconcile stage, tests):
/// Alice's responder over `alice_key` is Bob's oracle. Surviving payload
/// pairs are appended to alice_out / bob_out in frame order.
BatchReconcileStats ldpc_reconcile_key_batch(
    const BitVec& alice_key, const BitVec& bob_key, double qber,
    const FramePlan& plan, std::span<const std::uint64_t> frame_seeds,
    const LdpcReconcilerConfig& config, Xoshiro256& alice_private_rng,
    BlockArena* arena, BitVec& alice_out, BitVec& bob_out,
    std::vector<ReconcileOutcome>* per_frame = nullptr);

/// Run Cascade in-process; thin wrapper pairing the engine with a local
/// oracle (both given the same pass permutations, derived once from
/// `seed`) and translating to ReconcileOutcome. `qber` sizes the first pass
/// and prices the efficiency.
ReconcileOutcome cascade_reconcile_local(const BitVec& alice_key,
                                         const BitVec& bob_key, double qber,
                                         std::uint64_t seed,
                                         const CascadeConfig& config);

}  // namespace qkdpp::reconcile
