#include "reconcile/reconciler.hpp"

#include <algorithm>

#include "common/arena.hpp"
#include "common/entropy.hpp"
#include "common/error.hpp"
#include "reconcile/batch_decoder.hpp"

namespace qkdpp::reconcile {

LdpcFrameSender::LdpcFrameSender(const FramePlan& plan, const BitVec& payload,
                                 std::uint64_t frame_seed,
                                 Xoshiro256& private_rng)
    : plan_(plan) {
  const LdpcCode& code = code_by_id(plan.code_id);
  QKDPP_REQUIRE(payload.size() == plan.payload_bits,
                "payload does not match frame plan");
  adaptation_ = derive_adaptation(code.n(), plan.n_punctured,
                                  plan.n_shortened, frame_seed);
  frame_ = BitVec(code.n());
  for (std::size_t i = 0; i < adaptation_.payload.size(); ++i) {
    if (payload.get(i)) frame_.set(adaptation_.payload[i], true);
  }
  // Punctured positions carry the sender's *private* randomness - never
  // transmitted, unknown to Eve; shortened positions stay 0.
  for (const auto p : adaptation_.punctured) {
    if (private_rng.bernoulli(0.5)) frame_.set(p, true);
  }
  syndrome_ = code.syndrome(frame_);
}

LdpcFrameSender::Reveal LdpcFrameSender::reveal_chunk(
    unsigned round, unsigned max_rounds) const {
  QKDPP_REQUIRE(round >= 1, "blind rounds are 1-based");
  Reveal reveal;
  const std::size_t total = adaptation_.punctured.size();
  if (total == 0 || max_rounds == 0) return reveal;
  const std::size_t chunk = (total + max_rounds - 1) / max_rounds;
  const std::size_t begin = std::min(total, chunk * (round - 1));
  const std::size_t end = std::min(total, begin + chunk);
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t position = adaptation_.punctured[i];
    reveal.positions.push_back(position);
    reveal.values.push_back(frame_.get(position));
  }
  return reveal;
}

LdpcFrameReceiver::LdpcFrameReceiver(const FramePlan& plan,
                                     const BitVec& payload,
                                     std::uint64_t frame_seed, double qber,
                                     DecoderConfig decoder)
    : plan_(plan), decoder_(decoder) {
  const LdpcCode& code = code_by_id(plan.code_id);
  QKDPP_REQUIRE(payload.size() == plan.payload_bits,
                "payload does not match frame plan");
  adaptation_ = derive_adaptation(code.n(), plan.n_punctured,
                                  plan.n_shortened, frame_seed);
  const float channel = bsc_llr(qber);
  llr_.assign(code.n(), 0.0f);
  for (std::size_t i = 0; i < adaptation_.payload.size(); ++i) {
    llr_[adaptation_.payload[i]] = payload.get(i) ? -channel : channel;
  }
  for (const auto s : adaptation_.shortened) llr_[s] = kKnownLlr;
  // Punctured positions stay at LLR 0 (erasures).
}

LdpcFrameReceiver::Attempt LdpcFrameReceiver::try_decode(
    const BitVec& syndrome) {
  const LdpcCode& code = code_by_id(plan_.code_id);
  const DecodeResult result =
      decode_syndrome_quant(code, syndrome, llr_, decoder_);
  decoded_ = result.word;
  return Attempt{result.converged, result.iterations};
}

void LdpcFrameReceiver::apply_reveal(
    const std::vector<std::uint32_t>& positions, const BitVec& values) {
  QKDPP_REQUIRE(positions.size() == values.size(), "reveal shape mismatch");
  for (std::size_t i = 0; i < positions.size(); ++i) {
    QKDPP_REQUIRE(positions[i] < llr_.size(), "reveal position out of range");
    llr_[positions[i]] = values.get(i) ? -kKnownLlr : kKnownLlr;
  }
}

BitVec LdpcFrameReceiver::corrected_payload() const {
  return decoded_.gather(adaptation_.payload);
}

ReconcileOutcome ldpc_reconcile_local(const BitVec& alice_payload,
                                      const BitVec& bob_payload, double qber,
                                      const FramePlan& plan,
                                      std::uint64_t frame_seed,
                                      const LdpcReconcilerConfig& config,
                                      Xoshiro256& alice_private_rng) {
  const LdpcCode& code = code_by_id(plan.code_id);
  LdpcFrameSender alice(plan, alice_payload, frame_seed, alice_private_rng);
  LdpcFrameReceiver bob(plan, bob_payload, frame_seed, qber, config.decoder);

  ReconcileOutcome outcome;
  outcome.rounds = 1;  // syndrome message
  outcome.leaked_bits = code.m() - plan.n_punctured;

  auto attempt = bob.try_decode(alice.syndrome());
  outcome.decoder_iterations = attempt.iterations;
  unsigned round = 0;
  while (!attempt.converged && round < config.max_blind_rounds) {
    ++round;
    const auto reveal = alice.reveal_chunk(round, config.max_blind_rounds);
    if (reveal.positions.empty()) break;
    bob.apply_reveal(reveal.positions, reveal.values);
    outcome.leaked_bits += reveal.positions.size();
    outcome.rounds += 1;
    attempt = bob.try_decode(alice.syndrome());
    outcome.decoder_iterations += attempt.iterations;
  }
  outcome.blind_rounds = round;
  outcome.success = attempt.converged;
  if (outcome.success) {
    outcome.corrected = bob.corrected_payload();
    // Converged to the wrong codeword? The verification stage catches it;
    // the outcome still reports success at this layer.
  }
  outcome.efficiency =
      static_cast<double>(outcome.leaked_bits) /
      (static_cast<double>(plan.payload_bits) * binary_entropy(qber));
  return outcome;
}

BatchReconcileStats ldpc_reconcile_key_batch(
    const BitVec& alice_key, const BitVec& bob_key, double qber,
    const FramePlan& plan, std::span<const std::uint64_t> frame_seeds,
    const LdpcReconcilerConfig& config, Xoshiro256& alice_private_rng,
    BlockArena* arena, BitVec& alice_out, BitVec& bob_out,
    std::vector<ReconcileOutcome>* per_frame) {
  const LdpcCode& code = code_by_id(plan.code_id);
  const std::size_t frames = frame_seeds.size();
  QKDPP_REQUIRE(alice_key.size() == bob_key.size(),
                "batch keys must have equal length");
  QKDPP_REQUIRE(frames * plan.payload_bits <= alice_key.size(),
                "frames exceed key length");
  BatchReconcileStats stats;
  stats.frames = frames;
  if (per_frame != nullptr) per_frame->assign(frames, ReconcileOutcome{});
  if (frames == 0) return stats;

  DecoderConfig decoder = config.decoder;
  if (arena != nullptr) decoder.arena = arena;

  // Alice's frames, built in frame order so her private RNG stream is
  // consumed exactly as the sequential single-frame path consumes it.
  BitVec local_payload;
  BitVec& payload = arena != nullptr ? arena->scratch_bits() : local_payload;
  std::vector<LdpcFrameSender> senders;
  senders.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    alice_key.subvec_into(f * plan.payload_bits, plan.payload_bits, payload);
    senders.emplace_back(plan, payload, frame_seeds[f], alice_private_rng);
  }

  // Bob's priors, identical to LdpcFrameReceiver's construction: channel
  // LLRs at payload positions, pinned shortened positions, erased
  // (punctured) positions at zero.
  const float channel = bsc_llr(qber);
  std::vector<RateAdaptation> adaptations(frames);
  std::vector<std::vector<float>> llrs(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    bob_key.subvec_into(f * plan.payload_bits, plan.payload_bits, payload);
    adaptations[f] = derive_adaptation(code.n(), plan.n_punctured,
                                       plan.n_shortened, frame_seeds[f]);
    std::vector<float>& llr = llrs[f];
    llr.assign(code.n(), 0.0f);
    const auto& positions = adaptations[f].payload;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      llr[positions[i]] = payload.get(i) ? -channel : channel;
    }
    for (const auto s : adaptations[f].shortened) llr[s] = kKnownLlr;
  }

  struct FrameAccount {
    std::uint64_t leaked = 0;
    std::uint64_t rounds = 1;  // syndrome message
    unsigned iterations = 0;
    unsigned blind = 0;
    bool converged = false;
    bool early_exit = false;
    BitVec corrected;
  };
  std::vector<FrameAccount> account(frames);
  for (auto& acct : account) acct.leaked = code.m() - plan.n_punctured;

  // Blind stages: every pending frame decodes in lockstep (sub-batches of
  // kMaxBatchFrames); survivors apply their own next reveal chunk and ride
  // into the next, smaller batch.
  std::vector<std::uint32_t> pending(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    pending[f] = static_cast<std::uint32_t>(f);
  }
  std::vector<QuantDecodeJob> jobs;
  std::vector<DecodeResult> results;
  while (!pending.empty()) {
    for (std::size_t off = 0; off < pending.size(); off += kMaxBatchFrames) {
      const std::size_t count =
          std::min(kMaxBatchFrames, pending.size() - off);
      jobs.clear();
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t f = pending[off + i];
        jobs.push_back(QuantDecodeJob{&senders[f].syndrome(), &llrs[f]});
      }
      decode_syndrome_batch(code, jobs, decoder, results);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t f = pending[off + i];
        FrameAccount& acct = account[f];
        acct.iterations += results[i].iterations;
        if (results[i].converged) {
          acct.converged = true;
          acct.early_exit = results[i].iterations < decoder.max_iterations;
          acct.corrected = results[i].word.gather(adaptations[f].payload);
        }
      }
    }
    std::vector<std::uint32_t> survivors;
    for (const std::uint32_t f : pending) {
      FrameAccount& acct = account[f];
      if (acct.converged || acct.blind >= config.max_blind_rounds) continue;
      acct.blind += 1;
      const auto reveal =
          senders[f].reveal_chunk(acct.blind, config.max_blind_rounds);
      if (reveal.positions.empty()) continue;  // nothing left to disclose
      for (std::size_t i = 0; i < reveal.positions.size(); ++i) {
        llrs[f][reveal.positions[i]] =
            reveal.values.get(i) ? -kKnownLlr : kKnownLlr;
      }
      acct.leaked += reveal.positions.size();
      acct.rounds += 1;
      survivors.push_back(f);
    }
    pending = std::move(survivors);
  }

  const double h = binary_entropy(qber);
  for (std::size_t f = 0; f < frames; ++f) {
    const FrameAccount& acct = account[f];
    stats.iterations += acct.iterations;
    stats.blind_rounds += acct.blind;
    stats.leaked_bits += acct.leaked;
    stats.rounds += acct.rounds;
    if (acct.converged) {
      stats.frames_ok += 1;
      if (acct.early_exit) stats.early_exit_frames += 1;
      alice_key.subvec_into(f * plan.payload_bits, plan.payload_bits, payload);
      alice_out.append(payload);
      bob_out.append(acct.corrected);
    }
    if (per_frame != nullptr) {
      ReconcileOutcome& outcome = (*per_frame)[f];
      outcome.success = acct.converged;
      outcome.corrected = acct.corrected;
      outcome.leaked_bits = acct.leaked;
      outcome.rounds = acct.rounds;
      outcome.decoder_iterations = acct.iterations;
      outcome.blind_rounds = acct.blind;
      outcome.efficiency =
          static_cast<double>(acct.leaked) /
          (static_cast<double>(plan.payload_bits) * h);
    }
  }
  return stats;
}

ReconcileOutcome cascade_reconcile_local(const BitVec& alice_key,
                                         const BitVec& bob_key, double qber,
                                         const CascadeConfig& config) {
  QKDPP_REQUIRE(alice_key.size() == bob_key.size(),
                "cascade keys must have equal length");
  // One set of permutations serves both sides.
  const CascadePermutations permutations =
      cascade_permutations(alice_key.size(), config.seed, config.passes);
  LocalParityOracle oracle(alice_key, permutations);
  BitVec corrected = bob_key;
  const CascadeResult result =
      cascade_reconcile(corrected, oracle, config, permutations);

  ReconcileOutcome outcome;
  outcome.corrected = std::move(corrected);
  // Non-convergence (round budget exhausted with odd blocks outstanding)
  // means the keys provably still differ; converged runs may still carry a
  // residual undetected error pair, which verification catches.
  outcome.success = result.converged;
  outcome.leaked_bits = result.leaked_bits;
  outcome.rounds = result.rounds;
  outcome.efficiency = result.efficiency(alice_key.size(), qber);
  return outcome;
}

}  // namespace qkdpp::reconcile
