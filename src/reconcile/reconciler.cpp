#include "reconcile/reconciler.hpp"

#include <algorithm>
#include <utility>

#include "common/arena.hpp"
#include "common/entropy.hpp"
#include "common/error.hpp"
#include "reconcile/batch_decoder.hpp"

namespace qkdpp::reconcile {

LdpcFrameSender::LdpcFrameSender(const FramePlan& plan,
                                 const RateAdaptation& adaptation,
                                 const BitVec& payload,
                                 Xoshiro256& private_rng)
    : adaptation_(&adaptation) {
  const LdpcCode& code = code_by_id(plan.code_id);
  QKDPP_REQUIRE(payload.size() == plan.payload_bits,
                "payload does not match frame plan");
  QKDPP_REQUIRE(adaptation.payload.size() == plan.payload_bits &&
                    adaptation.punctured.size() == plan.n_punctured &&
                    adaptation.shortened.size() == plan.n_shortened,
                "adaptation does not match frame plan");
  frame_ = BitVec(code.n());
  const std::span<std::uint64_t> words = frame_.mutable_words();
  const auto put = [&words](std::uint32_t position, bool value) {
    words[position >> 6] |= std::uint64_t{value} << (position & 63);
  };
  for (std::size_t i = 0; i < adaptation.payload.size(); ++i) {
    put(adaptation.payload[i], payload.get(i));
  }
  // Punctured positions carry the sender's *private* randomness - never
  // transmitted, unknown to Eve; shortened positions stay 0.
  for (const auto p : adaptation.punctured) put(p, private_rng.bernoulli(0.5));
  syndrome_ = code.syndrome(frame_);
}

BlindReveal LdpcFrameSender::reveal_chunk(unsigned round,
                                          unsigned max_rounds) const {
  QKDPP_REQUIRE(round >= 1, "blind rounds are 1-based");
  BlindReveal reveal;
  const std::vector<std::uint32_t>& punctured = adaptation_->punctured;
  const std::size_t total = punctured.size();
  if (total == 0 || max_rounds == 0) return reveal;
  const std::size_t chunk = (total + max_rounds - 1) / max_rounds;
  const std::size_t begin = std::min(total, chunk * (round - 1));
  const std::size_t end = std::min(total, begin + chunk);
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t position = punctured[i];
    reveal.positions.push_back(position);
    reveal.values.push_back(frame_.get(position));
  }
  return reveal;
}

LdpcBlockFraming frame_ldpc_block(std::size_t key_bits, double qber,
                                  std::uint64_t block_id,
                                  const LdpcReconcilerConfig& config) {
  LdpcBlockFraming framing;
  // The batched planner prefers codes that cut the key into enough frames
  // to fill the lockstep decoder's lanes.
  framing.plan =
      plan_frame_batched(key_bits, qber, config.f_target,
                         config.adapt_fraction, config.batch_target_frames);
  const std::size_t frames = key_bits / framing.plan.payload_bits;
  framing.frame_seeds.resize(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    framing.frame_seeds[f] = (block_id << 20) ^ (f * 0x9e3779b97f4a7c15ULL);
  }
  return framing;
}

std::uint64_t cascade_block_seed(std::uint64_t block_id) noexcept {
  return block_id * 0x2545f4914f6cdd1dULL + 1;
}

LdpcResponder::LdpcResponder(const BitVec& alice_key, const FramePlan& plan,
                             std::span<const std::uint64_t> frame_seeds,
                             unsigned max_blind_rounds,
                             Xoshiro256& private_rng, BlockArena* arena)
    : max_blind_rounds_(max_blind_rounds) {
  const std::size_t frames = frame_seeds.size();
  QKDPP_REQUIRE(frames * plan.payload_bits <= alice_key.size(),
                "frames exceed key length");
  const std::size_t n = code_by_id(plan.code_id).n();
  BitVec local_payload;
  BitVec& payload = arena != nullptr ? arena->scratch_bits() : local_payload;
  // Each sender points at its partition in adaptations_, so it is reserved
  // once and never reallocates.
  adaptations_.reserve(frames);
  senders_.reserve(frames);
  syndromes_.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    adaptations_.push_back(derive_adaptation(n, plan.n_punctured,
                                             plan.n_shortened, frame_seeds[f]));
    alice_key.subvec_into(f * plan.payload_bits, plan.payload_bits, payload);
    senders_.emplace_back(plan, adaptations_.back(), payload, private_rng);
    syndromes_.push_back(senders_.back().syndrome());
  }
}

BlindReveal LdpcResponder::reveal(std::uint32_t frame,
                                  std::uint32_t round) const {
  QKDPP_REQUIRE(frame < senders_.size(), "reveal frame out of range");
  return senders_[frame].reveal_chunk(round, max_blind_rounds_);
}

std::vector<BlindReveal> LdpcResponder::reveal(
    std::span<const RevealQuery> queries) {
  std::vector<BlindReveal> reveals;
  reveals.reserve(queries.size());
  for (const RevealQuery& query : queries) {
    reveals.push_back(reveal(query.frame, query.round));
  }
  return reveals;
}

BatchReconcileStats ldpc_decode_block(
    const BitVec& bob_key, double qber, const FramePlan& plan,
    std::span<const RateAdaptation> adaptations,
    std::span<const BitVec> syndromes, const LdpcReconcilerConfig& config,
    RevealOracle& oracle, BlockArena* arena, BitVec& bob_out,
    std::vector<ReconcileOutcome>* per_frame) {
  const LdpcCode& code = code_by_id(plan.code_id);
  const std::size_t frames = adaptations.size();
  QKDPP_REQUIRE(syndromes.size() == frames, "one syndrome per frame");
  QKDPP_REQUIRE(frames * plan.payload_bits <= bob_key.size(),
                "frames exceed key length");
  // Each frame is charged m - d syndrome bits.
  QKDPP_REQUIRE(plan.n_punctured <= code.m(),
                "plan punctures more bits than the syndrome has");
  BatchReconcileStats stats;
  stats.frames = frames;
  stats.converged = BitVec(frames);
  if (per_frame != nullptr) per_frame->assign(frames, ReconcileOutcome{});
  if (frames == 0) return stats;

  DecoderConfig decoder = config.decoder;
  if (arena != nullptr) decoder.arena = arena;
  decoder.max_iterations =
      std::min(decoder.max_iterations, kBlindAttemptIterations);

  // Int8 priors (the decoder's fixed-point LLRs): the channel magnitude at
  // payload positions, signed by Bob's bit; pinned shortened positions;
  // erased (punctured) positions at zero.
  BitVec local_payload;
  BitVec& payload = arena != nullptr ? arena->scratch_bits() : local_payload;
  const std::int8_t channel = quantize_llr(bsc_llr(qber));
  const std::int8_t known = quantize_llr(kKnownLlr);
  // +magnitude for a 0 bit, -magnitude for a 1, without a branch on the
  // bit: with flip = -bit, (x ^ flip) - flip is x or ~x + 1 == -x.
  const auto signed_by = [](std::int8_t magnitude, bool bit) {
    const int flip = -static_cast<int>(bit);
    return static_cast<std::int8_t>((magnitude ^ flip) - flip);
  };
  std::vector<std::vector<std::int8_t>> priors(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    QKDPP_REQUIRE(adaptations[f].payload.size() == plan.payload_bits,
                  "adaptation does not match frame plan");
    bob_key.subvec_into(f * plan.payload_bits, plan.payload_bits, payload);
    std::vector<std::int8_t>& prior = priors[f];
    prior.assign(code.n(), 0);
    const auto& positions = adaptations[f].payload;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      prior[positions[i]] = signed_by(channel, payload.get(i));
    }
    for (const auto s : adaptations[f].shortened) prior[s] = known;
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
  // kMaxBatchFrames); the failures ask for their own next reveal chunk in
  // one oracle call and ride into the next, smaller batch.
  std::vector<std::uint32_t> pending(frames);
  for (std::size_t f = 0; f < frames; ++f) {
    pending[f] = static_cast<std::uint32_t>(f);
  }
  std::vector<QuantDecodeJob> jobs;
  std::vector<DecodeResult> results;
  std::vector<RevealQuery> queries;
  while (!pending.empty()) {
    for (std::size_t off = 0; off < pending.size(); off += kMaxBatchFrames) {
      const std::size_t count =
          std::min(kMaxBatchFrames, pending.size() - off);
      jobs.clear();
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t f = pending[off + i];
        jobs.push_back(QuantDecodeJob{&syndromes[f], &priors[f]});
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
    queries.clear();
    for (const std::uint32_t f : pending) {
      FrameAccount& acct = account[f];
      if (acct.converged || acct.blind >= config.max_blind_rounds) continue;
      acct.blind += 1;
      queries.push_back(RevealQuery{f, acct.blind});
    }
    pending.clear();
    if (queries.empty()) break;
    const std::vector<BlindReveal> reveals = oracle.reveal(queries);
    QKDPP_REQUIRE(reveals.size() == queries.size(), "one reveal per query");
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::uint32_t f = queries[q].frame;
      const BlindReveal& reveal = reveals[q];
      if (reveal.positions.empty()) continue;  // nothing left to disclose
      QKDPP_REQUIRE(reveal.positions.size() == reveal.values.size(),
                    "reveal shape mismatch");
      for (std::size_t i = 0; i < reveal.positions.size(); ++i) {
        QKDPP_REQUIRE(reveal.positions[i] < code.n(),
                      "reveal position out of range");
        priors[f][reveal.positions[i]] =
            signed_by(known, reveal.values.get(i));
      }
      account[f].leaked += reveal.positions.size();
      account[f].rounds += 1;
      pending.push_back(f);
    }
  }

  const double h = binary_entropy(qber);
  for (std::size_t f = 0; f < frames; ++f) {
    const FrameAccount& acct = account[f];
    stats.iterations += acct.iterations;
    stats.leaked_bits += acct.leaked;
    stats.rounds += acct.rounds;
    if (acct.converged) {
      stats.converged.set(f, true);
      if (acct.early_exit) stats.early_exit_frames += 1;
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

void append_converged_frames(const BitVec& key, std::size_t payload_bits,
                             const BitVec& converged, BitVec& out) {
  QKDPP_REQUIRE(converged.size() * payload_bits <= key.size(),
                "frames exceed key length");
  BitVec payload;
  for (std::size_t f = 0; f < converged.size(); ++f) {
    if (!converged.get(f)) continue;
    key.subvec_into(f * payload_bits, payload_bits, payload);
    out.append(payload);
  }
}

BatchReconcileStats ldpc_reconcile_key_batch(
    const BitVec& alice_key, const BitVec& bob_key, double qber,
    const FramePlan& plan, std::span<const std::uint64_t> frame_seeds,
    const LdpcReconcilerConfig& config, Xoshiro256& alice_private_rng,
    BlockArena* arena, BitVec& alice_out, BitVec& bob_out,
    std::vector<ReconcileOutcome>* per_frame) {
  QKDPP_REQUIRE(alice_key.size() == bob_key.size(),
                "batch keys must have equal length");
  LdpcResponder alice(alice_key, plan, frame_seeds, config.max_blind_rounds,
                      alice_private_rng, arena);
  BatchReconcileStats stats = ldpc_decode_block(
      bob_key, qber, plan, alice.adaptations(), alice.syndromes(), config,
      alice, arena, bob_out, per_frame);
  append_converged_frames(alice_key, plan.payload_bits, stats.converged,
                          alice_out);
  return stats;
}

ReconcileOutcome cascade_reconcile_local(const BitVec& alice_key,
                                         const BitVec& bob_key, double qber,
                                         std::uint64_t seed,
                                         const CascadeConfig& config) {
  QKDPP_REQUIRE(alice_key.size() == bob_key.size(),
                "cascade keys must have equal length");
  // One set of permutations serves both sides. They stay with the thread,
  // sized for the largest key it has reconciled, as cascade_reconcile's
  // inverse permutations do: an engine runs block after block on it, and
  // memory freed and reallocated every block can go back to the OS and be
  // page-faulted in again.
  thread_local CascadePermutations permutations;
  fill_cascade_permutations(alice_key.size(), seed, config.passes,
                            permutations);
  LocalParityOracle oracle(alice_key, permutations);
  BitVec corrected = bob_key;
  const CascadeResult result =
      cascade_reconcile(corrected, oracle, qber, config, permutations);

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
