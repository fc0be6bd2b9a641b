// Batched quantized reconciliation: the decode-equivalence property (a
// frame decodes bit-identically alone or inside any batch, at every lane
// width, on every instruction-set build of the kernel the host runs), the
// kernel's output pinned to a digest of the kernel it replaced, the lane
// kernel against a scalar one-frame reference at random shapes, batch key
// reconciliation vs a sequential single-frame reference kept here as the
// test oracle (corrected payloads AND leak accounting), the
// blind-vs-fixed-rate disclosure ordering on a quiet channel, and the
// batched planner's shape.
#include "reconcile/batch_decoder.hpp"
#include "reconcile/min_sum_isa.hpp"
#include "reconcile/reconciler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::reconcile {
namespace {

BitVec corrupt(const BitVec& key, double q, Xoshiro256& rng) {
  BitVec noisy = key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (rng.bernoulli(q)) noisy.flip(i);
  }
  return noisy;
}

// --- kernel-level equivalence -------------------------------------------

// A seeded set of frames for `code`: frame j runs at QBER 1-9% (cycling),
// so a batch mixes instant converges with stragglers and likely failures,
// and carries punctured (erasure) and pinned (known) positions, the two
// rate-adaptation LLR classes. Each frame's float LLRs are quantized with
// quantize_llr into the int8 prior its job carries.
struct FrameSet {
  std::vector<BitVec> syndromes;
  std::vector<std::vector<std::int8_t>> priors;
};

FrameSet make_frames(const LdpcCode& code, std::size_t count,
                     std::uint64_t seed) {
  Xoshiro256 rng(seed);
  FrameSet set;
  for (std::size_t j = 0; j < count; ++j) {
    const BitVec x = rng.random_bits(code.n());
    set.syndromes.push_back(code.syndrome(x));
    const double q = 0.01 + 0.01 * static_cast<double>(j % 9);
    const BitVec noisy = corrupt(x, q, rng);
    std::vector<float> llr(code.n());
    const float mag = bsc_llr(q);
    for (std::size_t v = 0; v < code.n(); ++v) {
      llr[v] = noisy.get(v) ? -mag : mag;
    }
    for (std::size_t v = j % 37; v < code.n(); v += 37) llr[v] = 0.0f;
    for (std::size_t v = j % 53 + 5; v < code.n(); v += 53) {
      llr[v] = x.get(v) ? -kKnownLlr : kKnownLlr;
    }
    std::vector<std::int8_t> prior(code.n());
    std::transform(llr.begin(), llr.end(), prior.begin(), quantize_llr);
    set.priors.push_back(std::move(prior));
  }
  return set;
}

std::vector<QuantDecodeJob> jobs_of(const FrameSet& set, std::size_t first,
                                    std::size_t count) {
  std::vector<QuantDecodeJob> jobs(count);
  for (std::size_t j = 0; j < count; ++j) {
    jobs[j].syndrome = &set.syndromes[first + j];
    jobs[j].prior = &set.priors[first + j];
  }
  return jobs;
}

std::string isa_name(detail::MinSumIsa isa) {
  return isa == detail::MinSumIsa::kAvx2 ? "avx2" : "portable";
}

// Every instantiation of the kernel, run where the host can execute it.
const auto kIsas = ::testing::Values(detail::MinSumIsa::kPortable,
                                     detail::MinSumIsa::kAvx2);

// Job counts that select each lane width: 4, 8, 16, 32 and 64 lanes.
constexpr std::size_t kJobCounts[] = {1, 6, 11, 23, 64};

// Decoding a frame inside a batch must be bit-identical to decoding it as
// a one-job batch: every lane's arithmetic is independent, so batching is
// purely a layout transform. Every job count but 64 leaves pad lanes.
using IsaAndJobCount = std::tuple<detail::MinSumIsa, std::size_t>;
class BatchDecoder : public ::testing::TestWithParam<IsaAndJobCount> {};

TEST_P(BatchDecoder, BatchEqualsSingleFrameBitExact) {
  const auto [isa, count] = GetParam();
  if (!detail::min_sum_isa_available(isa)) {
    GTEST_SKIP() << isa_name(isa) << " kernel not runnable on this CPU";
  }
  const LdpcCode code = LdpcCode::peg(1024, 512, DegreeProfile::regular(3), 1);
  const FrameSet set = make_frames(code, count, 42);

  DecoderConfig config;
  config.max_iterations = 30;
  const std::vector<QuantDecodeJob> jobs = jobs_of(set, 0, count);
  std::vector<DecodeResult> batch;
  detail::decode_syndrome_batch_on(isa, code, jobs, config, batch);
  ASSERT_EQ(batch.size(), count);

  std::vector<DecodeResult> single;
  for (std::size_t j = 0; j < count; ++j) {
    detail::decode_syndrome_batch_on(isa, code, {&jobs[j], 1}, config, single);
    EXPECT_EQ(batch[j].converged, single[0].converged) << "job " << j;
    EXPECT_EQ(batch[j].iterations, single[0].iterations) << "job " << j;
    EXPECT_EQ(batch[j].word, single[0].word) << "job " << j;
    if (j % 9 < 4) {
      // QBER <= 4% on a rate-0.5 code: the quiet jobs must decode.
      EXPECT_TRUE(batch[j].converged) << "job " << j;
    }
    if (batch[j].converged) {
      EXPECT_TRUE(code.syndrome_matches(batch[j].word, set.syndromes[j]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    IsaByLanes, BatchDecoder,
    ::testing::Combine(kIsas, ::testing::ValuesIn(kJobCounts)),
    [](const auto& info) {
      return isa_name(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "jobs";
    });

// FNV-1a, fed 64 bits at a time.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The kernel's output on a fixed seeded set, pinned to the value the
// auto-vectorized per-lane kernel it replaced produced: code 6 (n = 4096,
// rate 0.75, the code the 10 km blocks decode) and a PEG n = 1024 code,
// decoded in consecutive batches of every job count above, at 20
// iterations as the reconcile stage caps them. Every frame's converged
// flag, iteration count and hard decision goes into the digest.
class KernelDigest : public ::testing::TestWithParam<detail::MinSumIsa> {};

TEST_P(KernelDigest, MatchesParentKernelDigest) {
  const detail::MinSumIsa isa = GetParam();
  if (!detail::min_sum_isa_available(isa)) {
    GTEST_SKIP() << isa_name(isa) << " kernel not runnable on this CPU";
  }
  const LdpcCode peg1024 =
      LdpcCode::peg(1024, 512, DegreeProfile::regular(3), 7);
  DecoderConfig config;
  config.max_iterations = 20;

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t converged = 0;
  std::size_t frames = 0;
  for (const LdpcCode* code : {&code_by_id(6), &peg1024}) {
    const FrameSet set = make_frames(*code, 105, code->n());
    std::size_t first = 0;
    for (const std::size_t count : kJobCounts) {
      std::vector<DecodeResult> results;
      detail::decode_syndrome_batch_on(isa, *code, jobs_of(set, first, count),
                                       config, results);
      for (const DecodeResult& r : results) {
        digest = fnv1a(digest, r.converged ? 1u : 0u);
        digest = fnv1a(digest, r.iterations);
        for (const std::uint64_t w : r.word.words()) digest = fnv1a(digest, w);
        converged += r.converged ? 1 : 0;
        ++frames;
      }
      first += count;
    }
  }
  EXPECT_EQ(frames, 210u);
  EXPECT_GT(converged, 60u);
  EXPECT_LT(converged, frames) << "the noisiest frames must fail";
  EXPECT_EQ(digest, 0xe84104af9136d604ULL) << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(Isa, KernelDigest, kIsas, [](const auto& info) {
  return isa_name(info.param);
});

// --- the lane kernel vs a scalar reference at random shapes -------------

// Scalar one-frame int8 layered min-sum - a test oracle, not a production
// path. It follows the kernel's arithmetic contract, not its lane layout:
// q = posterior - r clamped to the +-127 rails, the two smallest |q| of a
// check, the self-excluded one (min2 where |q| == min1) clamped to the
// rail and scaled by 26/32, signed by the check's syndrome bit XOR every
// other q's sign; posteriors refresh in place, check by check. After each
// iteration the frame converges when every check's posterior signs XOR to
// its syndrome bit, and its word is that iteration's hard decision.
DecodeResult scalar_reference_decode(const LdpcCode& code,
                                     const BitVec& syndrome,
                                     const std::vector<std::int8_t>& prior,
                                     unsigned max_iterations) {
  std::vector<int> posterior(prior.begin(), prior.end());
  std::vector<int> r(code.edges(), 0);
  std::vector<int> q;
  const auto hard_decision = [&] {
    BitVec word(code.n());
    for (std::size_t v = 0; v < code.n(); ++v) word.set(v, posterior[v] < 0);
    return word;
  };
  const auto satisfied = [&] {
    for (std::size_t c = 0; c < code.m(); ++c) {
      bool parity = syndrome.get(c);
      for (const std::uint32_t v : code.check_vars(c)) {
        parity ^= posterior[v] < 0;
      }
      if (parity) return false;
    }
    return true;
  };
  for (unsigned iter = 1; iter <= max_iterations; ++iter) {
    for (std::size_t c = 0; c < code.m(); ++c) {
      const auto vars = code.check_vars(c);
      const std::size_t base = code.check_edge_begin(c);
      bool parity = syndrome.get(c);
      int min1 = 0x7FFF;  // unset until an edge sets it
      int min2 = 0x7FFF;
      q.assign(vars.size(), 0);
      for (std::size_t i = 0; i < vars.size(); ++i) {
        q[i] = std::clamp(posterior[vars[i]] - r[base + i], -127, 127);
        parity ^= q[i] < 0;
        const int mag = std::abs(q[i]);
        if (mag < min1) {
          min2 = min1;
          min1 = mag;
        } else if (mag < min2) {
          min2 = mag;
        }
      }
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const int other = std::min(std::abs(q[i]) == min1 ? min2 : min1, 127);
        const int mag = other * 26 / 32;
        r[base + i] = parity != (q[i] < 0) ? -mag : mag;
        posterior[vars[i]] = q[i] + r[base + i];
      }
    }
    if (satisfied()) return DecodeResult{true, iter, hard_decision()};
  }
  return DecodeResult{false, max_iterations, hard_decision()};
}

// A frame's int8 prior for `code` at QBER q: Bob's noisy copy of x at the
// quantized channel magnitude, or (`random_magnitudes`) at a uniform
// magnitude in [0, 127] per position, so ties and rail values vary; plus
// a few erased (0) and pinned (+-127) positions.
std::vector<std::int8_t> random_prior(const LdpcCode& code, const BitVec& x,
                                      double q, bool random_magnitudes,
                                      Xoshiro256& rng) {
  const std::int8_t channel = quantize_llr(bsc_llr(q));
  std::vector<std::int8_t> prior(code.n());
  for (std::size_t v = 0; v < code.n(); ++v) {
    const bool bit = x.get(v) != rng.bernoulli(q);
    const auto mag = random_magnitudes
                         ? static_cast<std::int8_t>(rng.uniform(128))
                         : channel;
    prior[v] = static_cast<std::int8_t>(bit ? -mag : mag);
    const double u = rng.next_double();
    if (u < 0.05) prior[v] = 0;
    if (u > 0.97) prior[v] = x.get(v) ? -127 : 127;
  }
  return prior;
}

// The lane kernel must agree with the scalar reference frame by frame -
// converged flag, iteration count and word - on every instruction-set
// build the host runs, at 30 seeded PEG shapes: n from 65 to 4095 (never
// a multiple of 64), regular and 2-3-degree irregular profiles, rates 0.3
// to 0.85, batch sizes 1 to 64 (every lane width, pad lanes included) and
// caps of 1 to 20 iterations (the reconcile stage caps at 20). One more
// shape has degree-1 checks, whose min2 stays unset: the corner the
// per-check normalization must clamp before it scales, which no table
// code reaches.
TEST(LaneKernel, MatchesScalarReferenceAtRandomShapes) {
  struct Shape {
    std::size_t n;
    std::size_t m;
    DegreeProfile profile;
  };
  Xoshiro256 rng(2024);
  std::vector<Shape> shapes;
  for (int k = 0; k < 30; ++k) {
    std::size_t n = 0;
    while (n % 64 == 0) {
      // Log-uniform over [64, 4096]: most shapes small, a few near 4096.
      n = static_cast<std::size_t>(64.0 * std::exp2(6.0 * rng.next_double()));
      n = std::min<std::size_t>(n, 4095);
    }
    const double rate = 0.3 + 0.55 * rng.next_double();
    const auto m = static_cast<std::size_t>(static_cast<double>(n) *
                                            (1.0 - rate));
    const double low = 0.2 + 0.6 * rng.next_double();
    shapes.push_back(Shape{
        n, m,
        k % 3 == 0 ? DegreeProfile::regular(3)
        : k % 3 == 1 ? DegreeProfile{{{2, low}, {3, 1.0 - low}}}
                     : DegreeProfile::regular(2)});
  }
  shapes.push_back(Shape{200, 180, DegreeProfile{{{1, 0.6}, {2, 0.4}}}});

  std::size_t compared = 0;
  std::size_t converged = 0;
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const Shape& shape = shapes[k];
    const LdpcCode code = LdpcCode::peg(shape.n, shape.m, shape.profile, k);
    bool has_degree_one = false;
    for (std::size_t c = 0; c < code.m(); ++c) {
      has_degree_one |= code.check_vars(c).size() == 1;
    }
    if (k + 1 == shapes.size()) {
      ASSERT_TRUE(has_degree_one) << "the corner shape has no degree-1 check";
    }
    const std::size_t batch = 1 + rng.uniform(64);
    DecoderConfig config;
    config.max_iterations = 1 + static_cast<unsigned>(rng.uniform(20));
    std::vector<BitVec> syndromes;
    std::vector<std::vector<std::int8_t>> priors;
    std::vector<QuantDecodeJob> jobs(batch);
    std::vector<DecodeResult> expected;
    for (std::size_t j = 0; j < batch; ++j) {
      const BitVec x = rng.random_bits(code.n());
      syndromes.push_back(code.syndrome(x));
      const double q = 0.005 + 0.095 * rng.next_double();
      priors.push_back(random_prior(code, x, q, j % 3 == 2, rng));
    }
    for (std::size_t j = 0; j < batch; ++j) {
      jobs[j] = QuantDecodeJob{&syndromes[j], &priors[j]};
      expected.push_back(scalar_reference_decode(
          code, syndromes[j], priors[j], config.max_iterations));
      converged += expected.back().converged ? 1 : 0;
    }
    for (const detail::MinSumIsa isa :
         {detail::MinSumIsa::kPortable, detail::MinSumIsa::kAvx2}) {
      if (!detail::min_sum_isa_available(isa)) continue;
      std::vector<DecodeResult> results;
      detail::decode_syndrome_batch_on(isa, code, jobs, config, results);
      ASSERT_EQ(results.size(), batch);
      for (std::size_t j = 0; j < batch; ++j) {
        SCOPED_TRACE(isa_name(isa) + " shape " + std::to_string(k) + " (n " +
                     std::to_string(code.n()) + ", m " +
                     std::to_string(code.m()) + ", batch " +
                     std::to_string(batch) + ") frame " + std::to_string(j));
        EXPECT_EQ(results[j].converged, expected[j].converged);
        EXPECT_EQ(results[j].iterations, expected[j].iterations);
        EXPECT_EQ(results[j].word, expected[j].word);
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 500u);
  // The shapes must exercise both outcomes, not only easy frames.
  EXPECT_GT(converged, 0u);
  EXPECT_LT(converged, compared);
}

// --- key-level equivalence over a (seed, QBER) grid ---------------------

// Sequential single-frame reference - a test oracle, not a production
// path: Alice's sender and Bob's own decoder for one frame, blind reveals
// one round at a time, each attempt capped the way the production loop
// caps it.
ReconcileOutcome sequential_reference_frame(
    const BitVec& alice_payload, const BitVec& bob_payload, double qber,
    const FramePlan& plan, std::uint64_t frame_seed,
    const LdpcReconcilerConfig& config, Xoshiro256& alice_private_rng) {
  const LdpcCode& code = code_by_id(plan.code_id);
  const RateAdaptation adaptation = derive_adaptation(
      code.n(), plan.n_punctured, plan.n_shortened, frame_seed);
  const LdpcFrameSender alice(plan, adaptation, alice_payload,
                              alice_private_rng);
  const float channel = bsc_llr(qber);
  std::vector<float> llr(code.n(), 0.0f);  // punctured: erasures
  for (std::size_t i = 0; i < adaptation.payload.size(); ++i) {
    llr[adaptation.payload[i]] = bob_payload.get(i) ? -channel : channel;
  }
  for (const auto s : adaptation.shortened) llr[s] = kKnownLlr;
  DecoderConfig decoder = config.decoder;
  decoder.max_iterations =
      std::min(decoder.max_iterations, kBlindAttemptIterations);

  ReconcileOutcome outcome;
  outcome.rounds = 1;  // syndrome message
  outcome.leaked_bits = code.m() - plan.n_punctured;
  DecodeResult attempt =
      decode_syndrome_quant(code, alice.syndrome(), llr, decoder);
  outcome.decoder_iterations = attempt.iterations;
  unsigned round = 0;
  while (!attempt.converged && round < config.max_blind_rounds) {
    ++round;
    const BlindReveal reveal =
        alice.reveal_chunk(round, config.max_blind_rounds);
    if (reveal.positions.empty()) break;
    for (std::size_t i = 0; i < reveal.positions.size(); ++i) {
      llr[reveal.positions[i]] = reveal.values.get(i) ? -kKnownLlr : kKnownLlr;
    }
    outcome.leaked_bits += reveal.positions.size();
    outcome.rounds += 1;
    attempt = decode_syndrome_quant(code, alice.syndrome(), llr, decoder);
    outcome.decoder_iterations += attempt.iterations;
  }
  outcome.blind_rounds = round;
  outcome.success = attempt.converged;
  if (outcome.success) {
    outcome.corrected = attempt.word.gather(adaptation.payload);
  }
  return outcome;
}

// ldpc_reconcile_key_batch must reproduce the sequential single-frame
// reference exactly: same corrected payloads, same leak, same rounds, for
// every frame - including the shared private-RNG stream that fills the
// punctured positions in frame order.
class BatchKeyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(BatchKeyEquivalence, MatchesSequentialSingleFrameProtocol) {
  const auto [seed, qber] = GetParam();
  Xoshiro256 rng(seed);

  LdpcReconcilerConfig config;
  const FramePlan plan =
      plan_frame_batched(4 * 4096, qber, config.f_target,
                         config.adapt_fraction, /*target_frames=*/4);
  ASSERT_GT(plan.payload_bits, 0u);
  const std::size_t frames = 4;
  const BitVec alice = rng.random_bits(frames * plan.payload_bits);
  const BitVec bob = corrupt(alice, qber, rng);
  std::vector<std::uint64_t> frame_seeds;
  for (std::size_t f = 0; f < frames; ++f) {
    frame_seeds.push_back((seed << 20) ^ (f * 0x9e3779b97f4a7c15ULL));
  }

  // Batched arm.
  Xoshiro256 batch_private(seed * 7 + 1);
  BitVec alice_out;
  BitVec bob_out;
  std::vector<ReconcileOutcome> per_frame;
  const BatchReconcileStats stats = ldpc_reconcile_key_batch(
      alice, bob, qber, plan, frame_seeds, config, batch_private,
      /*arena=*/nullptr, alice_out, bob_out, &per_frame);
  ASSERT_EQ(per_frame.size(), frames);

  // Sequential reference: same plan, same seeds, same private RNG stream.
  Xoshiro256 seq_private(seed * 7 + 1);
  BitVec expected_out;
  std::uint64_t expected_leak = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    BitVec alice_slice(plan.payload_bits);
    BitVec bob_slice(plan.payload_bits);
    for (std::size_t i = 0; i < plan.payload_bits; ++i) {
      alice_slice.set(i, alice.get(f * plan.payload_bits + i));
      bob_slice.set(i, bob.get(f * plan.payload_bits + i));
    }
    const ReconcileOutcome single = sequential_reference_frame(
        alice_slice, bob_slice, qber, plan, frame_seeds[f], config,
        seq_private);

    EXPECT_EQ(per_frame[f].success, single.success) << "frame " << f;
    EXPECT_EQ(per_frame[f].leaked_bits, single.leaked_bits) << "frame " << f;
    EXPECT_EQ(per_frame[f].rounds, single.rounds) << "frame " << f;
    EXPECT_EQ(per_frame[f].decoder_iterations, single.decoder_iterations)
        << "frame " << f;
    EXPECT_EQ(per_frame[f].blind_rounds, single.blind_rounds) << "frame " << f;
    if (per_frame[f].success && single.success) {
      EXPECT_EQ(per_frame[f].corrected, single.corrected) << "frame " << f;
      EXPECT_EQ(single.corrected, alice_slice) << "frame " << f;
      expected_out.append(single.corrected);
    }
    expected_leak += single.leaked_bits;
  }
  EXPECT_EQ(alice_out, expected_out);
  EXPECT_EQ(bob_out, expected_out);
  EXPECT_EQ(stats.leaked_bits, expected_leak);
  EXPECT_EQ(stats.frames, frames);
}

INSTANTIATE_TEST_SUITE_P(
    SeedQberGrid, BatchKeyEquivalence,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Values(0.005, 0.02, 0.04)));

// --- blind reconciliation beats fixed-rate on a quiet channel -----------

// On a quiet channel (QBER <= 1%) the blind plan punctures aggressively
// and reveals nothing: total disclosure must be strictly below the
// fixed-rate baseline of the same mother code, which discloses the full
// syndrome (m bits) per frame.
TEST(BatchReconcile, QuietChannelBlindLeaksLessThanFixedRate) {
  const double qber = 0.008;
  Xoshiro256 rng(77);
  LdpcReconcilerConfig config;
  const FramePlan plan = plan_frame_batched(4 * 4096, qber, config.f_target,
                                            config.adapt_fraction, 4);
  ASSERT_GT(plan.n_punctured, 0u) << "quiet channel should puncture";
  const LdpcCode& code = code_by_id(plan.code_id);

  const std::size_t frames = 4;
  const BitVec alice = rng.random_bits(frames * plan.payload_bits);
  const BitVec bob = corrupt(alice, qber, rng);
  std::vector<std::uint64_t> frame_seeds{11, 22, 33, 44};

  Xoshiro256 alice_private(78);
  BitVec alice_out;
  BitVec bob_out;
  const BatchReconcileStats blind = ldpc_reconcile_key_batch(
      alice, bob, qber, plan, frame_seeds, config, alice_private,
      /*arena=*/nullptr, alice_out, bob_out);
  ASSERT_EQ(blind.converged.popcount(), frames)
      << "quiet channel must converge";

  // Fixed-rate on the same mother code: no puncturing, no shortening, the
  // whole n-bit frame is payload and the whole m-bit syndrome is leaked.
  FramePlan fixed = plan;
  fixed.n_punctured = 0;
  fixed.n_shortened = 0;
  fixed.payload_bits = code.n();
  Xoshiro256 rng2(79);
  const BitVec alice_fixed = rng2.random_bits(frames * fixed.payload_bits);
  const BitVec bob_fixed = corrupt(alice_fixed, qber, rng2);
  Xoshiro256 alice_private2(80);
  BitVec afo;
  BitVec bfo;
  const BatchReconcileStats fixed_stats = ldpc_reconcile_key_batch(
      alice_fixed, bob_fixed, qber, fixed, frame_seeds, config,
      alice_private2, /*arena=*/nullptr, afo, bfo);
  ASSERT_EQ(fixed_stats.converged.popcount(), frames);
  EXPECT_EQ(fixed_stats.leaked_bits, frames * code.m());

  // Per-frame disclosure ordering, and strictly so.
  EXPECT_LT(blind.leaked_bits / frames, code.m());
  EXPECT_LT(blind.leaked_bits, fixed_stats.leaked_bits);
}

// --- batched planner shape ----------------------------------------------

TEST(RateAdaptBatched, CutsLargeKeysIntoTargetLanes) {
  const FramePlan plan = plan_frame_batched(16 * 4096, 0.02, 1.45);
  const LdpcCode& code = code_by_id(plan.code_id);
  EXPECT_GE(code.n(), 4096u);
  ASSERT_GT(plan.payload_bits, 0u);
  // Default target is 8 lanes: the chosen payload must cut the key into
  // at least that many frames.
  EXPECT_GE((16 * 4096) / plan.payload_bits, 8u);
  EXPECT_GE(plan.predicted_efficiency, 1.0);
}

TEST(RateAdaptBatched, SmallKeysFallBackToFittingPlans) {
  const FramePlan plan = plan_frame_batched(1500, 0.02, 1.45);
  EXPECT_LE(plan.payload_bits, 1500u);
  EXPECT_GT(plan.payload_bits, 0u);
}

TEST(RateAdaptBatched, TinyKeysThrow) {
  EXPECT_THROW(plan_frame_batched(100, 0.02, 1.45), Error);
}

}  // namespace
}  // namespace qkdpp::reconcile
