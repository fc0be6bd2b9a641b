#include "reconcile/rate_adapt.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/entropy.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::reconcile {

RateAdaptation derive_adaptation(std::size_t n, std::uint32_t n_punctured,
                                 std::uint32_t n_shortened,
                                 std::uint64_t seed) {
  QKDPP_REQUIRE(std::size_t{n_punctured} + n_shortened <= n,
                "adaptation exceeds frame");
  Xoshiro256 rng(seed ^ 0xada97ca7104eULL);
  // A backward Fisher-Yates shuffle: its prefix is final only once the
  // whole permutation is.
  const auto perm = rng.permutation(n);

  // Mark the two classes in n-bit bitmaps, then read all three lists back
  // in ascending order by word scans; the payload is the complement, with
  // the tail word masked to [0, n).
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> punctured(words, 0);
  std::vector<std::uint64_t> shortened(words, 0);
  const std::size_t special = std::size_t{n_punctured} + n_shortened;
  const auto mark = [&perm](std::size_t begin, std::size_t end,
                            std::vector<std::uint64_t>& map) {
    for (std::size_t i = begin; i < end; ++i) {
      map[perm[i] >> 6] |= std::uint64_t{1} << (perm[i] & 63);
    }
  };
  mark(0, n_punctured, punctured);
  mark(n_punctured, special, shortened);
  const auto emit = [](std::uint64_t bits, std::size_t w,
                       std::vector<std::uint32_t>& out) {
    for (; bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<std::uint32_t>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
    }
  };
  RateAdaptation adaptation;
  adaptation.punctured.reserve(n_punctured);
  adaptation.shortened.reserve(n_shortened);
  adaptation.payload.reserve(n - special);
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t in_frame =
        w + 1 < words || n % 64 == 0 ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << (n % 64)) - 1;
    emit(punctured[w], w, adaptation.punctured);
    emit(shortened[w], w, adaptation.shortened);
    emit(in_frame & ~(punctured[w] | shortened[w]), w, adaptation.payload);
  }
  return adaptation;
}

namespace {

FramePlan plan_with_code(std::uint32_t code_id, double qber, double f_target,
                         double adapt_fraction);

}  // namespace

FramePlan plan_frame_fitting(std::size_t key_bits, double qber,
                             double f_target, double adapt_fraction) {
  QKDPP_REQUIRE(qber > 0 && qber < 0.5, "qber outside (0, 0.5)");
  QKDPP_REQUIRE(f_target >= 1.0, "efficiency target below Shannon limit");
  QKDPP_REQUIRE(adapt_fraction >= 0 && adapt_fraction < 0.5,
                "adaptation fraction outside [0, 0.5)");
  const CodeSpec* best = nullptr;
  const CodeSpec* fallback = nullptr;  // rate too high but payload fits
  for (const auto& spec : code_table()) {
    const auto budget = static_cast<std::size_t>(adapt_fraction * spec.n);
    const std::size_t payload = spec.n - budget;
    if (payload > key_bits) continue;
    const double max_rate =
        1.0 - f_target * finite_length_penalty(spec.n) * binary_entropy(qber);
    // Among codes that respect the efficiency target, prefer the largest
    // frame (ties: higher rate leaks less).
    if (spec.rate <= max_rate &&
        (best == nullptr || spec.n > best->n ||
         (spec.n == best->n && spec.rate > best->rate))) {
      best = &spec;
    }
    if (fallback == nullptr || spec.n > fallback->n ||
        (spec.n == fallback->n && spec.rate < fallback->rate)) {
      fallback = &spec;
    }
  }
  if (best == nullptr) best = fallback;
  if (best == nullptr) {
    throw_error(ErrorCode::kConfig,
                "key of " + std::to_string(key_bits) +
                    " bits is shorter than every frame payload");
  }
  return plan_with_code(best->id, qber, f_target, adapt_fraction);
}

FramePlan plan_frame_batched(std::size_t key_bits, double qber,
                             double f_target, double adapt_fraction,
                             std::size_t target_frames) {
  QKDPP_REQUIRE(qber > 0 && qber < 0.5, "qber outside (0, 0.5)");
  QKDPP_REQUIRE(f_target >= 1.0, "efficiency target below Shannon limit");
  QKDPP_REQUIRE(adapt_fraction >= 0 && adapt_fraction < 0.5,
                "adaptation fraction outside [0, 0.5)");
  QKDPP_REQUIRE(target_frames >= 1, "need at least one frame");
  constexpr std::size_t kMinBatchFrameBits = 4096;
  // Mothers above rate 0.8 sit too close to their finite-length threshold:
  // measured on the n = 4096 family, the rate-0.85 code stalls for hundreds
  // of min-sum iterations (and sometimes fails outright) at operating
  // points where rate <= 0.8 codes converge in tens.
  constexpr double kMaxBatchRate = 0.81;
  const CodeSpec* best = nullptr;
  std::size_t best_frames = 0;
  bool best_strict = false;
  double best_rate_pref = 0.0;
  for (const auto& spec : code_table()) {
    if (spec.n < kMinBatchFrameBits || spec.rate > kMaxBatchRate) continue;
    const auto budget = static_cast<std::size_t>(adapt_fraction * spec.n);
    const std::size_t payload = spec.n - budget;
    if (payload > key_bits) continue;
    const double m = static_cast<double>(spec.n) * (1.0 - spec.rate);
    const double required_leak = f_target * finite_length_penalty(spec.n) *
                                 binary_entropy(qber) *
                                 static_cast<double>(payload);
    // ideal_d = m - required < 0 means even the unpunctured syndrome
    // discloses less than the plan calls for - the decode would start
    // below its reliability target with no punctured reserve to reveal.
    if (m < required_leak) continue;
    // ideal_d <= budget plans the exact target leak ("strict"); beyond the
    // budget d clamps and the frame over-discloses m - budget bits. The
    // clamped floor only engages at very low QBER, where the absolute
    // overshoot is small.
    const bool strict = m - required_leak <= static_cast<double>(budget);
    // Convergence speed is non-monotonic in mother rate at a fixed planned
    // leak: high-rate mothers run near threshold, low-rate ones need the
    // puncture budget maxed out (a third of the frame erased). The 0.75
    // mother measures fastest across the operating range, so prefer the
    // rate closest to it; among clamped codes higher rate over-leaks less.
    const double rate_pref = strict ? -std::abs(spec.rate - 0.75) : spec.rate;
    const std::size_t frames = key_bits / payload;
    // Lane count saturates at target_frames; past that, prefer the larger
    // frame (fewer, bigger codes leak less). Short of it, more lanes win.
    const std::size_t best_lanes = std::min(best_frames, target_frames);
    const std::size_t lanes = std::min(frames, target_frames);
    bool better = false;
    if (best == nullptr || lanes != best_lanes) {
      better = best == nullptr || lanes > best_lanes;
    } else if (strict != best_strict) {
      better = strict;
    } else if (spec.n != best->n) {
      better = spec.n > best->n;
    } else {
      better = rate_pref > best_rate_pref;
    }
    if (better) {
      best = &spec;
      best_frames = frames;
      best_strict = strict;
      best_rate_pref = rate_pref;
    }
  }
  if (best == nullptr) {
    return plan_frame_fitting(key_bits, qber, f_target, adapt_fraction);
  }
  // Plan the disclosure at the penalty-adjusted efficiency. Short frames
  // cannot operate at the nominal f_target: planning there just makes the
  // first decode fail and the blind loop burn iterations re-discovering
  // the finite-length gap one reveal chunk at a time (the leak ends up at
  // the penalized point either way - paying it up front converges in one
  // decode instead of several).
  return plan_with_code(best->id, qber,
                        f_target * finite_length_penalty(best->n),
                        adapt_fraction);
}

namespace {

FramePlan plan_with_code(std::uint32_t code_id, double qber, double f_target,
                         double adapt_fraction) {
  const LdpcCode& code = code_by_id(code_id);
  const std::size_t n = code.n();
  const std::size_t m = code.m();
  const auto budget = static_cast<std::uint32_t>(adapt_fraction * n);

  // Solve (m - d) = f_target * h2(q) * (n - budget) for d, then clamp into
  // the budget; the remainder shortens.
  const double h = binary_entropy(qber);
  const double ideal_d =
      static_cast<double>(m) -
      f_target * h * static_cast<double>(n - budget);
  const auto d = static_cast<std::uint32_t>(
      std::clamp(ideal_d, 0.0, static_cast<double>(budget)));
  const std::uint32_t s = budget - d;

  FramePlan plan;
  plan.code_id = code_id;
  plan.n_punctured = d;
  plan.n_shortened = s;
  plan.payload_bits = n - d - s;
  plan.predicted_efficiency =
      static_cast<double>(m - d) /
      (static_cast<double>(plan.payload_bits) * h);
  return plan;
}

}  // namespace

}  // namespace qkdpp::reconcile
