#include "reconcile/batch_decoder.hpp"

#include <algorithm>
#include <cstring>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "reconcile/min_sum_isa.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QKDPP_X86_AVX2 1
#endif

namespace qkdpp::reconcile {

std::int8_t quantize_llr(float llr) noexcept {
  float scaled = llr * static_cast<float>(kLlrQuantScale);
  scaled = scaled < -127.0f ? -127.0f : (scaled > 127.0f ? 127.0f : scaled);
  const float rounded = scaled >= 0.0f ? scaled + 0.5f : scaled - 0.5f;
  return static_cast<std::int8_t>(static_cast<int>(rounded));
}

namespace {

/// Normalization alpha = 26/32 = 0.8125, the nearest 5-bit fixed point to
/// the textbook 0.8. One multiply + shift per check and magnitude (min1,
/// min2).
constexpr int kAlphaNumerator = 26;
constexpr int kAlphaShift = 5;

/// Fallback scratch when no arena is supplied: sized by the largest batch
/// decoded on this thread, reused across calls.
struct BatchScratchVectors {
  std::vector<std::int16_t> posterior;
  std::vector<std::int8_t> r;
  std::vector<std::int16_t> sign;
  std::vector<std::uint16_t> vars;
};

BatchScratchVectors& tls_batch_scratch() {
  thread_local BatchScratchVectors scratch;
  return scratch;
}

struct BatchBuffers {
  std::int16_t* posterior = nullptr;  // n * L, lane-major
  std::int8_t* r = nullptr;           // edges * L, lane-major check -> var
  std::int16_t* sign = nullptr;       // m * L, lane-major syndrome bits
  std::uint16_t* vars = nullptr;      // edges, compressed check-major H
};

BatchBuffers acquire_batch_buffers(const DecoderConfig& config, std::size_t n,
                                   std::size_t m, std::size_t edges,
                                   std::size_t lanes) {
  BatchBuffers buf;
  if (config.arena != nullptr) {
    BlockArena& arena = *config.arena;
    buf.posterior = reinterpret_cast<std::int16_t*>(
        arena.bytes(n * lanes * sizeof(std::int16_t)));
    buf.r = reinterpret_cast<std::int8_t*>(arena.bytes(edges * lanes));
    buf.sign = reinterpret_cast<std::int16_t*>(
        arena.bytes(m * lanes * sizeof(std::int16_t)));
    buf.vars = reinterpret_cast<std::uint16_t*>(
        arena.bytes(edges * sizeof(std::uint16_t)));
    return buf;
  }
  BatchScratchVectors& scratch = tls_batch_scratch();
  scratch.posterior.resize(n * lanes);
  scratch.r.resize(edges * lanes);
  scratch.sign.resize(m * lanes);
  scratch.vars.resize(edges);
  buf.posterior = scratch.posterior.data();
  buf.r = scratch.r.data();
  buf.sign = scratch.sign.data();
  buf.vars = scratch.vars.data();
  return buf;
}

/// Frame `lane`'s hard decision: the signs of its posteriors.
void hard_decision(const std::int16_t* posterior, std::size_t n,
                   std::size_t lanes, std::size_t lane, BitVec& out) {
  out = BitVec(n);
  std::span<std::uint64_t> words = out.mutable_words();
  for (std::size_t v = 0; v < n; ++v) {
    words[v / 64] |= std::uint64_t{posterior[v * lanes + lane] < 0}
                     << (v % 64);
  }
}

// A V-lane slice of a posterior row (int16) or of a message row (int8) as
// one GCC/Clang vector-extension value. gcc ignores a vector_size that
// depends on a template parameter, so each width spells its types out.
template <int V>
struct LaneVectors;
template <>
struct LaneVectors<4> {
  typedef std::int16_t Wide __attribute__((vector_size(8)));
  typedef std::int8_t Narrow __attribute__((vector_size(4)));
};
template <>
struct LaneVectors<8> {
  typedef std::int16_t Wide __attribute__((vector_size(16)));
  typedef std::int8_t Narrow __attribute__((vector_size(8)));
};
template <>
struct LaneVectors<16> {
  typedef std::int16_t Wide __attribute__((vector_size(32)));
  typedef std::int8_t Narrow __attribute__((vector_size(16)));
};

/// Lanes per vector: 8 int16 lanes fill the baseline 16-byte registers
/// (SSE2, NEON), 16 fill AVX2's 32-byte ones. A wider vector would not
/// be one register, and gcc lowers its compares lane by lane.
constexpr int kPortableLanes = 8;

/// The kernel body, shared by every instruction-set instantiation: it is
/// force-inlined into one wrapper per target, so the same source compiles
/// once for the baseline ISA and once for AVX2. A batch of L lanes runs
/// as L / V groups of V lanes, each group one vector per row; a check
/// walks its edges once per group. Lane vectors never cross a function
/// boundary (a vector parameter or return value would tie the calling
/// convention to the target).
template <int L, int V>
[[gnu::always_inline]] inline void decode_lanes(
    const LdpcCode& code, std::span<const QuantDecodeJob> jobs,
    const DecoderConfig& config, const BatchBuffers& buf,
    std::vector<DecodeResult>& results) {
  static_assert(L % V == 0);
  using Wide = typename LaneVectors<V>::Wide;
  using Narrow = typename LaneVectors<V>::Narrow;
  const std::size_t n = code.n();
  const std::size_t m = code.m();
  const std::size_t batch = jobs.size();

  // Priors: lane l = frame l's int8 prior. Syndromes become sign rows:
  // bit 15 of lane l holds frame l's syndrome bit, the seed of the lane's
  // sign parity. Pad lanes stay all-zero, so their messages, posteriors
  // and parities are identically zero and never perturb real lanes.
  std::memset(buf.posterior, 0, n * L * sizeof(std::int16_t));
  std::memset(buf.sign, 0, m * L * sizeof(std::int16_t));
  for (std::size_t f = 0; f < batch; ++f) {
    const std::int8_t* prior = jobs[f].prior->data();
    for (std::size_t v = 0; v < n; ++v) buf.posterior[v * L + f] = prior[v];
    const std::span<const std::uint64_t> syndrome = jobs[f].syndrome->words();
    for (std::size_t c = 0; c < m; ++c) {
      const int bit = static_cast<int>((syndrome[c >> 6] >> (c & 63)) & 1u);
      buf.sign[c * L + f] = static_cast<std::int16_t>(bit * -0x8000);
    }
  }
  std::memset(buf.r, 0, code.edges() * L);

  results.assign(batch, DecodeResult{});
  std::uint64_t unresolved =
      batch == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << batch) - 1;

  const Wide rail = Wide{} + 127;  // the int8 message rails, +-127
  const Wide unset = Wide{} + 0x7FFF;
  Wide qbuf[64];  // clamped q of one check's edges, staged for pass 2
  Wide abuf[64];  // |q|

  for (unsigned iter = 1; iter <= config.max_iterations && unresolved != 0;
       ++iter) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t deg = code.check_vars(c).size();
      const std::size_t base = code.check_edge_begin(c);
      const std::uint16_t* vars = buf.vars + base;
      for (int g = 0; g < L; g += V) {
        std::int16_t* post_g = buf.posterior + g;
        std::int8_t* r_g = buf.r + base * L + g;
        // Sign parity lives in bit 15 (the XOR of the operands' sign
        // bits); the bits below it are never read.
        Wide sgn;
        std::memcpy(&sgn, buf.sign + c * L + g, sizeof sgn);
        Wide min1 = unset;
        Wide min2 = unset;
        // Pass 1: reconstruct q = posterior - r (clamped to the int8
        // rails), accumulate the sign parity and the two smallest
        // magnitudes.
        for (std::size_t i = 0; i < deg; ++i) {
          Wide post;
          Narrow msg;
          std::memcpy(&post, post_g + std::size_t{vars[i]} * L, sizeof post);
          std::memcpy(&msg, r_g + i * L, sizeof msg);
          Wide t = post - __builtin_convertvector(msg, Wide);
          t = t < -rail ? -rail : t;
          t = t > rail ? rail : t;
          qbuf[i] = t;
          sgn ^= t;
          const Wide neg = -t;
          const Wide mag = t < neg ? neg : t;
          abuf[i] = mag;
          const Wide hi = mag < min1 ? min1 : mag;
          min1 = mag < min1 ? mag : min1;
          min2 = hi < min2 ? hi : min2;
        }
        // Pass 2: emit messages (self-excluded minimum, normalized, signed
        // by total parity ^ own sign) and refresh posteriors in place. The
        // self-excluded minimum is min1 or min2, so both are normalized
        // once per check, each clamped to the rail first: a degree-1 check
        // leaves min2 at its unset 0x7FFF, whose product would overflow
        // int16. A magnitude equal to min1 takes min2 whether or not it
        // set min1 - on ties min1 == min2, so the select is exact without
        // an argmin.
        const Wide scaled1 =
            ((min1 > rail ? rail : min1) * kAlphaNumerator) >> kAlphaShift;
        const Wide scaled2 =
            ((min2 > rail ? rail : min2) * kAlphaNumerator) >> kAlphaShift;
        for (std::size_t i = 0; i < deg; ++i) {
          const Wide scaled = abuf[i] == min1 ? scaled2 : scaled1;
          // All-ones where the message is negative (parity ^ own sign),
          // else zero; (x ^ mask) - mask negates under the mask.
          const Wide mask = (sgn ^ qbuf[i]) >> 15;
          const Wide updated = (scaled ^ mask) - mask;
          const Narrow msg = __builtin_convertvector(updated, Narrow);
          const Wide post = qbuf[i] + updated;
          std::memcpy(r_g + i * L, &msg, sizeof msg);
          std::memcpy(post_g + std::size_t{vars[i]} * L, &post, sizeof post);
        }
      }
    }
    // Convergence, every frame at once: fold each check's posterior signs
    // into its syndrome row. Bit 15 of a lane stays set in `unmet` iff
    // that frame's hard decision still violates some check.
    Wide unmet[L / V] = {};
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t deg = code.check_vars(c).size();
      const std::uint16_t* vars = buf.vars + code.check_edge_begin(c);
      for (int g = 0; g < L; g += V) {
        Wide acc;
        std::memcpy(&acc, buf.sign + c * L + g, sizeof acc);
        for (std::size_t i = 0; i < deg; ++i) {
          Wide post;
          std::memcpy(&post, buf.posterior + std::size_t{vars[i]} * L + g,
                      sizeof post);
          acc ^= post;
        }
        unmet[g / V] |= acc;
      }
    }
    std::int16_t unmet_lanes[L];
    std::memcpy(unmet_lanes, unmet, sizeof unmet_lanes);
    std::uint64_t mismatch = 0;
    for (std::size_t f = 0; f < batch; ++f) {
      mismatch |= std::uint64_t{unmet_lanes[f] < 0} << f;
    }
    const std::uint64_t newly = unresolved & ~mismatch;
    if (newly != 0) {
      // Snapshot each newly converged frame the iteration its syndrome
      // matched; later iterations of the surviving lanes cannot disturb it.
      for (std::size_t f = 0; f < batch; ++f) {
        if ((newly >> f) & 1u) {
          results[f].converged = true;
          results[f].iterations = iter;
          hard_decision(buf.posterior, n, L, f, results[f].word);
        }
      }
      unresolved &= mismatch;
    }
  }
  // Frames that never converged ran the full iteration budget; report the
  // final hard decision.
  for (std::size_t f = 0; f < batch; ++f) {
    if ((unresolved >> f) & 1u) {
      results[f].iterations = config.max_iterations;
      hard_decision(buf.posterior, n, L, f, results[f].word);
    }
  }
}

/// Lane widths run 4, 8, 16, 32, 64: the smallest that holds the batch.
/// Returns its index, so the batch decodes on 4 << index lanes.
std::size_t lane_width_index(std::size_t batch) noexcept {
  std::size_t index = 0;
  while ((std::size_t{4} << index) < batch) ++index;
  return index;
}

using KernelFn = void (*)(const LdpcCode&, std::span<const QuantDecodeJob>,
                          const DecoderConfig&, const BatchBuffers&,
                          std::vector<DecodeResult>&);

template <int L>
void decode_lanes_portable(const LdpcCode& code,
                           std::span<const QuantDecodeJob> jobs,
                           const DecoderConfig& config,
                           const BatchBuffers& buf,
                           std::vector<DecodeResult>& results) {
  decode_lanes<L, std::min(L, kPortableLanes)>(code, jobs, config, buf,
                                               results);
}

/// One instantiation per lane width, indexed by lane_width_index.
constexpr KernelFn kPortableKernels[] = {
    decode_lanes_portable<4>, decode_lanes_portable<8>,
    decode_lanes_portable<16>, decode_lanes_portable<32>,
    decode_lanes_portable<64>};

#ifdef QKDPP_X86_AVX2

constexpr int kAvx2Lanes = 16;

template <int L>
__attribute__((target("avx2"))) void decode_lanes_avx2(
    const LdpcCode& code, std::span<const QuantDecodeJob> jobs,
    const DecoderConfig& config, const BatchBuffers& buf,
    std::vector<DecodeResult>& results) {
  decode_lanes<L, std::min(L, kAvx2Lanes)>(code, jobs, config, buf, results);
}

constexpr KernelFn kAvx2Kernels[] = {
    decode_lanes_avx2<4>, decode_lanes_avx2<8>, decode_lanes_avx2<16>,
    decode_lanes_avx2<32>, decode_lanes_avx2<64>};

const bool g_has_avx2 = __builtin_cpu_supports("avx2") != 0;

#endif  // QKDPP_X86_AVX2

/// The widest instantiation this CPU executes, picked once at startup.
const detail::MinSumIsa g_best_isa =
    detail::min_sum_isa_available(detail::MinSumIsa::kAvx2)
        ? detail::MinSumIsa::kAvx2
        : detail::MinSumIsa::kPortable;

}  // namespace

namespace detail {

bool min_sum_isa_available(MinSumIsa isa) noexcept {
#ifdef QKDPP_X86_AVX2
  if (isa == MinSumIsa::kAvx2) return g_has_avx2;
#endif
  return isa == MinSumIsa::kPortable;
}

void decode_syndrome_batch_on(MinSumIsa isa, const LdpcCode& code,
                              std::span<const QuantDecodeJob> jobs,
                              const DecoderConfig& config,
                              std::vector<DecodeResult>& results) {
  QKDPP_REQUIRE(min_sum_isa_available(isa),
                "min-sum instantiation not available on this CPU");
  QKDPP_REQUIRE(!jobs.empty() && jobs.size() <= kMaxBatchFrames,
                "batch size outside [1, 64]");
  QKDPP_REQUIRE(code.n() <= 65536,
                "batch decoder stores H with 16-bit indices");
  QKDPP_REQUIRE(config.max_iterations >= 1, "need at least one iteration");
  for (const QuantDecodeJob& job : jobs) {
    QKDPP_REQUIRE(job.syndrome != nullptr && job.prior != nullptr,
                  "batch job missing syndrome or prior");
    QKDPP_REQUIRE(job.prior->size() == code.n(), "prior length mismatch");
    QKDPP_REQUIRE(job.syndrome->size() == code.m(), "syndrome length mismatch");
  }

  const std::size_t width = lane_width_index(jobs.size());
  const std::size_t lanes = std::size_t{4} << width;
  const BatchBuffers buf =
      acquire_batch_buffers(config, code.n(), code.m(), code.edges(), lanes);

  // Compressed adjacency, shared by every lane: check-major var indices
  // narrowed to 16 bits (half the index bandwidth of the code's 32-bit
  // CSR).
  std::size_t edge = 0;
  for (std::size_t c = 0; c < code.m(); ++c) {
    QKDPP_REQUIRE(code.check_vars(c).size() <= 64,
                  "check degree exceeds kernel buffer");
    for (const std::uint32_t v : code.check_vars(c)) {
      buf.vars[edge++] = static_cast<std::uint16_t>(v);
    }
  }

#ifdef QKDPP_X86_AVX2
  if (isa == MinSumIsa::kAvx2) {
    kAvx2Kernels[width](code, jobs, config, buf, results);
    return;
  }
#endif
  kPortableKernels[width](code, jobs, config, buf, results);
}

}  // namespace detail

void decode_syndrome_batch(const LdpcCode& code,
                           std::span<const QuantDecodeJob> jobs,
                           const DecoderConfig& config,
                           std::vector<DecodeResult>& results) {
  detail::decode_syndrome_batch_on(g_best_isa, code, jobs, config, results);
}

DecodeResult decode_syndrome_quant(const LdpcCode& code, const BitVec& syndrome,
                                   const std::vector<float>& llr,
                                   const DecoderConfig& config) {
  std::vector<std::int8_t> prior(llr.size());
  std::transform(llr.begin(), llr.end(), prior.begin(), quantize_llr);
  const QuantDecodeJob job{&syndrome, &prior};
  std::vector<DecodeResult> results;
  decode_syndrome_batch(code, {&job, 1}, config, results);
  return std::move(results.front());
}

}  // namespace qkdpp::reconcile
