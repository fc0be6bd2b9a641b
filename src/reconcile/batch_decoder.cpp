#include "reconcile/batch_decoder.hpp"

#include <algorithm>
#include <cstring>

#include "common/arena.hpp"
#include "common/bit_transpose.hpp"
#include "common/error.hpp"

namespace qkdpp::reconcile {

std::int8_t quantize_llr(float llr) noexcept {
  float scaled = llr * static_cast<float>(kLlrQuantScale);
  scaled = scaled < -127.0f ? -127.0f : (scaled > 127.0f ? 127.0f : scaled);
  const float rounded = scaled >= 0.0f ? scaled + 0.5f : scaled - 0.5f;
  return static_cast<std::int8_t>(static_cast<int>(rounded));
}

namespace {

/// Normalization alpha = 26/32 = 0.8125, the nearest 5-bit fixed point to
/// the textbook 0.8. One multiply + shift per message.
constexpr int kAlphaNumerator = 26;
constexpr int kAlphaShift = 5;

/// Fallback scratch when no arena is supplied: sized by the largest batch
/// decoded on this thread, reused across calls.
struct BatchScratchVectors {
  std::vector<std::int16_t> posterior;
  std::vector<std::int8_t> r;
  std::vector<std::uint64_t> hard;
  std::vector<std::uint64_t> syn;
  std::vector<std::uint16_t> vars;
};

BatchScratchVectors& tls_batch_scratch() {
  thread_local BatchScratchVectors scratch;
  return scratch;
}

struct BatchBuffers {
  std::int16_t* posterior = nullptr;  // n * L, lane-major
  std::int8_t* r = nullptr;           // edges * L, lane-major check -> var
  std::uint64_t* hard = nullptr;      // n lane-packed hard decisions
  std::uint64_t* syn = nullptr;       // m lane-packed syndromes
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
    buf.hard = arena.words(n);
    buf.syn = arena.words(m);
    buf.vars = reinterpret_cast<std::uint16_t*>(
        arena.bytes(edges * sizeof(std::uint16_t)));
    return buf;
  }
  BatchScratchVectors& scratch = tls_batch_scratch();
  scratch.posterior.resize(n * lanes);
  scratch.r.resize(edges * lanes);
  scratch.hard.resize(n);
  scratch.syn.resize(m);
  scratch.vars.resize(edges);
  buf.posterior = scratch.posterior.data();
  buf.r = scratch.r.data();
  buf.hard = scratch.hard.data();
  buf.syn = scratch.syn.data();
  buf.vars = scratch.vars.data();
  return buf;
}

template <int L>
void decode_batch_impl(const LdpcCode& code,
                       std::span<const QuantDecodeJob> jobs,
                       const DecoderConfig& config, const BatchBuffers& buf,
                       std::vector<DecodeResult>& results) {
  const std::size_t n = code.n();
  const std::size_t m = code.m();
  const std::size_t batch = jobs.size();

  // Priors: lane l = frame l's quantized LLRs; pad lanes stay all-zero, so
  // their messages, posteriors, and syndrome folds are identically zero
  // and never perturb real lanes.
  std::memset(buf.posterior, 0, n * L * sizeof(std::int16_t));
  for (std::size_t f = 0; f < batch; ++f) {
    const std::vector<float>& llr = *jobs[f].llr;
    std::int16_t* post = buf.posterior + f;
    for (std::size_t v = 0; v < n; ++v) {
      post[v * L] = quantize_llr(llr[v]);
    }
  }
  std::memset(buf.r, 0, code.edges() * L);

  const BitVec* lanes[kMaxBatchFrames];
  for (std::size_t f = 0; f < batch; ++f) lanes[f] = jobs[f].syndrome;
  pack_lanes({lanes, batch}, m, buf.syn);

  results.assign(batch, DecodeResult{});
  std::uint64_t unresolved =
      batch == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << batch) - 1;

  // Per-check staging, all lanes wide. Everything below is pure int16
  // lane-parallel arithmetic with branchless selects so the compiler can
  // map each `for l` loop onto 16-byte integer vectors; sign parity lives
  // in bit 15 of `sgn` (XOR of the operands' sign bits) instead of a bool
  // so it stays in the same lanes as the data.
  std::int16_t qbuf[64 * L];  // clamped q for one check, all lanes
  std::int16_t abuf[64 * L];  // |q| staged for pass 2
  std::int16_t min1[L];
  std::int16_t min2[L];
  std::int16_t sgn[L];

  for (unsigned iter = 1; iter <= config.max_iterations && unresolved != 0;
       ++iter) {
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t deg = code.check_vars(c).size();
      const std::uint32_t base = code.check_edge_begin(c);
      const std::uint16_t* vars = buf.vars + base;
      const std::uint64_t syn_word = buf.syn[c];
      for (int l = 0; l < L; ++l) {
        min1[l] = std::int16_t{0x7FFF};
        min2[l] = std::int16_t{0x7FFF};
        sgn[l] = static_cast<std::int16_t>(((syn_word >> l) & 1u) << 15);
      }
      // Pass 1: reconstruct q = posterior - r (clamped to the int8 rails),
      // accumulate the per-lane sign parity and two smallest magnitudes.
      for (std::size_t i = 0; i < deg; ++i) {
        const std::int16_t* post =
            buf.posterior + std::size_t{vars[i]} * L;
        const std::int8_t* re = buf.r + (std::size_t{base} + i) * L;
        std::int16_t* qv = qbuf + i * L;
        std::int16_t* av = abuf + i * L;
        for (int l = 0; l < L; ++l) {
          std::int16_t t = static_cast<std::int16_t>(post[l] - re[l]);
          t = t < -127 ? std::int16_t{-127} : t;
          t = t > 127 ? std::int16_t{127} : t;
          qv[l] = t;
          sgn[l] = static_cast<std::int16_t>(sgn[l] ^ (t & std::int16_t(-0x8000)));
          const std::int16_t neg = static_cast<std::int16_t>(-t);
          const std::int16_t mag = t > neg ? t : neg;
          av[l] = mag;
          const std::int16_t lo = mag < min1[l] ? mag : min1[l];
          const std::int16_t hi = mag < min1[l] ? min1[l] : mag;
          min1[l] = lo;
          min2[l] = hi < min2[l] ? hi : min2[l];
        }
      }
      // Pass 2: emit messages (self-excluded minimum, normalized, signed
      // by total parity ^ own sign) and refresh posteriors in place. A
      // magnitude equal to min1 takes min2 whether or not it set min1 -
      // on ties min1 == min2, so the select is exact without an argmin.
      for (std::size_t i = 0; i < deg; ++i) {
        std::int16_t* post = buf.posterior + std::size_t{vars[i]} * L;
        std::int8_t* re = buf.r + (std::size_t{base} + i) * L;
        const std::int16_t* qv = qbuf + i * L;
        const std::int16_t* av = abuf + i * L;
        for (int l = 0; l < L; ++l) {
          std::int16_t mag = av[l] == min1[l] ? min2[l] : min1[l];
          mag = mag > 127 ? std::int16_t{127} : mag;  // deg-1 corner
          const std::int16_t scaled =
              static_cast<std::int16_t>((mag * kAlphaNumerator) >> kAlphaShift);
          // All-ones when the message is negative (parity ^ own sign), else
          // zero; (x ^ mask) - mask negates under the mask, branch-free.
          const std::int16_t mask = static_cast<std::int16_t>(
              static_cast<std::int16_t>(sgn[l] ^ qv[l]) >> 15);
          const std::int16_t updated =
              static_cast<std::int16_t>((scaled ^ mask) - mask);
          re[l] = static_cast<std::int8_t>(updated);
          post[l] = static_cast<std::int16_t>(qv[l] + updated);
        }
      }
    }
    // Lane-packed hard decisions + syndrome fold: one word per variable /
    // check carries all frames, so the convergence test costs O(n + edges)
    // for the whole batch.
    for (std::size_t v = 0; v < n; ++v) {
      const std::int16_t* post = buf.posterior + v * L;
      std::uint64_t bits = 0;
      for (int l = 0; l < L; ++l) {
        bits |= std::uint64_t{post[l] < 0} << l;
      }
      buf.hard[v] = bits;
    }
    std::uint64_t mismatch = 0;
    for (std::size_t c = 0; c < m; ++c) {
      const std::size_t deg = code.check_vars(c).size();
      const std::uint16_t* vars = buf.vars + code.check_edge_begin(c);
      std::uint64_t acc = buf.syn[c];
      for (std::size_t i = 0; i < deg; ++i) acc ^= buf.hard[vars[i]];
      mismatch |= acc;
    }
    const std::uint64_t newly = unresolved & ~mismatch;
    if (newly != 0) {
      // Snapshot each newly converged frame the iteration its syndrome
      // matched; later iterations of the surviving lanes cannot disturb it.
      for (std::size_t f = 0; f < batch; ++f) {
        if ((newly >> f) & 1u) {
          results[f].converged = true;
          results[f].iterations = iter;
          unpack_lane(buf.hard, n, static_cast<unsigned>(f), results[f].word);
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
      unpack_lane(buf.hard, n, static_cast<unsigned>(f), results[f].word);
    }
  }
}

std::size_t lanes_for(std::size_t batch) noexcept {
  for (const std::size_t lanes : {std::size_t{4}, std::size_t{8},
                                  std::size_t{16}, std::size_t{32}}) {
    if (batch <= lanes) return lanes;
  }
  return 64;
}

}  // namespace

void decode_syndrome_batch(const LdpcCode& code,
                           std::span<const QuantDecodeJob> jobs,
                           const DecoderConfig& config,
                           std::vector<DecodeResult>& results) {
  QKDPP_REQUIRE(!jobs.empty() && jobs.size() <= kMaxBatchFrames,
                "batch size outside [1, 64]");
  QKDPP_REQUIRE(code.n() <= 65536,
                "batch decoder stores H with 16-bit indices");
  QKDPP_REQUIRE(config.max_iterations >= 1, "need at least one iteration");
  for (const QuantDecodeJob& job : jobs) {
    QKDPP_REQUIRE(job.syndrome != nullptr && job.llr != nullptr,
                  "batch job missing syndrome or llr");
    QKDPP_REQUIRE(job.llr->size() == code.n(), "LLR length mismatch");
    QKDPP_REQUIRE(job.syndrome->size() == code.m(), "syndrome length mismatch");
  }

  const std::size_t lanes = lanes_for(jobs.size());
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

  switch (lanes) {
    case 4:
      decode_batch_impl<4>(code, jobs, config, buf, results);
      break;
    case 8:
      decode_batch_impl<8>(code, jobs, config, buf, results);
      break;
    case 16:
      decode_batch_impl<16>(code, jobs, config, buf, results);
      break;
    case 32:
      decode_batch_impl<32>(code, jobs, config, buf, results);
      break;
    default:
      decode_batch_impl<64>(code, jobs, config, buf, results);
      break;
  }
}

DecodeResult decode_syndrome_quant(const LdpcCode& code, const BitVec& syndrome,
                                   const std::vector<float>& llr,
                                   const DecoderConfig& config) {
  const QuantDecodeJob job{&syndrome, &llr};
  std::vector<DecodeResult> results;
  decode_syndrome_batch(code, {&job, 1}, config, results);
  return std::move(results.front());
}

}  // namespace qkdpp::reconcile
