// Batched int8-quantized LDPC syndrome decoding.
//
// The throughput decoder behind the reconcile stage: layered normalized
// min-sum over 8-bit fixed-point LLRs, decoding up to 64 frames of the
// same mother code in lockstep. State is lane-major - posterior[v] and
// message r[e] are short arrays with one element per frame - so one pass
// over the (shared, 16-bit-compressed) adjacency updates every frame at
// once, the same trick the clmul Toeplitz kernel plays across words.
//
// The kernel works on whole lane vectors: each posterior row (int16) and
// message row (int8) is one GCC/Clang vector-extension value per
// register's worth of lanes, so a check-node update costs a handful of
// packed min/max/xor ops per edge for all frames together. The one
// kernel body is compiled twice: for the baseline target (SSE2 on x86-64,
// NEON on aarch64; 8 lanes per vector) and, on x86-64, for AVX2 (16 lanes
// per vector). decode_syndrome_batch runs the AVX2 build when the CPU
// reports AVX2, chosen once at startup; no build flag is needed.
//
// Fixed-point format: LLRs carry 3 fractional bits (scale 8) and saturate
// at +-127, so the "known" magnitude kKnownLlr (64.0) pins to the rail.
// Jobs hand the kernel these int8 priors directly (quantize_llr); the
// float-LLR entry point decode_syndrome_quant quantizes once and runs the
// same kernel. Messages are int8; posteriors live in int16 and cannot
// overflow: a posterior is a clamped +-127 prior plus one +-127 message
// per layer step, bounded well inside int16. The normalization alpha is
// 26/32 = 0.8125, applied per check: a check's self-excluded magnitude is
// always its min1 or its min2, so both are clamped and scaled once and
// each message selects one of the two.
//
// Every lane's arithmetic is independent of every other lane's, so a
// frame decodes bit-identically whether it rides alone or shares a batch
// - the decode-equivalence property the reconcile_batch tests pin down,
// and what lets the blind reconciliation layer account leakage the same
// way on both paths. Convergence is checked per frame each iteration:
// each check XOR-folds its posteriors' sign bits into its syndrome bits,
// all lanes at once, and a frame leaves the `unresolved` mask (its hard
// decision snapshotted) as soon as no check is left violated.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "reconcile/ldpc_code.hpp"
#include "reconcile/ldpc_decoder.hpp"

namespace qkdpp::reconcile {

/// Fixed-point LLR scale: 3 fractional bits, saturating at +-127.
constexpr int kLlrQuantScale = 8;

/// Quantize one float LLR to the decoder's int8 format (round to nearest,
/// ties away from zero, saturate at +-127).
std::int8_t quantize_llr(float llr) noexcept;

/// Lanes per batch: one frame per bit of a lane word.
constexpr std::size_t kMaxBatchFrames = 64;

/// One frame of a lockstep batch. All jobs in a batch share the code;
/// each brings its own syndrome and its int8 prior, already in the
/// kernel's fixed-point format (quantize_llr).
struct QuantDecodeJob {
  const BitVec* syndrome = nullptr;              ///< length code.m()
  const std::vector<std::int8_t>* prior = nullptr;  ///< length code.n()
};

/// Decode up to kMaxBatchFrames frames in lockstep. `results` is resized
/// to jobs.size(); result f reports frame f's convergence, the iteration
/// it converged on (or the cap), and its hard decision (snapshotted the
/// iteration its syndrome matched; the final hard decision when it never
/// did). Scratch comes from config.arena when set, thread-local buffers
/// otherwise. Requires code.n() <= 65536 (the shared adjacency is
/// compressed to 16-bit indices) and check degrees <= 64.
void decode_syndrome_batch(const LdpcCode& code,
                           std::span<const QuantDecodeJob> jobs,
                           const DecoderConfig& config,
                           std::vector<DecodeResult>& results);

/// Decode one frame from float LLRs: quantizes them once (quantize_llr)
/// and runs a one-job batch of the same kernel, so the result is
/// bit-identical to the frame's inside any batch. The one-frame test
/// oracle; production builds int8 priors and calls decode_syndrome_batch.
DecodeResult decode_syndrome_quant(const LdpcCode& code, const BitVec& syndrome,
                                   const std::vector<float>& llr,
                                   const DecoderConfig& config);

}  // namespace qkdpp::reconcile
