// The five stage executors. Each wraps its real computation in a
// Device::execute body and reports a WorkEstimate; work_model() and run()
// price work with the same cost constants, so the mapper's matrix and the
// charged time agree. Computation is host-side and bit-exact on every
// device kind - only the charged time differs.
#include "engine/stage.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "privacy/verification.hpp"
#include "protocol/param_estimation.hpp"
#include "reconcile/reconciler.hpp"

namespace qkdpp::engine {

namespace {

using hetero::DeviceKind;
using hetero::WorkEstimate;

bool is_cpu(DeviceKind kind) noexcept {
  return kind == DeviceKind::kCpuScalar || kind == DeviceKind::kCpuParallel;
}

/// Device cost model constants (documented knobs, not magic).
constexpr double kOpsPerEdge = 12.0;       ///< BP var+check update per edge
constexpr double kBytesPerEdge = 10.0;     ///< BP message traffic per edge
constexpr double kOpsPerButterfly = 10.0;  ///< NTT butterfly incl. mulmod
constexpr double kOpsPerGfMul = 220.0;     ///< software GF(2^128) multiply

/// Nominal LDPC framing for the cost model: the production frame is
/// n = 16384 at rate ~0.75, so one frame carries ~12k payload bits.
constexpr double kModelFrameBits = 16384.0;
constexpr double kModelPayloadBits = 12288.0;
constexpr double kModelEdgesPerBit = 3.0;  ///< regular dv=3 PEG codes
constexpr double kModelTypicalIterations = 20.0;

// ---------------------------------------------------------------------------

class SiftExecutor final : public StageExecutor {
 public:
  StageKind kind() const noexcept override { return StageKind::kSift; }

  bool feasible_on(DeviceKind kind) const noexcept override {
    // Index juggling over irregular detection logs: host-only.
    return is_cpu(kind);
  }

  WorkEstimate work_model(const StageWorkload& workload,
                          DeviceKind) const noexcept override {
    WorkEstimate estimate;
    const auto pulses = static_cast<double>(workload.pulses);
    estimate.ops = 2.0 * pulses;
    estimate.bytes_touched = pulses / 4.0;
    estimate.bytes_transferred = pulses / 8.0;
    return estimate;
  }

  double run(BlockState& state, const ExecutionContext& ctx) const override {
    return ctx.device->execute([&]() -> WorkEstimate {
      state.sift = protocol::sift_alice(state.input->log, state.input->report);
      state.bob_sifted =
          protocol::sift_bob(state.input->bob_bits, state.sift.result);
      state.outcome.sifted_bits = state.sift.sifted_key.size();
      StageWorkload actual;
      actual.pulses = static_cast<std::size_t>(state.input->report.n_pulses);
      return work_model(actual, ctx.device->kind());
    });
  }
};

// ---------------------------------------------------------------------------

class EstimateExecutor final : public StageExecutor {
 public:
  StageKind kind() const noexcept override { return StageKind::kEstimate; }

  bool feasible_on(DeviceKind kind) const noexcept override {
    // Sampling + a Hoeffding bound: negligible arithmetic, host-only.
    return is_cpu(kind);
  }

  WorkEstimate work_model(const StageWorkload& workload,
                          DeviceKind) const noexcept override {
    WorkEstimate estimate;
    const auto sifted = static_cast<double>(workload.sifted_bits);
    estimate.ops = 10.0 * sifted;
    estimate.bytes_touched = sifted;
    estimate.bytes_transferred = sifted / 8.0;
    return estimate;
  }

  double run(BlockState& state, const ExecutionContext& ctx) const override {
    return ctx.device->execute([&]() -> WorkEstimate {
      const BitVec& sifted = state.sift.sifted_key;
      const BitVec& signal_mask = state.sift.result.signal_mask;
      state.split = split_sifted(sifted, signal_mask);
      state.outcome.key_candidate_bits = state.split.signal_positions.size();

      StageWorkload actual;
      actual.sifted_bits = sifted.size();
      const WorkEstimate estimate = work_model(actual, ctx.device->kind());

      if (state.split.signal_positions.size() < 64) {
        state.outcome.abort_reason = "insufficient sifted key";
        return estimate;
      }
      state.revealed_positions = choose_pe_positions(
          state.split, ctx.params->pe_fraction, *ctx.rng);
      std::size_t mismatches = 0;
      for (const auto p : state.revealed_positions) {
        mismatches += sifted.get(p) != state.bob_sifted.get(p);
      }
      state.estimate = protocol::estimate_qber(state.revealed_positions.size(),
                                               mismatches,
                                               ctx.params->security.eps_pe);
      state.outcome.pe_sample_bits = state.estimate.sample_size;
      state.outcome.qber_estimate = state.estimate.qber;
      state.outcome.qber_upper = state.estimate.qber_upper;

      // Abort on the point estimate: the eps_pe-confidence upper bound is
      // for the PA planner's phase-error budget, not the go/no-go decision
      // (it would reject every modest-sized block).
      if (state.estimate.qber >= ctx.params->qber_abort) {
        state.outcome.abort_reason = "qber above abort threshold";
        return estimate;
      }
      state.alice_key =
          remaining_key(sifted, signal_mask, state.revealed_positions);
      state.bob_key = remaining_key(state.bob_sifted, signal_mask,
                                    state.revealed_positions);
      return estimate;
    });
  }
};

// ---------------------------------------------------------------------------

class ReconcileExecutor final : public StageExecutor {
 public:
  explicit ReconcileExecutor(const PostprocessParams& params)
      : params_(&params) {}

  StageKind kind() const noexcept override { return StageKind::kReconcile; }

  bool feasible_on(DeviceKind kind) const noexcept override {
    // LDPC syndrome decoding is the offload poster child; interactive
    // Cascade is latency-bound chit-chat and stays on the host.
    if (params_->method == protocol::ReconcileMethod::kCascade) {
      return is_cpu(kind);
    }
    return true;
  }

  WorkEstimate work_model(const StageWorkload& workload,
                          DeviceKind device_kind) const noexcept override {
    WorkEstimate estimate;
    const double frames = std::max(
        1.0, static_cast<double>(workload.key_bits) / kModelPayloadBits);
    const double edges = kModelFrameBits * kModelEdgesPerBit;
    // Fixed-depth hardware runs worst-case iterations; everything else is
    // priced at the typical early-termination count.
    const double iterations =
        device_kind == DeviceKind::kFpgaSim
            ? static_cast<double>(params_->ldpc.decoder.max_iterations)
            : kModelTypicalIterations;
    estimate.ops = frames * iterations * edges * kOpsPerEdge;
    estimate.bytes_touched = frames * iterations * edges * kBytesPerEdge;
    estimate.bytes_transferred =
        frames * (kModelFrameBits * 4.0 + kModelFrameBits / 4.0);
    return estimate;
  }

  double run(BlockState& state, const ExecutionContext& ctx) const override {
    return ctx.device->execute([&]() -> WorkEstimate {
      const double qber = qber_floor(state.estimate.qber);
      double iterations = 0.0;
      double frames_run = 0.0;
      if (ctx.params->method == protocol::ReconcileMethod::kLdpc) {
        run_ldpc(state, ctx, qber, iterations, frames_run);
      } else {
        run_cascade(state, ctx, qber);
      }
      state.outcome.reconciled_bits = state.bob_reconciled.size();
      if (state.outcome.reconciled_bits == 0 && !state.aborted()) {
        state.outcome.abort_reason = "reconciliation produced no frames";
      }
      state.outcome.efficiency = reconciliation_efficiency(
          state.ledger.ec_bits, state.outcome.reconciled_bits,
          state.estimate.qber);

      if (ctx.params->method != protocol::ReconcileMethod::kLdpc) {
        // Coarse cascade model: every pass scans the key a handful of times.
        WorkEstimate estimate;
        const auto bits = static_cast<double>(state.alice_key.size());
        estimate.ops = bits * ctx.params->cascade.passes * 6.0;
        estimate.bytes_touched = estimate.ops / 8.0;
        estimate.bytes_transferred = bits / 8.0;
        return estimate;
      }
      WorkEstimate estimate;
      if (ctx.device->kind() == DeviceKind::kFpgaSim) {
        // Fixed-depth pipeline: charged at worst case always.
        iterations = frames_run *
                     static_cast<double>(ctx.params->ldpc.decoder.max_iterations);
      }
      const double edges = kModelFrameBits * kModelEdgesPerBit;
      estimate.ops = iterations * edges * kOpsPerEdge;
      estimate.bytes_touched = iterations * edges * kBytesPerEdge;
      estimate.bytes_transferred =
          frames_run * (kModelFrameBits * 4.0 + kModelFrameBits / 4.0);
      return estimate;
    });
  }

 private:
  void run_ldpc(BlockState& state, const ExecutionContext& ctx, double qber,
                double& iterations, double& frames_run) const {
    reconcile::LdpcBlockFraming framing;
    try {
      framing = reconcile::frame_ldpc_block(
          state.alice_key.size(), qber, state.block_id, ctx.params->ldpc);
    } catch (const Error&) {
      state.outcome.abort_reason = "key shorter than one reconciliation frame";
      return;
    }
    const std::size_t capacity =
        framing.frame_seeds.size() * framing.plan.payload_bits;
    // Reserve the reconciled accumulators once so the per-frame append()s
    // never reallocate mid-block.
    state.alice_reconciled.reserve(capacity);
    state.bob_reconciled.reserve(capacity);
    const auto stats = reconcile::ldpc_reconcile_key_batch(
        state.alice_key, state.bob_key, qber, framing.plan,
        framing.frame_seeds, ctx.params->ldpc, *ctx.rng, ctx.arena,
        state.alice_reconciled, state.bob_reconciled);
    ctx.ledger->ec_bits += stats.leaked_bits;
    state.outcome.reconcile_rounds += stats.rounds;
    state.outcome.reconcile_frames += stats.frames;
    state.outcome.decoder_iterations += stats.iterations;
    state.outcome.reconcile_early_exit_frames += stats.early_exit_frames;
    iterations = static_cast<double>(stats.iterations);
    frames_run = static_cast<double>(stats.frames);
  }

  void run_cascade(BlockState& state, const ExecutionContext& ctx,
                   double qber) const {
    const auto result = reconcile::cascade_reconcile_local(
        state.alice_key, state.bob_key, qber,
        reconcile::cascade_block_seed(state.block_id), ctx.params->cascade);
    ctx.ledger->ec_bits += result.leaked_bits;
    state.outcome.reconcile_rounds += result.rounds;
    if (!result.success) {
      // Round budget exhausted with odd blocks outstanding: the keys
      // provably still differ, so verification could never pass. Fail the
      // block here instead of leaking a verification tag on a lost cause.
      state.outcome.abort_reason = "cascade did not converge";
      return;
    }
    state.alice_reconciled = state.alice_key;
    state.bob_reconciled = result.corrected;
  }

  const PostprocessParams* params_;
};

// ---------------------------------------------------------------------------

class VerifyExecutor final : public StageExecutor {
 public:
  StageKind kind() const noexcept override { return StageKind::kVerify; }

  bool feasible_on(DeviceKind) const noexcept override { return true; }

  WorkEstimate work_model(const StageWorkload& workload,
                          DeviceKind) const noexcept override {
    WorkEstimate estimate;
    const double bytes = static_cast<double>(workload.key_bits) / 8.0;
    const double blocks = bytes / 16.0 + 1.0;
    estimate.ops = 2.0 * blocks * kOpsPerGfMul;  // both endpoints' tags
    estimate.bytes_touched = 2.0 * bytes;
    estimate.bytes_transferred = bytes + 32.0;
    return estimate;
  }

  double run(BlockState& state, const ExecutionContext& ctx) const override {
    return ctx.device->execute([&]() -> WorkEstimate {
      const std::uint64_t verify_seed = ctx.rng->next_u64();
      const U128 alice_tag =
          privacy::verification_tag(state.alice_reconciled, verify_seed);
      const U128 bob_tag =
          privacy::verification_tag(state.bob_reconciled, verify_seed);
      ctx.ledger->verify_bits = kVerifyTagBits;  // tag reveals <= its length
      if (!(alice_tag == bob_tag)) {
        state.outcome.abort_reason = "verification mismatch";
      }
      StageWorkload actual;
      actual.key_bits = state.bob_reconciled.size();
      return work_model(actual, ctx.device->kind());
    });
  }
};

// ---------------------------------------------------------------------------

class AmplifyExecutor final : public StageExecutor {
 public:
  StageKind kind() const noexcept override { return StageKind::kAmplify; }

  bool feasible_on(DeviceKind) const noexcept override { return true; }

  WorkEstimate work_model(const StageWorkload& workload,
                          DeviceKind) const noexcept override {
    WorkEstimate estimate;
    // Toeplitz as an NTT convolution of the key with a ~2n-bit seed.
    const double conv_len = 2.0 * static_cast<double>(workload.key_bits);
    const double n_fft =
        std::pow(2.0, std::ceil(std::log2(std::max(2.0, conv_len))));
    estimate.ops = 3.0 * n_fft * std::log2(n_fft) * kOpsPerButterfly;
    estimate.bytes_touched = 3.0 * n_fft * 4.0 * std::log2(n_fft);
    estimate.bytes_transferred =
        static_cast<double>(workload.key_bits) / 4.0;
    return estimate;
  }

  double run(BlockState& state, const ExecutionContext& ctx) const override {
    return ctx.device->execute([&]() -> WorkEstimate {
      const auto plan = privacy::plan_privacy_amplification(
          state.bob_reconciled.size(), state.outcome.pe_sample_bits,
          state.estimate.qber, ctx.ledger->total(), ctx.params->security);
      StageWorkload actual;
      actual.key_bits = state.bob_reconciled.size();
      const WorkEstimate estimate = work_model(actual, ctx.device->kind());
      if (!plan.viable) {
        state.outcome.abort_reason = "no extractable secret key";
        return estimate;
      }
      state.outcome.final_key =
          apply_toeplitz(ctx.rng->next_u64(), state.bob_reconciled,
                         plan.output_bits);
      state.outcome.final_key_bits = state.outcome.final_key.size();
      state.outcome.success = true;
      return estimate;
    });
  }
};

}  // namespace

const char* stage_name(StageKind kind) noexcept {
  switch (kind) {
    case StageKind::kSift: return "sift";
    case StageKind::kEstimate: return "estimate";
    case StageKind::kReconcile: return "reconcile";
    case StageKind::kVerify: return "verify";
    case StageKind::kAmplify: return "amplify";
  }
  return "unknown";
}

std::vector<std::unique_ptr<StageExecutor>> make_stage_executors(
    const PostprocessParams& params) {
  std::vector<std::unique_ptr<StageExecutor>> executors;
  executors.push_back(std::make_unique<SiftExecutor>());
  executors.push_back(std::make_unique<EstimateExecutor>());
  executors.push_back(std::make_unique<ReconcileExecutor>(params));
  executors.push_back(std::make_unique<VerifyExecutor>());
  executors.push_back(std::make_unique<AmplifyExecutor>());
  return executors;
}

}  // namespace qkdpp::engine
