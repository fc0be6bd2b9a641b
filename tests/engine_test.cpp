// PostprocessEngine tests: bit-exact final keys across all four DeviceKind
// placements (device selection changes the clock, never the key) and mapper
// edge cases surfaced through the engine.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/sim_adapter.hpp"
#include "sim/bb84.hpp"

namespace qkdpp::engine {
namespace {

BlockInput metro_input(std::uint64_t block_id, std::uint64_t seed,
                       std::size_t pulses = std::size_t{1} << 19) {
  sim::LinkConfig link;
  link.channel.length_km = 10.0;
  Xoshiro256 rng(seed);
  const auto record = sim::Bb84Simulator(link).run(pulses, rng);
  return make_block_input(record, block_id);
}

PostprocessParams metro_params() {
  PostprocessParams params;
  return params;
}

TEST(PostprocessEngine, GoldenKeyBitExactAcrossAllDevicePlacements) {
  const BlockInput input = metro_input(1, 42);
  const hetero::DeviceKind kinds[] = {
      hetero::DeviceKind::kCpuScalar, hetero::DeviceKind::kCpuParallel,
      hetero::DeviceKind::kGpuSim, hetero::DeviceKind::kFpgaSim};

  PostprocessEngine reference(metro_params(),
                              EngineOptions::pinned(kinds[0]));
  Xoshiro256 reference_rng(7);
  const BlockOutcome golden = reference.process_block(input, 1, reference_rng);
  ASSERT_TRUE(golden.success) << golden.abort_reason;
  ASSERT_GT(golden.final_key_bits, 0u);

  for (std::size_t k = 1; k < 4; ++k) {
    PostprocessEngine engine(metro_params(), EngineOptions::pinned(kinds[k]));
    EXPECT_EQ(engine.placement().device_of_stage,
              std::vector<std::uint32_t>(5, static_cast<std::uint32_t>(k)));
    Xoshiro256 rng(7);
    const BlockOutcome outcome = engine.process_block(input, 1, rng);
    ASSERT_TRUE(outcome.success) << outcome.abort_reason;
    EXPECT_EQ(outcome.final_key, golden.final_key)
        << "placement " << hetero::to_string(kinds[k]);
    EXPECT_EQ(outcome.leak_ec_bits, golden.leak_ec_bits);
    EXPECT_EQ(outcome.reconciled_bits, golden.reconciled_bits);
  }
}

TEST(PostprocessEngine, OptimizedPlacementSameKeyAsPinned) {
  const BlockInput input = metro_input(2, 43);
  PostprocessEngine pinned(metro_params(),
                           EngineOptions::pinned(hetero::DeviceKind::kCpuScalar));
  PostprocessEngine optimized(metro_params(), EngineOptions::standard());
  Xoshiro256 rng_a(9), rng_b(9);
  const auto a = pinned.process_block(input, 2, rng_a);
  const auto b = optimized.process_block(input, 2, rng_b);
  ASSERT_TRUE(a.success) << a.abort_reason;
  ASSERT_TRUE(b.success) << b.abort_reason;
  EXPECT_EQ(a.final_key, b.final_key);
}

TEST(PostprocessEngine, OptimizedPlacementKeepsHostStagesOnCpu) {
  PostprocessEngine engine(metro_params(), EngineOptions::standard());
  const Placement& placement = engine.placement();
  ASSERT_EQ(placement.stage_names.size(), 5u);
  ASSERT_EQ(placement.device_of_stage.size(), 5u);
  EXPECT_GT(placement.predicted_items_per_s, 0.0);
  // sift and estimate are host-only; the mapper must respect the mask.
  for (std::size_t s = 0; s < 2; ++s) {
    const auto d = placement.device_of_stage[s];
    EXPECT_LE(d, 1u) << placement.stage_names[s] << " placed on "
                     << placement.device_of(s);
  }
}

TEST(PostprocessEngine, AcceleratorOnlyRosterThrowsAllInfeasible) {
  // Sifting cannot run on accelerators; with no CPU in the roster the
  // optimizer has an all-infeasible stage row and must reject the config.
  EngineOptions options;
  options.devices = {hetero::gpu_sim_props(), hetero::fpga_sim_props()};
  EXPECT_THROW(PostprocessEngine(metro_params(), options), Error);
}

TEST(PostprocessEngine, SingleDeviceTieIsDeterministic) {
  // Two identical devices: every assignment ties; the exhaustive search
  // must still return a valid placement and the same one every time.
  EngineOptions options;
  options.devices = {hetero::cpu_scalar_props(), hetero::cpu_scalar_props()};
  PostprocessEngine a(metro_params(), options);
  PostprocessEngine b(metro_params(), options);
  for (const auto d : a.placement().device_of_stage) EXPECT_LT(d, 2u);
  EXPECT_EQ(a.placement().device_of_stage, b.placement().device_of_stage);
}

TEST(PostprocessEngine, FixedDeviceOutOfRangeRejected) {
  EngineOptions options = EngineOptions::cpu_only();
  options.fixed_device = 7;
  EXPECT_THROW(PostprocessEngine(metro_params(), options), Error);
}

TEST(PostprocessEngine, InvalidParamsRejected) {
  PostprocessParams params = metro_params();
  params.pe_fraction = 0.0;
  EXPECT_THROW(PostprocessEngine{params}, std::invalid_argument);
  params = metro_params();
  params.qber_abort = 0.0;
  EXPECT_THROW(PostprocessEngine{params}, std::invalid_argument);
}

TEST(PostprocessEngine, DeviceReportAccountsLaunches) {
  PostprocessEngine engine(metro_params(),
                           EngineOptions::pinned(hetero::DeviceKind::kGpuSim));
  const BlockInput input = metro_input(3, 44);
  Xoshiro256 rng(11);
  const auto outcome = engine.process_block(input, 3, rng);
  ASSERT_TRUE(outcome.success) << outcome.abort_reason;
  const auto reports = engine.device_report();
  ASSERT_EQ(reports.size(), 4u);
  const auto& gpu = reports[2];
  EXPECT_EQ(gpu.kind, hetero::DeviceKind::kGpuSim);
  EXPECT_EQ(gpu.kernels_launched, 5u);  // one per stage
  EXPECT_GT(gpu.busy_seconds, 0.0);
  EXPECT_EQ(reports[0].kernels_launched, 0u);
}

TEST(PostprocessEngine, FpgaSimChargesWorstCaseIterations) {
  // Fixed-depth decoder hardware runs every frame to the iteration cap; the
  // gpu-sim charges the iterations the decoder actually ran. Both price an
  // iteration with the reconcile stage's own one-frame work model, so the
  // expected charges follow from it without restating its constants.
  const BlockInput input = metro_input(6, 48);
  const PostprocessParams params = metro_params();
  const unsigned max_iterations = params.ldpc.decoder.max_iterations;
  const auto executors = make_stage_executors(params);
  const StageExecutor& reconcile = *executors[2];
  ASSERT_EQ(reconcile.kind(), StageKind::kReconcile);
  // A key shorter than one frame is priced as exactly one frame.
  StageWorkload one_frame;
  one_frame.key_bits = 0;
  const hetero::WorkEstimate frame =
      reconcile.work_model(one_frame, hetero::DeviceKind::kFpgaSim);

  const auto run_on = [&](hetero::DeviceKind kind) {
    PostprocessEngine engine(params, EngineOptions::pinned(kind));
    Xoshiro256 rng(14);
    const BlockOutcome outcome = engine.process_block(input, 6, rng);
    EXPECT_TRUE(outcome.success) << outcome.abort_reason;
    return outcome;
  };
  const BlockOutcome fpga = run_on(hetero::DeviceKind::kFpgaSim);
  const BlockOutcome gpu = run_on(hetero::DeviceKind::kGpuSim);
  ASSERT_GT(fpga.reconcile_frames, 0u);
  // Same block, same decode: only the charge differs.
  EXPECT_EQ(fpga.final_key, gpu.final_key);
  EXPECT_EQ(fpga.decoder_iterations, gpu.decoder_iterations);

  const auto frames = static_cast<double>(fpga.reconcile_frames);
  const hetero::Device fpga_model(hetero::fpga_sim_props());
  const hetero::WorkEstimate fpga_work{frames * frame.ops,
                                       frames * frame.bytes_touched,
                                       frames * frame.bytes_transferred};
  EXPECT_NEAR(fpga.timings.reconcile, fpga_model.model_seconds(fpga_work),
              1e-9 * fpga.timings.reconcile);

  const double per_iteration = 1.0 / static_cast<double>(max_iterations);
  const auto ran = static_cast<double>(gpu.decoder_iterations);
  const hetero::Device gpu_model(hetero::gpu_sim_props());
  const hetero::WorkEstimate gpu_work{ran * frame.ops * per_iteration,
                                      ran * frame.bytes_touched * per_iteration,
                                      frames * frame.bytes_transferred};
  EXPECT_NEAR(gpu.timings.reconcile, gpu_model.model_seconds(gpu_work),
              1e-9 * gpu.timings.reconcile);

  // Strictly more model ops on the fpga: the cap times every frame exceeds
  // what early termination actually ran.
  EXPECT_LT(gpu.decoder_iterations, fpga.reconcile_frames * max_iterations);
  EXPECT_GT(fpga_work.ops, gpu_work.ops);
}

TEST(PostprocessEngine, AbortedBlockReportsStageReason) {
  PostprocessEngine engine(metro_params(), EngineOptions::cpu_only());
  const BlockInput input = metro_input(4, 45, /*pulses=*/2000);
  Xoshiro256 rng(12);
  const auto outcome = engine.process_block(input, 4, rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.abort_reason, "insufficient sifted key");
  EXPECT_EQ(outcome.final_key_bits, 0u);
}

TEST(PostprocessEngine, CascadeRoundExhaustionAbortsBlock) {
  // Regression: with the Cascade round budget exhausted the keys provably
  // still differ; the reconcile stage must fail the block (and say why)
  // instead of passing a corrupt key to verification.
  PostprocessParams params = metro_params();
  params.method = protocol::ReconcileMethod::kCascade;
  params.cascade.max_rounds = 4;  // a metro block needs thousands
  PostprocessEngine engine(params, EngineOptions::cpu_only());
  const BlockInput input = metro_input(5, 47);
  Xoshiro256 rng(13);
  const auto outcome = engine.process_block(input, 5, rng);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.abort_reason, "cascade did not converge");

  // The identical block with the default budget distills a key.
  params.cascade.max_rounds = 100000;
  PostprocessEngine healthy(params, EngineOptions::cpu_only());
  Xoshiro256 rng_ok(13);
  const auto ok = healthy.process_block(input, 5, rng_ok);
  ASSERT_TRUE(ok.success) << ok.abort_reason;
  EXPECT_GT(ok.final_key_bits, 0u);
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
  for (int b = 0; b < 8; ++b) {
    h ^= (x >> (8 * b)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins sift, PE sampling, reconcile and PA on both reconcile paths to the
// per-bit host stages: the digest came from this test body linked against
// them. LDPC blocks at 10 km, then Cascade blocks at 25 km with the
// misalignment that makes adapt_to_qber switch methods.
TEST(PostprocessEngine, FinalKeyDigestMatchesParent) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t successes = 0;
  const auto fold = [&](const BlockOutcome& outcome) {
    successes += outcome.success ? 1 : 0;
    digest = fnv1a(digest, outcome.success ? 1u : 0u);
    digest = fnv1a(digest, outcome.sifted_bits);
    digest = fnv1a(digest, outcome.pe_sample_bits);
    digest = fnv1a(digest, outcome.leak_ec_bits);
    digest = fnv1a(digest, outcome.reconcile_rounds);
    digest = fnv1a(digest, outcome.final_key.size());
    for (const std::uint64_t w : outcome.final_key.words()) {
      digest = fnv1a(digest, w);
    }
  };

  PostprocessEngine ldpc(metro_params(), EngineOptions::cpu_only());
  for (std::uint64_t b = 0; b < 3; ++b) {
    const BlockInput input = metro_input(20 + b, 60 + b);
    Xoshiro256 rng(80 + b);
    fold(ldpc.process_block(input, 20 + b, rng));
  }

  PostprocessEngine cascade(metro_params(), EngineOptions::cpu_only());
  ASSERT_TRUE(cascade.adapt_to_qber(0.049));
  ASSERT_EQ(cascade.params().method, protocol::ReconcileMethod::kCascade);
  sim::LinkConfig link;
  link.channel.length_km = 25.0;
  link.channel.misalignment = 0.045;
  for (std::uint64_t b = 0; b < 3; ++b) {
    Xoshiro256 sim_rng(90 + b);
    const auto record =
        sim::Bb84Simulator(link).run(std::size_t{3} << 20, sim_rng);
    const BlockInput input = make_block_input(record, 30 + b);
    Xoshiro256 rng(100 + b);
    fold(cascade.process_block(input, 30 + b, rng));
  }
  EXPECT_EQ(successes, 6u);
  EXPECT_EQ(digest, 0x5598afbf412fd6dcULL) << std::hex << digest;
}

}  // namespace
}  // namespace qkdpp::engine
