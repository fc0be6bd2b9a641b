#include "pipeline/offline.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "engine/sim_adapter.hpp"

namespace qkdpp::pipeline {

OfflinePipeline::OfflinePipeline(OfflineConfig config)
    : config_(std::move(config)), simulator_(config_.link) {
  QKDPP_REQUIRE(config_.pulses_per_block > 0, "empty block");
  engine_ = std::make_unique<engine::PostprocessEngine>(
      static_cast<const engine::PostprocessParams&>(config_),
      config_.engine_options);
}

BlockOutcome OfflinePipeline::process_block(std::uint64_t block_id,
                                            Xoshiro256& rng) {
  // --- link simulation (the "hardware"; timed separately) ----------------
  Stopwatch stopwatch;
  sim::DetectionRecord record = simulator_.run(config_.pulses_per_block, rng);
  const double simulate_seconds = stopwatch.seconds();

  const engine::BlockInput input =
      engine::make_block_input(std::move(record), block_id);
  BlockOutcome outcome = engine_->process_block(input, block_id, rng);
  outcome.timings.simulate = simulate_seconds;
  return outcome;
}

}  // namespace qkdpp::pipeline
