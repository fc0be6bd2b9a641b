// Heterogeneous offload walkthrough on the PostprocessEngine API: inspect
// the stage x device cost matrix the engine priced at construction, compare
// the optimizer's placement against naive baselines, then run a batch of
// blocks through process_block() and read the per-device ledger.
//
//   $ ./examples/hetero_offload
//
// CPU columns are priced with the same analytic model the simulated
// accelerators use, so every column of the matrix is comparable even on a
// host without accelerators; at run time CPU
// stages charge measured wall-clock while gpu-sim/fpga-sim charge modeled
// time - the key bits are identical on every placement.
#include <cstdio>
#include <vector>

#include "engine/engine.hpp"
#include "engine/sim_adapter.hpp"
#include "hetero/mapper.hpp"
#include "sim/bb84.hpp"

namespace {

using namespace qkdpp;

engine::BlockInput simulate_block(std::uint64_t block_id, std::uint64_t seed) {
  sim::LinkConfig link;
  link.channel.length_km = 25.0;
  Xoshiro256 rng(seed);
  return engine::make_block_input(sim::Bb84Simulator(link).run(1 << 19, rng),
                                  block_id);
}

}  // namespace

int main() {
  using namespace qkdpp;

  engine::PostprocessParams params;
  engine::PostprocessEngine qkd(params, engine::EngineOptions::standard());
  const auto& problem = qkd.mapping_problem();

  std::printf("modeled stage costs (seconds per block):\n\n%12s", "");
  for (const auto& device : problem.device_names) {
    std::printf(" %12s", device.c_str());
  }
  std::printf("\n");
  for (std::size_t s = 0; s < problem.stage_names.size(); ++s) {
    std::printf("%12s", problem.stage_names[s].c_str());
    for (const double cost : problem.seconds_per_item[s]) {
      if (cost >= hetero::kInfeasible) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %12.6f", cost);
      }
    }
    std::printf("\n");
  }

  const auto& placement = qkd.placement();
  std::printf("\noptimized mapping:\n");
  for (std::size_t s = 0; s < placement.stage_names.size(); ++s) {
    std::printf("  %-10s -> %s\n", placement.stage_names[s].c_str(),
                placement.device_of(s).c_str());
  }

  const auto all_cpu = hetero::fixed_mapping(problem, 0);
  const auto greedy = hetero::greedy_mapping(problem);
  std::printf("\npredicted pipeline throughput (blocks/s):\n");
  std::printf("  %-22s %10.1f\n", "all cpu-scalar",
              all_cpu.throughput_items_per_s);
  std::printf("  %-22s %10.1f\n", "greedy per-stage",
              greedy.throughput_items_per_s);
  std::printf("  %-22s %10.1f\n", "optimizer",
              placement.predicted_items_per_s);

  // --- a batch of blocks, one process_block() call each ---------------------
  // Simulate the raw material first so the stopwatch times only the
  // engine's post-processing, not the quantum-layer simulation.
  constexpr int kBlocks = 8;
  std::vector<engine::BlockInput> inputs;
  inputs.reserve(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    inputs.push_back(simulate_block(b, 90 + b));
  }
  std::size_t secret_bits = 0;
  int succeeded = 0;
  Stopwatch stopwatch;
  for (int b = 0; b < kBlocks; ++b) {
    Xoshiro256 rng(700 + b);
    const auto outcome = qkd.process_block(inputs[b], b, rng);
    if (outcome.success) {
      ++succeeded;
      secret_bits += outcome.final_key_bits;
    }
  }
  const double wall = stopwatch.seconds();

  std::printf("\nprocessed %d/%d blocks in %.3f s (%.1f blocks/s wall), "
              "%zu secret bits\n",
              succeeded, kBlocks, wall, kBlocks / wall, secret_bits);
  std::printf("\nper-device ledger (charged time):\n");
  for (const auto& report : qkd.device_report()) {
    std::printf("  %-14s kernels=%llu charged=%.4fs\n", report.name.c_str(),
                static_cast<unsigned long long>(report.kernels_launched),
                report.busy_seconds);
  }
  std::printf("\nNote: gpu-sim / fpga-sim charge *modeled* time (analytic "
              "device model); cpu devices charge measured wall time.\n");
  return 0;
}
