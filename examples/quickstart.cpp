// Quickstart: distill a secret key from a simulated 10 km metro link with
// the PostprocessEngine API.
//
//   $ ./examples/quickstart
//
// Simulates one block of 2^20 pulses, lets the engine's mapper place the
// five post-processing stages (sift -> estimate -> LDPC reconcile ->
// verify -> Toeplitz amplify) over the heterogeneous device roster, runs
// the block, and prints the chosen placement, the distillation funnel and
// the first bits of the key.
#include <cstdio>

#include "engine/engine.hpp"
#include "engine/sim_adapter.hpp"
#include "sim/bb84.hpp"

int main() {
  using namespace qkdpp;

  sim::LinkConfig link;
  link.channel.length_km = 10.0;
  link.channel.misalignment = 0.015;

  std::printf("qkdpp quickstart: %.0f km fiber, %.1f dB loss, QBER ~%.1f%%\n",
              link.channel.length_km,
              link.channel.length_km * link.channel.attenuation_db_per_km +
                  link.channel.insertion_loss_db,
              link.channel.misalignment * 100);

  // --- the quantum layer: one block of raw detections ----------------------
  Xoshiro256 rng(/*seed=*/2024);
  const engine::BlockInput input =
      engine::make_block_input(sim::Bb84Simulator(link).run(1 << 20, rng), 1);

  // --- the post-processing engine: mapper-placed stage chain ---------------
  engine::PostprocessParams params;
  engine::PostprocessEngine qkd(params, engine::EngineOptions::standard());

  std::printf("\nstage placement (optimizer, predicted %.1f blocks/s):\n",
              qkd.placement().predicted_items_per_s);
  for (std::size_t s = 0; s < qkd.placement().stage_names.size(); ++s) {
    std::printf("  %-10s -> %s\n", qkd.placement().stage_names[s].c_str(),
                qkd.placement().device_of(s).c_str());
  }

  const auto block = qkd.process_block(input, /*block_id=*/1, rng);
  if (!block.success) {
    std::printf("block aborted: %s\n", block.abort_reason.c_str());
    return 1;
  }

  std::printf("\n  %-28s %12zu\n", "pulses sent", block.pulses);
  std::printf("  %-28s %12zu\n", "detections", block.detections);
  std::printf("  %-28s %12zu\n", "sifted bits", block.sifted_bits);
  std::printf("  %-28s %12zu\n", "key candidates (signal)",
              block.key_candidate_bits);
  std::printf("  %-28s %12.3f%%\n", "estimated QBER",
              block.qber_estimate * 100);
  std::printf("  %-28s %12zu\n", "reconciled bits", block.reconciled_bits);
  std::printf("  %-28s %12llu  (f = %.2f)\n", "EC leakage (bits)",
              static_cast<unsigned long long>(block.leak_ec_bits),
              block.efficiency);
  std::printf("  %-28s %12zu\n", "final secret bits", block.final_key_bits);
  std::printf("  %-28s %12.2e\n", "secret key rate / pulse",
              block.skr_per_pulse());

  std::printf("\n  key[0:64] = %s\n", block.final_key.to_string(64).c_str());
  std::printf("\ncharged post-processing time: %.1f ms (sift %.1f, "
              "estimate %.1f, reconcile %.1f, verify %.1f, amplify %.1f)\n",
              block.timings.post_processing_total() * 1e3,
              block.timings.sift * 1e3, block.timings.estimate * 1e3,
              block.timings.reconcile * 1e3, block.timings.verify * 1e3,
              block.timings.amplify * 1e3);
  std::printf("(cpu stages charge measured wall time; gpu-sim/fpga-sim "
              "stages charge modeled accelerator time)\n");
  return 0;
}
