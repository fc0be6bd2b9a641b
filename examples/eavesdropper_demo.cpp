// Eavesdropper detection demo: intercept-resend attacks versus the
// post-processing defences.
//
//   $ ./examples/eavesdropper_demo
//
// Sweeps Eve's interception fraction and shows (a) the QBER climbing
// toward 25%, (b) the decoy-state single-photon error bound blowing past
// the 11% BB84 limit, and (c) the pipeline aborting instead of emitting
// key - the detection mechanism QKD's security story rests on.
#include <cstddef>
#include <cstdio>

#include "engine/engine.hpp"
#include "engine/sim_adapter.hpp"
#include "protocol/param_estimation.hpp"
#include "sim/bb84.hpp"

int main() {
  using namespace qkdpp;

  std::printf("intercept-resend sweep on a 10 km link (misalignment 1.5%%)\n\n");
  std::printf("%10s | %8s | %12s | %10s | %s\n", "intercept", "QBER",
              "decoy e1_max", "final bits", "verdict");
  std::printf("-----------+----------+--------------+------------+---------"
              "--------\n");

  constexpr std::size_t kPulses = std::size_t{1} << 20;
  engine::PostprocessEngine qkd(engine::PostprocessParams{},
                                engine::EngineOptions::cpu_only());
  for (const double fraction : {0.0, 0.1, 0.25, 0.5, 0.75, 1.0}) {
    sim::LinkConfig link;
    link.channel.length_km = 10.0;
    link.eve.intercept_fraction = fraction;
    link.source.p_signal = 0.7;  // beefier decoy statistics
    link.source.p_decoy = 0.15;
    link.source.p_vacuum = 0.15;
    const sim::Bb84Simulator simulator(link);

    // Decoy-state view (what parameter estimation sees about single
    // photons) straight from the simulated detection statistics.
    Xoshiro256 stats_rng(static_cast<std::uint64_t>(fraction * 100) + 5);
    const auto stats =
        sim::Bb84Simulator::stats(simulator.run(kPulses, stats_rng));
    protocol::DecoyObservations obs;
    obs.mu = link.source.mu_signal;
    obs.nu = link.source.mu_decoy;
    obs.q_mu = stats.per_class[0].gain();
    obs.q_nu = stats.per_class[1].gain();
    obs.e_mu = stats.per_class[0].qber();
    obs.e_nu = stats.per_class[1].qber();
    obs.y0 = stats.per_class[2].gain();
    const auto bounds = protocol::decoy_bounds(obs);

    Xoshiro256 rng(static_cast<std::uint64_t>(fraction * 100) + 6);
    const engine::BlockInput input =
        engine::make_block_input(simulator.run(kPulses, rng), 1);
    const auto block = qkd.process_block(input, 1, rng);

    char decoy_cell[32];
    if (bounds.valid) {
      std::snprintf(decoy_cell, sizeof decoy_cell, "%11.1f%%",
                    bounds.e1_upper * 100);
    } else {
      std::snprintf(decoy_cell, sizeof decoy_cell, "%12s", "invalid");
    }
    std::printf("%9.0f%% | %7.2f%% | %s | %10zu | %s\n", fraction * 100,
                stats.per_class[0].qber() * 100, decoy_cell,
                block.final_key_bits,
                block.success ? "key distilled"
                              : block.abort_reason.c_str());
  }

  std::printf("\nEve pays in errors: every intercepted photon she re-sends "
              "in the wrong basis flips Bob's sifted bit half the time "
              "(25%% QBER at full interception). Past ~11%% the pipeline "
              "aborts and no key material is ever released.\n");
  return 0;
}
