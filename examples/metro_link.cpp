// Metro-network scenario: secret key rate across a city-scale fiber span.
//
// Mirrors the metropolitan deployments QKD testbeds report (Cambridge-style
// 5-50 km spans): sweeps fiber length, runs one post-processing block per
// point with both reconciliation families, and prints an SKR table.
//
//   $ ./examples/metro_link [pulses_log2=21]
#include <cstdio>
#include <cstdlib>

#include "engine/engine.hpp"
#include "engine/sim_adapter.hpp"
#include "sim/bb84.hpp"

int main(int argc, char** argv) {
  using namespace qkdpp;

  const int pulses_log2 = argc > 1 ? std::atoi(argv[1]) : 21;
  const std::size_t pulses = std::size_t{1} << pulses_log2;

  std::printf("metro link sweep: 2^%d pulses per block, decoy BB84, "
              "APD detector (eta=20%%, dark=1e-6)\n\n",
              pulses_log2);
  std::printf("%6s | %9s %7s | %11s %8s | %11s %8s\n", "km", "sifted",
              "QBER", "LDPC SKR", "f_EC", "Cascade SKR", "f_EC");
  std::printf("-------+-------------------+----------------------+--------"
              "--------------\n");

  engine::PostprocessParams cascade_params;
  cascade_params.method = protocol::ReconcileMethod::kCascade;
  engine::PostprocessEngine ldpc_engine(engine::PostprocessParams{},
                                        engine::EngineOptions::cpu_only());
  engine::PostprocessEngine cascade_engine(cascade_params,
                                           engine::EngineOptions::cpu_only());

  for (const double km : {5.0, 10.0, 15.0, 25.0, 35.0, 50.0}) {
    sim::LinkConfig link;
    link.channel.length_km = km;
    const sim::Bb84Simulator simulator(link);
    // Both methods see the same block: each run simulates it from the same
    // seed, then post-processes it on the same stream.
    const auto run = [&](engine::PostprocessEngine& qkd) {
      Xoshiro256 rng(static_cast<std::uint64_t>(km * 1000) + 1);
      const engine::BlockInput input =
          engine::make_block_input(simulator.run(pulses, rng), 1);
      return qkd.process_block(input, 1, rng);
    };
    const auto ldpc = run(ldpc_engine);
    const auto cascade = run(cascade_engine);

    auto skr_cell = [](const engine::BlockOutcome& outcome) {
      return outcome.success ? outcome.skr_per_pulse() : 0.0;
    };
    std::printf("%6.0f | %9zu %6.2f%% | %11.2e %8.2f | %11.2e %8.2f\n", km,
                ldpc.sifted_bits, ldpc.qber_estimate * 100, skr_cell(ldpc),
                ldpc.success ? ldpc.efficiency : 0.0, skr_cell(cascade),
                cascade.success ? cascade.efficiency : 0.0);
    if (!ldpc.success) {
      std::printf("       | ldpc aborted: %s\n", ldpc.abort_reason.c_str());
    }
    if (!cascade.success) {
      std::printf("       | cascade aborted: %s\n",
                  cascade.abort_reason.c_str());
    }
  }
  std::printf("\nCascade leaks less (lower f_EC -> higher SKR) but costs "
              "hundreds of round-trips; LDPC is one-way. The ladder's "
              "metro-ldpc and noisy-cascade workloads (bench/ladder/) "
              "measure the trade-off.\n");
  return 0;
}
