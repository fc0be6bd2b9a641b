// Metro-network scenario: secret key rate across a city-scale fiber span.
//
// Mirrors the metropolitan deployments QKD testbeds report (Cambridge-style
// 5-50 km spans): sweeps fiber length, runs one post-processing block per
// point with both reconciliation families, and prints an SKR table.
//
//   $ ./examples/metro_link [pulses_log2=21]
#include <cstdio>
#include <cstdlib>

#include "pipeline/offline.hpp"

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

  for (const double km : {5.0, 10.0, 15.0, 25.0, 35.0, 50.0}) {
    pipeline::OfflineConfig config;
    config.link.channel.length_km = km;
    config.pulses_per_block = pulses;

    Xoshiro256 rng_ldpc(static_cast<std::uint64_t>(km * 1000) + 1);
    const auto ldpc =
        pipeline::OfflinePipeline(config).process_block(1, rng_ldpc);

    config.method = protocol::ReconcileMethod::kCascade;
    config.cascade.passes = 6;
    Xoshiro256 rng_cascade(static_cast<std::uint64_t>(km * 1000) + 1);
    const auto cascade =
        pipeline::OfflinePipeline(config).process_block(1, rng_cascade);

    auto skr_cell = [](const pipeline::BlockOutcome& outcome) {
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
