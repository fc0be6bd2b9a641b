// Multi-link scenario: one post-processing host serving a small QKD
// network - metro access spans, a regional backbone and a WAN span -
// concurrently over one shared device set, distilling into bounded
// ETSI-style key stores.
//
//   $ ./examples/multi_link [blocks=3]
//
// Each link's engine is placed by the mapper *against the load the other
// links already committed* to the shared devices, then all links run
// concurrently. Blocks accumulate to ~40k sifted bits per link (longer,
// lossier spans emit more pulses), and the stores are deliberately tiny
// so the bound is visible: overflowing keys are rejected with a statistic
// instead of growing the store without limit.
#include <cstdio>
#include <cstdlib>

#include "service/link_orchestrator.hpp"

int main(int argc, char** argv) {
  using namespace qkdpp;

  const std::uint64_t blocks = argc > 1 ? std::atoi(argv[1]) : 3;

  service::OrchestratorConfig config;
  config.store.capacity_bits = 1 << 14;  // 16 kbit per link pair

  struct Span {
    const char* name;
    double km;
  };
  const Span spans[] = {{"metro-a", 5.0},
                        {"metro-b", 15.0},
                        {"regional", 35.0},
                        {"backbone", 50.0},
                        {"wan", 75.0}};
  std::uint64_t seed = 1;
  for (const auto& span : spans) {
    service::LinkSpec spec;
    spec.name = span.name;
    spec.link.channel.length_km = span.km;
    spec.pulses_per_block = sim::pulses_for_sifted_target(
        spec.link, 40000.0, std::size_t{1} << 20, std::size_t{1} << 23);
    spec.blocks = blocks;
    spec.rng_seed = seed++;
    config.links.push_back(std::move(spec));
  }

  std::printf("multi-link orchestrator: %zu links, blocks scaled to ~40k "
              "sifted bits, %llu blocks each, shared 4-device set, "
              "16 kbit stores\n\n",
              config.links.size(),
              static_cast<unsigned long long>(blocks));

  service::LinkOrchestrator orchestrator(std::move(config));

  std::printf("placement (arbitrated in link order over shared devices):\n");
  for (std::size_t i = 0; i < orchestrator.link_count(); ++i) {
    const auto& placement = orchestrator.link_engine(i).placement();
    std::printf("  %-9s |", orchestrator.link_spec(i).name.c_str());
    for (std::size_t s = 0; s < placement.stage_names.size(); ++s) {
      std::printf(" %s->%s", placement.stage_names[s].c_str(),
                  placement.device_of(s).c_str());
    }
    std::printf("\n");
  }

  const auto report = orchestrator.run();

  std::printf("\n%-9s | %6s | %4s %5s | %10s %12s | %9s %9s\n", "link", "km",
              "ok", "abort", "secret b", "bits/s", "in store", "rejected");
  for (std::size_t i = 0; i < report.links.size(); ++i) {
    const auto& link = report.links[i];
    std::printf("%-9s | %6.0f | %4llu %5llu | %10llu %12.0f | %9llu %9llu\n",
                link.name.c_str(), link.length_km,
                static_cast<unsigned long long>(link.blocks_ok),
                static_cast<unsigned long long>(link.blocks_aborted),
                static_cast<unsigned long long>(link.secret_bits),
                link.secret_bits_per_s,
                static_cast<unsigned long long>(
                    orchestrator.key_store(i).bits_available()),
                static_cast<unsigned long long>(link.rejected_bits));
  }
  std::printf("\naggregate: %llu secret bits in %.2f s = %.0f bits/s "
              "(%.2f blocks/s) across %llu ok / %llu aborted blocks\n",
              static_cast<unsigned long long>(report.secret_bits),
              report.wall_seconds, report.secret_bits_per_s,
              report.blocks_per_s,
              static_cast<unsigned long long>(report.blocks_ok),
              static_cast<unsigned long long>(report.blocks_aborted));

  // Drain one store through the ETSI-style two-endpoint pattern to show
  // the per-consumer ledger.
  auto& store = orchestrator.key_store(0);
  while (store.get_key("sae-app").has_value()) {
  }
  std::printf("\nstore[0] after consumer drain: %zu keys left, "
              "%llu bits drawn by 'sae-app', %llu bits rejected at the "
              "bound\n",
              store.keys_available(),
              static_cast<unsigned long long>(store.consumed_by("sae-app")),
              static_cast<unsigned long long>(store.rejected_bits()));
  return report.blocks_ok > 0 ? 0 : 1;
}
