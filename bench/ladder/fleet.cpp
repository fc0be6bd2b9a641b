// Fleet workload: one LinkOrchestrator distilling 8 links (5 to 50 km)
// over a shared DeviceSet, run() after run(). This is the link layer:
// service, its worker pool, shared devices and KeyStore writes. The
// orchestrator simulates inside run(), so the traced run replays the
// simulator from outside on the same link configs and reports its share.
#include <algorithm>
#include <string>
#include <vector>

#include "service/link_orchestrator.hpp"
#include "sim/bb84.hpp"
#include "workloads.hpp"

namespace ladder {

namespace {

using namespace qkdpp;

/// Per run(): one, so a round (a timing window) lasts ~0.6 s.
constexpr std::uint64_t kBlocksPerLink = 1;
/// One link worker and one device thread. With more, a round waits for
/// its slowest worker, and a co-tenant slowing any one core of the shared
/// host stretches the round: two workers spread the runs' throughput about
/// twice as wide.
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kDeviceThreads = 1;

service::OrchestratorConfig fleet_config(std::uint64_t seed) {
  service::OrchestratorConfig config;
  config.workers = kWorkers;
  config.device_threads = kDeviceThreads;
  constexpr int kLinks = 8;
  for (int i = 0; i < kLinks; ++i) {
    service::LinkSpec spec;
    spec.name = "link" + std::to_string(i);
    spec.link.channel.length_km = 5.0 + 45.0 * i / (kLinks - 1);
    spec.pulses_per_block = sim::pulses_for_sifted_target(
        spec.link, 20000.0, std::size_t{1} << 18, std::size_t{1} << 26);
    spec.blocks = kBlocksPerLink;
    spec.rng_seed = derive_seed(seed, 0xf1ee7ULL << 32 | i);
    config.links.push_back(std::move(spec));
  }
  return config;
}

}  // namespace

Result run_fleet(const Options& options) {
  Result result;

  // Setup: construction (one engine placement per link over the shared
  // set) plus one warm-up round, which builds every code the links use.
  const std::int64_t setup_start = now_ns();
  service::LinkOrchestrator orchestrator(fleet_config(options.seed));
  const service::OrchestratorReport warm = orchestrator.run();
  result.setup_s = seconds_since(setup_start);
  if (options.setup_only) return result;

  std::uint64_t pulses_per_round = 0;
  for (std::size_t i = 0; i < orchestrator.link_count(); ++i) {
    pulses_per_round +=
        orchestrator.link_spec(i).pulses_per_block * kBlocksPerLink;
  }

  // Measured rounds. At least 16 run, so the p90 block latency keeps ten
  // samples beyond it; key_yield is taken over the first 16. Traced, every
  // other round is traced, so traced and untraced rounds share the host's
  // conditions.
  const std::uint64_t yield_rounds = options.smoke ? 2 : 16;
  const std::uint64_t min_rounds = options.smoke ? 2 : 16;
  SpanLog* log = options.trace ? &result.spans.emplace_back() : nullptr;
  std::vector<service::OrchestratorReport> rounds;
  std::vector<double> round_s;
  const std::uint64_t n = run_for(options.seconds, min_rounds, [&](auto i) {
    const std::int64_t start = now_ns();
    {
      ScopedSpan span(i % 2 ? log : nullptr, SpanName::kRound, i);
      rounds.push_back(orchestrator.run());
    }
    round_s.push_back(seconds_since(start));
  });

  Windows windows;  // one per round

  DecodeCounts decode;
  double yield_bits = 0;
  for (std::uint64_t r = 0; r < n; ++r) {
    const auto& report = rounds[r];
    result.attempted += report.blocks_ok + report.blocks_aborted;
    result.failed += report.blocks_aborted;
    if (r < yield_rounds) yield_bits += static_cast<double>(report.secret_bits);
    std::vector<double> latency_ms;
    for (const auto& link : report.links) {
      latency_ms.push_back(link.wall_seconds * 1e3 / kBlocksPerLink);
      decode.add(link, link.reconcile_leak_bits);
    }
    windows.add(static_cast<double>(report.secret_bits), round_s[r],
                std::move(latency_ms));
  }

  // Every accepted key sits in its link's store, nothing was rejected, and
  // each store's ledger balances exactly.
  std::uint64_t reported = warm.secret_bits, deposited = 0;
  for (const auto& report : rounds) reported += report.secret_bits;
  for (std::size_t i = 0; i < orchestrator.link_count(); ++i) {
    const auto& store = orchestrator.key_store(i);
    deposited += store.total_deposited_bits();
    result.gate(store.total_deposited_bits() ==
                    store.bits_available() + store.total_consumed_bits(),
                "fleet: store conservation violated on " +
                    orchestrator.link_spec(i).name);
    result.gate(store.rejected_bits() == 0, "fleet: store rejected bits on " +
                                                orchestrator.link_spec(i).name);
  }
  result.gate(deposited == reported,
              "fleet: reported secret bits differ from store deposits");
  if (!options.trace) {
    result.set_timings(windows, 0.90);
    result.e2e.set("key_yield",
                   yield_bits /
                       static_cast<double>(pulses_per_round * yield_rounds));
    result.e2e.set("peak_rss_mb", peak_rss_mb());
    return result;
  }

  // The service layer, from outside: the traced (odd) rounds.
  std::vector<double> traced_s, untraced_s;
  double link_wall_s = 0, imbalance = 0;
  for (std::uint64_t r = 0; r < n; ++r) {
    if (r % 2 == 0) {
      untraced_s.push_back(round_s[r]);
      continue;
    }
    traced_s.push_back(round_s[r]);
    double max_wall = 0, sum_wall = 0;
    for (const auto& link : rounds[r].links) {
      max_wall = std::max(max_wall, link.wall_seconds);
      sum_wall += link.wall_seconds;
    }
    link_wall_s += sum_wall;
    const auto links = static_cast<double>(rounds[r].links.size());
    imbalance += max_wall / (sum_wall / links);
  }
  const double traced_rounds = static_cast<double>(traced_s.size());
  double traced_round_s = 0;
  for (const double s : traced_s) traced_round_s += s;

  // The simulator, replayed on every link's config for the blocks one
  // round runs; its share is of the links' own wall time.
  double sim_s_per_round = 0;
  for (std::size_t i = 0; i < orchestrator.link_count(); ++i) {
    const auto& spec = orchestrator.link_spec(i);
    const sim::Bb84Simulator simulator(spec.link);
    Xoshiro256 rng(spec.rng_seed);
    for (std::uint64_t b = 0; b < kBlocksPerLink; ++b) {
      const std::int64_t start = now_ns();
      {
        ScopedSpan span(log, SpanName::kSimBlock, i);
        (void)simulator.run(spec.pulses_per_block, rng);
      }
      sim_s_per_round += seconds_since(start);
    }
  }
  const double blocks_per_round =
      static_cast<double>(orchestrator.link_count() * kBlocksPerLink);
  const double blocks = blocks_per_round * static_cast<double>(n);
  auto& layers = result.layers;
  layers.set("sim.block_ms", sim_s_per_round * 1e3 / blocks_per_round);
  layers.set("sim.share", sim_s_per_round * traced_rounds / link_wall_s);
  layers.set("service.round_s", traced_round_s / traced_rounds);
  layers.set("service.worker_busy_share",
             link_wall_s / (static_cast<double>(kWorkers) * traced_round_s));
  layers.set("service.link_imbalance", imbalance / traced_rounds);
  decode.report(layers, blocks);
  // Rounds vary far more than a span costs: compare medians.
  layers.set("trace.overhead",
             median(traced_s) / median(untraced_s) - 1.0);
  return result;
}

}  // namespace ladder
