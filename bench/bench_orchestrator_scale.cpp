// Orchestrator scale sweep: aggregate secret-key throughput from 1 to 128
// concurrent links with small blocks - the contention gate for the
// lock-free refactor (sharded KeyStore, work-stealing pool, per-block
// arenas).
//
// Three self-gating checks ride on the sweep:
//   * conservation: every arm drains every store and proves zero lost and
//     zero duplicate bits (ids unique, drained bits == deposited bits ==
//     the report's secret bits);
//   * determinism: the 8-link arm runs twice with the same seeds and must
//     produce byte-identical key material per link;
//   * scaling: the 128-link aggregate secret_bits_per_s must reach the
//     parallelism available to it. The gate is normalized by the host's
//     core count W: ideal = min(128, W) / min(8, W), and the measured
//     128/8 ratio must be >= 0.8 x min(8, ideal). On >= 64 cores this is
//     the paper-shaped ">= 8x the 8-link figure" claim (with 20% wall
//     noise tolerance); on small hosts it degrades to "adding 120 links
//     costs at most 20% of aggregate throughput" - the pure-contention
//     reading, which is the part the refactor owns on any machine.
//
// The final stdout line is a machine-readable JSON summary; secret-bit
// totals are seed-deterministic (engine fast path, no wall-clock in the
// key path) and gate the cross-PR baseline machine-independently.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/link_orchestrator.hpp"
#include "sim/link_config.hpp"

namespace {

using namespace qkdpp;

struct ArmResult {
  std::size_t links = 0;
  std::size_t workers = 0;
  std::uint64_t secret_bits = 0;
  std::uint64_t blocks_ok = 0;
  std::uint64_t blocks_aborted = 0;
  double wall_seconds = 0.0;
  double secret_bits_per_s = 0.0;
  ThreadPool::Stats pool;
  bool conservation_ok = true;
  /// Concatenated drained key bytes per link (determinism comparison).
  std::vector<std::vector<std::uint8_t>> drained;
};

service::OrchestratorConfig make_config(std::size_t n_links) {
  service::OrchestratorConfig config;
  config.store.capacity_bits = std::uint64_t{1} << 22;  // roomy: no rejects
  for (std::size_t i = 0; i < n_links; ++i) {
    service::LinkSpec spec;
    spec.name = "link-" + std::to_string(i);
    // Short metro spans, staggered 5..19 km so arms mix work sizes a bit.
    spec.link.channel.length_km = 5.0 + static_cast<double>(i % 8) * 2.0;
    // Small blocks (~12k sifted bits): the per-block work is tiny, so the
    // sweep measures handoff/contention cost, not reconcile throughput.
    spec.pulses_per_block = sim::pulses_for_sifted_target(
        spec.link, 12000.0, std::size_t{1} << 16, std::size_t{1} << 22);
    spec.blocks = 2;
    spec.rng_seed = 1000 + i;  // arm-independent: link i is identical in
                               // every arm that includes it
    config.links.push_back(std::move(spec));
  }
  return config;
}

/// Run one arm and drain every store, checking exact conservation.
ArmResult run_arm(std::size_t n_links) {
  ArmResult arm;
  arm.links = n_links;
  service::LinkOrchestrator orchestrator(make_config(n_links));
  const auto report = orchestrator.run();

  arm.workers = report.pool.threads;
  arm.secret_bits = report.secret_bits;
  arm.blocks_ok = report.blocks_ok;
  arm.blocks_aborted = report.blocks_aborted;
  arm.wall_seconds = report.wall_seconds;
  arm.secret_bits_per_s = report.secret_bits_per_s;
  arm.pool = report.pool;

  arm.drained.resize(n_links);
  for (std::size_t i = 0; i < n_links; ++i) {
    auto& store = orchestrator.key_store(i);
    std::uint64_t drained_bits = 0;
    std::set<std::uint64_t> ids;
    while (auto key = store.get_key("scale-drain")) {
      drained_bits += key->bits.size();
      if (!ids.insert(key->key_id).second) arm.conservation_ok = false;
      const auto bytes = key->bits.to_bytes();
      arm.drained[i].insert(arm.drained[i].end(), bytes.begin(), bytes.end());
    }
    // Zero lost bits: everything deposited is drained, nothing was
    // rejected, and the link report agrees with the store ledger.
    if (drained_bits != store.total_deposited_bits() ||
        drained_bits != store.total_consumed_bits() ||
        drained_bits != report.links[i].secret_bits ||
        store.rejected_keys() != 0 || store.bits_available() != 0 ||
        store.keys_available() != 0) {
      arm.conservation_ok = false;
    }
  }
  return arm;
}

void print_pool_json(const ThreadPool::Stats& pool) {
  std::printf("{\"threads\":%zu,\"queue_depth\":%zu,\"busy_workers\":%zu,"
              "\"submitted\":%llu,\"executed\":%llu,\"stolen\":%llu}",
              pool.threads, pool.queue_depth, pool.busy_workers,
              static_cast<unsigned long long>(pool.submitted),
              static_cast<unsigned long long>(pool.executed),
              static_cast<unsigned long long>(pool.stolen));
}

}  // namespace

int main() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t sweep[] = {1, 2, 8, 32, 128};

  std::printf("orchestrator_scale: 1 -> 128 links, ~12k sifted bits/block, "
              "2 blocks each, %zu hardware threads\n\n", hw);

  std::vector<ArmResult> arms;
  bool conservation_ok = true;
  double rate8 = 0.0;
  double rate128 = 0.0;
  std::uint64_t secret_bits_total = 0;
  for (const std::size_t n : sweep) {
    ArmResult arm = run_arm(n);
    conservation_ok = conservation_ok && arm.conservation_ok;
    if (n == 8) rate8 = arm.secret_bits_per_s;
    if (n == 128) rate128 = arm.secret_bits_per_s;
    secret_bits_total += arm.secret_bits;
    std::printf("%4zu links | %3zu workers | %9llu bits | %7.2f s | "
                "%10.0f bits/s | stolen %llu\n",
                arm.links, arm.workers,
                static_cast<unsigned long long>(arm.secret_bits),
                arm.wall_seconds, arm.secret_bits_per_s,
                static_cast<unsigned long long>(arm.pool.stolen));
    arms.push_back(std::move(arm));
  }

  // Determinism: rerun the 8-link arm with the same seeds; every link's
  // drained key material must be byte-identical.
  ArmResult rerun = run_arm(8);
  conservation_ok = conservation_ok && rerun.conservation_ok;
  bool determinism_ok = true;
  for (const ArmResult& arm : arms) {
    if (arm.links != 8) continue;
    determinism_ok = arm.drained == rerun.drained &&
                     arm.secret_bits == rerun.secret_bits;
  }

  const double ideal_ratio =
      static_cast<double>(std::min<std::size_t>(128, hw)) /
      static_cast<double>(std::min<std::size_t>(8, hw));
  const double gate_min_ratio = 0.8 * std::min(8.0, ideal_ratio);
  const double ratio = rate8 > 0 ? rate128 / rate8 : 0.0;
  const bool scale_gate_ok = ratio >= gate_min_ratio;

  std::printf("\n128/8 rate ratio %.2f (ideal %.2f on %zu threads, gate >= "
              "%.2f): %s\nconservation (zero lost/duplicate bits): %s\n"
              "same-seed byte-identity: %s\n",
              ratio, ideal_ratio, hw, gate_min_ratio,
              scale_gate_ok ? "PASS" : "FAIL",
              conservation_ok ? "PASS" : "FAIL",
              determinism_ok ? "PASS" : "FAIL");

  std::printf("{\"bench\":\"orchestrator_scale\",\"unit\":"
              "\"secret_bits_per_s\",\"hw_threads\":%zu,\"rows\":[", hw);
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& arm = arms[i];
    std::printf("%s{\"links\":%zu,\"workers\":%zu,\"secret_bits\":%llu,"
                "\"blocks_ok\":%llu,\"blocks_aborted\":%llu,"
                "\"wall_seconds\":%.3f,\"secret_bits_per_s\":%.1f,"
                "\"pool\":",
                i ? "," : "", arm.links, arm.workers,
                static_cast<unsigned long long>(arm.secret_bits),
                static_cast<unsigned long long>(arm.blocks_ok),
                static_cast<unsigned long long>(arm.blocks_aborted),
                arm.wall_seconds, arm.secret_bits_per_s);
    print_pool_json(arm.pool);
    std::printf("}");
  }
  std::printf("],\"scale\":{\"rate_8\":%.1f,\"rate_128\":%.1f,"
              "\"ratio\":%.3f,\"ideal_ratio\":%.3f,\"gate_min_ratio\":%.3f,"
              "\"secret_bits_total\":%llu,\"scale_gate_ok\":%s,"
              "\"conservation_ok\":%s,\"determinism_ok\":%s}}\n",
              rate8, rate128, ratio, ideal_ratio, gate_min_ratio,
              static_cast<unsigned long long>(secret_bits_total),
              scale_gate_ok ? "true" : "false",
              conservation_ok ? "true" : "false",
              determinism_ok ? "true" : "false");

  return (scale_gate_ok && conservation_ok && determinism_ok) ? 0 : 1;
}
