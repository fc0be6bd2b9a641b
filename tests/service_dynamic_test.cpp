// Dynamic-scenario orchestrator tests: hot-removed devices never receive
// work under an adaptive policy (and visibly abort blocks under a static
// one), scheduled perturbations land at the right blocks through the whole
// service stack, a scenario run is bit-deterministic per seed, and
// adaptive re-planning distills at least as much key as a static placement
// on every shipped scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "service/link_orchestrator.hpp"
#include "sim/link_config.hpp"
#include "sim/scenario.hpp"

namespace qkdpp::service {
namespace {

/// Deterministic adaptive policy: periodic + QBER triggers only (the
/// throughput trigger consults wall-clock, which is irrelevant to key bits
/// but would make the replan *count* vary run to run).
ReplanPolicy deterministic_adaptive() {
  ReplanPolicy policy;
  policy.period_blocks = 6;
  policy.qber_delta = 0.015;
  policy.throughput_drop = 0.0;
  policy.window = 4;
  policy.adapt_reconciler = true;
  return policy;
}

OrchestratorConfig one_link(const sim::ScenarioConfig& scenario,
                            std::uint64_t seed = 9) {
  OrchestratorConfig config;
  config.store.capacity_bits = 1 << 22;
  config.device_events = scenario.device_events;
  LinkSpec spec;
  spec.name = scenario.name;
  spec.link.channel.length_km = 15.0;
  spec.pulses_per_block = std::size_t{1} << 19;
  spec.blocks = scenario.blocks;
  spec.rng_seed = seed;
  spec.schedule = scenario.schedule;
  config.links.push_back(std::move(spec));
  return config;
}

TEST(DynamicOrchestrator, HotRemovedDeviceNeverReceivesWorkWhenAdaptive) {
  // Device 2 (gpu-sim) is pulled before the first block and never returns:
  // the roster-change replan must route around it, so it ends the run with
  // zero kernel launches and no block is lost to it.
  sim::ScenarioConfig scenario;
  scenario.name = "remove-at-start";
  scenario.blocks = 3;
  sim::DeviceEvent event;
  event.device_index = 2;
  event.offline_at_block = 0;
  event.online_at_block = 0;  // permanent
  scenario.device_events.push_back(event);

  OrchestratorConfig config = one_link(scenario);
  config.replan = deterministic_adaptive();
  LinkOrchestrator orchestrator(std::move(config));
  const auto report = orchestrator.run();

  EXPECT_EQ(orchestrator.device_set().device(2).kernels_launched(), 0u);
  EXPECT_EQ(report.links[0].offline_aborts, 0u);
  EXPECT_GT(report.links[0].replans, 0u);
  EXPECT_GT(report.blocks_ok, 0u);
}

TEST(DynamicOrchestrator, StaticPlacementLosesBlocksToHotRemove) {
  // Same fault, no adaptation: the construction-time placement keeps
  // pointing blocks at the dead device, and they abort.
  sim::ScenarioConfig scenario;
  scenario.name = "remove-at-start";
  scenario.blocks = 3;
  sim::DeviceEvent event;
  event.device_index = 2;
  event.offline_at_block = 0;
  event.online_at_block = 0;
  scenario.device_events.push_back(event);

  OrchestratorConfig config = one_link(scenario);
  config.replan = ReplanPolicy::static_placement();
  LinkOrchestrator orchestrator(std::move(config));

  // Precondition for the assertion below: the static placement actually
  // uses the device being removed.
  bool uses_gpu = false;
  const auto placement = orchestrator.link_engine(0).placement();
  for (std::size_t s = 0; s < placement.device_of_stage.size(); ++s) {
    uses_gpu |= placement.device_of(s) == "gpu-sim";
  }
  ASSERT_TRUE(uses_gpu);

  const auto report = orchestrator.run();
  EXPECT_EQ(report.links[0].offline_aborts, scenario.blocks);
  EXPECT_EQ(report.links[0].replans, 0u);
  EXPECT_EQ(report.blocks_ok, 0u);
}

TEST(DynamicOrchestrator, ReplanChangesPlacementWhenRosterShrinks) {
  // Hot-remove mid-run: the adaptive link replans onto surviving devices
  // (final placement avoids the dead one) instead of aborting blocks.
  sim::ScenarioConfig scenario;
  scenario.name = "remove-mid-run";
  scenario.blocks = 4;
  sim::DeviceEvent event;
  event.device_index = 2;
  event.offline_at_block = 2;
  event.online_at_block = 0;  // stays gone
  scenario.device_events.push_back(event);

  OrchestratorConfig config = one_link(scenario);
  config.replan = deterministic_adaptive();
  LinkOrchestrator orchestrator(std::move(config));
  const auto report = orchestrator.run();

  for (const auto& device : report.links[0].stage_devices) {
    EXPECT_NE(device, "gpu-sim");
  }
  EXPECT_GT(report.links[0].replans, 0u);
  EXPECT_EQ(report.links[0].offline_aborts, 0u);  // single link: no races
  EXPECT_GT(report.blocks_ok, 0u);
}

TEST(DynamicOrchestrator, QberBurstRaisesWindowedEstimateAndAdapts) {
  // The burst blocks must show up in the windowed QBER the service reports
  // (scheduling reached the right blocks through sim -> engine -> window).
  sim::ScenarioConfig burst = sim::qber_burst_scenario(9);
  // Park the burst at the tail so the final window still holds it, and
  // soften it to +1.5 points so the burst blocks stay below the
  // privacy-amplification wall (~4% at this block size) and actually
  // distill key: the burst should be *survivable*, not merely observed
  // through its aborts.
  burst.schedule.perturbations[0].begin_block = 5;
  burst.schedule.perturbations[0].end_block = 9;
  burst.schedule.perturbations[0].magnitude = 0.015;

  OrchestratorConfig config = one_link(burst);
  config.replan = deterministic_adaptive();
  LinkOrchestrator orchestrator(std::move(config));
  const auto report = orchestrator.run();
  // Base QBER is ~1.3-1.7%; the burst adds 1.5 points, so the final
  // window (all burst blocks) sits near 2.8%.
  EXPECT_GT(report.links[0].windowed_qber, 0.02);
  EXPECT_GT(report.links[0].replans, 0u);

  // Without the burst the windowed estimate stays quiet.
  OrchestratorConfig calm_config = one_link(sim::ScenarioConfig{
      .name = "calm", .blocks = 9, .schedule = {}, .device_events = {}});
  calm_config.replan = deterministic_adaptive();
  LinkOrchestrator calm(std::move(calm_config));
  EXPECT_LT(calm.run().links[0].windowed_qber, 0.03);
}

std::vector<BitVec> drain(pipeline::KeyStore& store) {
  std::vector<BitVec> keys;
  while (auto key = store.get_key("determinism-test")) {
    keys.push_back(std::move(key->bits));
  }
  return keys;
}

TEST(DynamicOrchestrator, SameScenarioSeedProducesIdenticalSecretKeys) {
  // Channel-perturbation scenario (no device events: those are applied
  // asynchronously to in-flight blocks, like pulling real hardware), run
  // twice from scratch: every distilled key must match bit for bit, even
  // though adaptation switched reconcilers mid-run.
  const sim::ScenarioConfig scenario = sim::qber_burst_scenario(8);

  auto run_once = [&] {
    OrchestratorConfig config = one_link(scenario, /*seed=*/31);
    config.replan = deterministic_adaptive();
    LinkOrchestrator orchestrator(std::move(config));
    const auto report = orchestrator.run();
    return std::make_pair(report.links[0].secret_bits,
                          drain(orchestrator.key_store(0)));
  };

  const auto [bits_a, keys_a] = run_once();
  const auto [bits_b, keys_b] = run_once();
  EXPECT_EQ(bits_a, bits_b);
  ASSERT_EQ(keys_a.size(), keys_b.size());
  ASSERT_GT(keys_a.size(), 0u);
  for (std::size_t k = 0; k < keys_a.size(); ++k) {
    ASSERT_EQ(keys_a[k].size(), keys_b[k].size()) << "key " << k;
    for (std::size_t i = 0; i < keys_a[k].size(); ++i) {
      ASSERT_EQ(keys_a[k].get(i), keys_b[k].get(i))
          << "key " << k << " bit " << i;
    }
  }
}

/// Secret bits one 25 km link distills over `scenario` (~30k sifted bits
/// a block, seed 42 in both arms, so the physics stream is identical).
std::uint64_t scenario_secret_bits(const sim::ScenarioConfig& scenario,
                                   const ReplanPolicy& policy) {
  OrchestratorConfig config;
  config.store.capacity_bits = 1 << 22;
  config.replan = policy;
  config.device_events = scenario.device_events;
  LinkSpec spec;
  spec.name = scenario.name;
  spec.link.channel.length_km = 25.0;
  spec.pulses_per_block = sim::pulses_for_sifted_target(
      spec.link, 30000.0, std::size_t{1} << 19, std::size_t{1} << 22);
  spec.blocks = scenario.blocks;
  spec.rng_seed = 42;
  spec.schedule = scenario.schedule;
  config.links.push_back(std::move(spec));
  LinkOrchestrator orchestrator(std::move(config));
  return orchestrator.run().links.at(0).secret_bits;
}

/// Adaptive >= static secret bits on every shipped scenario. Hot-remove is
/// where re-planning is the whole story (the static placement loses every
/// block on the dead device), so it must gain >= 10%. Qber-burst keeps a
/// smaller bar: blind reconciliation rescues stale-rate frames with extra
/// reveal rounds even on the static arm, so re-planning's edge there is
/// leak, not block survival. `blocks` = 0 runs the shipped lengths.
void expect_adaptive_beats_static(std::uint64_t blocks) {
  for (const auto& scenario : sim::shipped_scenarios(blocks)) {
    const std::uint64_t fixed =
        scenario_secret_bits(scenario, ReplanPolicy::static_placement());
    const std::uint64_t adaptive =
        scenario_secret_bits(scenario, ReplanPolicy::adaptive());
    EXPECT_GE(adaptive, fixed) << scenario.name;
    const double min_gain = scenario.name == "device-hot-remove" ? 1.10
                            : scenario.name == "qber-burst"      ? 1.05
                                                                 : 0.0;
    if (min_gain > 0.0) {
      EXPECT_GT(adaptive, 0u) << scenario.name;  // even if static got none
      EXPECT_GE(static_cast<double>(adaptive),
                min_gain * static_cast<double>(fixed))
          << scenario.name << ": " << adaptive << " vs " << fixed << " bits";
    }
  }
}

TEST(ScenarioGate, AdaptiveBeatsStaticOnShortTimelines) {
  expect_adaptive_beats_static(10);
}

// The shipped timelines (18-24 blocks) take about twice as long; the
// nightly job runs this with --gtest_also_run_disabled_tests.
TEST(ScenarioGate, DISABLED_AdaptiveBeatsStaticOnShippedTimelines) {
  expect_adaptive_beats_static(0);
}

}  // namespace
}  // namespace qkdpp::service
