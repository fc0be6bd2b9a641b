// LinkOrchestrator + shared-device arbitration tests: many links over one
// device set deposit into bounded stores without deadlock; an 8-link fleet
// on the worker pool conserves every bit and reruns byte-identically; bad
// channel settings fail at construction and one link's error is rethrown
// only after every link finished; the mapper's base_load path steers
// placements away from loaded devices; engine construction over a shared
// set commits its load to the ledger.
#include "service/link_orchestrator.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "hetero/mapper.hpp"
#include "sim/link_config.hpp"

namespace qkdpp::service {
namespace {

OrchestratorConfig small_fleet(std::uint64_t blocks = 2) {
  OrchestratorConfig config;
  // Distinct distances, all short enough that a 2^19-pulse block clears
  // one LDPC frame (longer spans are the examples' business).
  const double distances[] = {5.0, 10.0, 15.0, 25.0};
  std::uint64_t seed = 1;
  for (const double km : distances) {
    LinkSpec spec;
    spec.name = "link-" + std::to_string(static_cast<int>(km));
    spec.link.channel.length_km = km;
    spec.pulses_per_block = std::size_t{1} << 19;
    spec.blocks = blocks;
    spec.rng_seed = seed++;
    config.links.push_back(std::move(spec));
  }
  return config;
}

TEST(LinkOrchestrator, FourLinksDistillConcurrentlyIntoBoundedStores) {
  OrchestratorConfig config = small_fleet();
  config.store.capacity_bits = 1 << 20;
  LinkOrchestrator orchestrator(std::move(config));
  ASSERT_EQ(orchestrator.link_count(), 4u);

  const auto report = orchestrator.run();
  ASSERT_EQ(report.links.size(), 4u);
  EXPECT_GT(report.blocks_ok, 0u);
  EXPECT_GT(report.secret_bits, 0u);
  EXPECT_GT(report.secret_bits_per_s, 0.0);

  std::uint64_t sum_bits = 0, sum_ok = 0;
  for (std::size_t i = 0; i < report.links.size(); ++i) {
    const auto& link = report.links[i];
    sum_bits += link.secret_bits;
    sum_ok += link.blocks_ok;
    EXPECT_EQ(link.blocks_ok + link.blocks_aborted, 2u) << link.name;
    // Accepted deposits must be drawable from the link's store.
    EXPECT_EQ(orchestrator.key_store(i).bits_available(), link.secret_bits)
        << link.name;
    EXPECT_EQ(link.rejected_keys, 0u) << link.name;  // roomy bound
  }
  EXPECT_EQ(report.secret_bits, sum_bits);
  EXPECT_EQ(report.blocks_ok, sum_ok);
}

TEST(LinkOrchestrator, ShorterLinksYieldMoreSecretBits) {
  // Sanity on the physics across the fleet: per-block secret yield decays
  // with distance (same pulses per block).
  LinkOrchestrator orchestrator(small_fleet());
  const auto report = orchestrator.run();
  ASSERT_EQ(report.links.size(), 4u);
  ASSERT_GT(report.links[0].blocks_ok, 0u);
  EXPECT_GT(report.links[0].secret_bits, report.links[3].secret_bits);
}

TEST(LinkOrchestrator, TightBoundRejectsOverflowWithoutDeadlock) {
  OrchestratorConfig config = small_fleet(3);
  config.store.capacity_bits = 2048;  // far below one block's secret yield
  LinkOrchestrator orchestrator(std::move(config));
  const auto report = orchestrator.run();

  bool any_rejected = false;
  for (std::size_t i = 0; i < report.links.size(); ++i) {
    const auto& link = report.links[i];
    any_rejected |= link.rejected_keys > 0;
    EXPECT_LE(orchestrator.key_store(i).bits_available(), 2048u) << link.name;
  }
  // The metro links certainly distill more than 2048 bits per block.
  EXPECT_TRUE(any_rejected);
}

TEST(LinkOrchestrator, RunIsRepeatableAndAccumulatesStores) {
  OrchestratorConfig config = small_fleet(1);
  config.links.resize(2);
  LinkOrchestrator orchestrator(std::move(config));
  const auto first = orchestrator.run();
  const std::uint64_t after_first = orchestrator.key_store(0).bits_available();
  const auto second = orchestrator.run();
  EXPECT_EQ(orchestrator.key_store(0).bits_available(),
            after_first + second.links[0].secret_bits);
  EXPECT_EQ(first.links[0].blocks_ok + first.links[0].blocks_aborted, 1u);
  EXPECT_EQ(second.links[0].blocks_ok + second.links[0].blocks_aborted, 1u);
}

TEST(LinkOrchestrator, EmptyLinkListRejected) {
  EXPECT_THROW(LinkOrchestrator{OrchestratorConfig{}}, Error);
}

/// Expects `config` to be refused at construction with Error{kConfig}.
void expect_config_error(OrchestratorConfig config) {
  try {
    LinkOrchestrator orchestrator(std::move(config));
    ADD_FAILURE() << "expected Error{kConfig} from the constructor";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig) << e.what();
  }
}

TEST(LinkOrchestrator, ChannelSettingsValidatedAtConstruction) {
  // The session transport builds its channels inside run(); a bad rate or
  // retry posture must fail here, not in the middle of a fleet run.
  OrchestratorConfig standing = small_fleet(1);
  standing.links[1].channel_faults.drop = 2.0;
  expect_config_error(std::move(standing));

  OrchestratorConfig phase = small_fleet(1);
  sim::ChannelFaultPhase burst;
  burst.begin_block = 0;
  burst.end_block = 1;
  burst.profile.drop = 2.0;
  phase.links[1].schedule.channel_faults.push_back(burst);
  expect_config_error(std::move(phase));

  OrchestratorConfig retry = small_fleet(1);
  retry.links[1].channel_retry.exchange_deadline =
      std::chrono::milliseconds{0};
  expect_config_error(std::move(retry));
}

TEST(LinkOrchestrator, LinkErrorRethrownAfterEveryLinkFinishes) {
  // Taking both host devices offline at block 1 leaves sift with nowhere to
  // run, so each link's roster replan throws Error{kConfig}. The short link
  // gets there while the long one is still inside its first block; run()
  // must let the long link finish writing its report before rethrowing.
  OrchestratorConfig config;
  config.workers = 2;
  config.replan = ReplanPolicy::adaptive();
  const struct {
    double km;
    std::size_t pulses;
  } links[] = {{5.0, std::size_t{1} << 14}, {10.0, std::size_t{1} << 22}};
  for (const auto& link : links) {
    LinkSpec spec;
    spec.name = "link-" + std::to_string(static_cast<int>(link.km));
    spec.link.channel.length_km = link.km;
    spec.pulses_per_block = link.pulses;
    spec.blocks = 2;
    config.links.push_back(std::move(spec));
  }
  for (const std::size_t device : {std::size_t{0}, std::size_t{1}}) {
    sim::DeviceEvent event;
    event.device_index = device;  // cpu-scalar, cpu-parallel
    event.offline_at_block = 1;
    config.device_events.push_back(event);
  }
  LinkOrchestrator orchestrator(std::move(config));
  try {
    (void)orchestrator.run();
    ADD_FAILURE() << "expected Error{kConfig} from run()";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig) << e.what();
  }
}

TEST(LinkOrchestrator, SharedSetAccumulatesCommittedLoads) {
  // Engines are built in link order against the shared ledger: every
  // engine's placement must add load, and the final ledger equals the sum
  // of the per-engine stage costs.
  LinkOrchestrator orchestrator(small_fleet());
  const auto& set = orchestrator.device_set();
  const auto committed = set.committed_loads();
  ASSERT_EQ(committed.size(), 4u);  // standard roster

  std::vector<double> expected(committed.size(), 0.0);
  for (std::size_t i = 0; i < orchestrator.link_count(); ++i) {
    const auto& engine = orchestrator.link_engine(i);
    const auto& problem = engine.mapping_problem();
    const auto& assignment = engine.placement().device_of_stage;
    for (std::size_t s = 0; s < assignment.size(); ++s) {
      expected[assignment[s]] += problem.seconds_per_item[s][assignment[s]];
    }
  }
  for (std::size_t d = 0; d < committed.size(); ++d) {
    EXPECT_NEAR(committed[d], expected[d], 1e-12) << "device " << d;
  }
  const double total =
      std::accumulate(committed.begin(), committed.end(), 0.0);
  EXPECT_GT(total, 0.0);
}

TEST(LinkOrchestrator, SharedDevicesAccountWorkFromAllLinks) {
  // After a run, the devices the placements chose have charged busy time
  // from *all* links through the same Device objects.
  LinkOrchestrator orchestrator(small_fleet(1));
  (void)orchestrator.run();
  const auto& set = orchestrator.device_set();
  std::uint64_t launches = 0;
  for (std::size_t d = 0; d < set.size(); ++d) {
    launches += set.device(d).kernels_launched();
  }
  // 4 links x 1 block x 5 stages (aborted blocks may run fewer stages).
  EXPECT_GE(launches, 4u * 3u);
  EXPECT_LE(launches, 4u * 5u);
}

/// Eight metro links with small blocks (~12k sifted bits), staggered over
/// 5-19 km: per-block work is tiny, so the worker pool's handoffs and the
/// stores carry the load.
OrchestratorConfig eight_small_links() {
  OrchestratorConfig config;
  config.store.capacity_bits = std::uint64_t{1} << 22;  // roomy: no rejects
  for (std::size_t i = 0; i < 8; ++i) {
    LinkSpec spec;
    spec.name = "link-" + std::to_string(i);
    spec.link.channel.length_km = 5.0 + static_cast<double>(i) * 2.0;
    spec.pulses_per_block = sim::pulses_for_sifted_target(
        spec.link, 12000.0, std::size_t{1} << 16, std::size_t{1} << 22);
    spec.blocks = 2;
    spec.rng_seed = 1000 + i;
    config.links.push_back(std::move(spec));
  }
  return config;
}

/// Run the fleet, drain every store, and check exact conservation per
/// link: drained == deposited == consumed == the report's secret bits,
/// unique key ids, nothing rejected, nothing left. Returns the drained key
/// bytes per link.
std::vector<std::vector<std::uint8_t>> run_and_drain(
    std::uint64_t* secret_bits) {
  LinkOrchestrator orchestrator(eight_small_links());
  const auto report = orchestrator.run();
  *secret_bits = report.secret_bits;
  std::vector<std::vector<std::uint8_t>> drained(orchestrator.link_count());
  for (std::size_t i = 0; i < orchestrator.link_count(); ++i) {
    auto& store = orchestrator.key_store(i);
    std::uint64_t drained_bits = 0;
    std::set<std::uint64_t> ids;
    while (auto key = store.get_key("conservation-drain")) {
      drained_bits += key->bits.size();
      EXPECT_TRUE(ids.insert(key->key_id).second) << "link " << i;
      const auto bytes = key->bits.to_bytes();
      drained[i].insert(drained[i].end(), bytes.begin(), bytes.end());
    }
    EXPECT_EQ(drained_bits, store.total_deposited_bits()) << "link " << i;
    EXPECT_EQ(drained_bits, store.total_consumed_bits()) << "link " << i;
    EXPECT_EQ(drained_bits, report.links[i].secret_bits) << "link " << i;
    EXPECT_EQ(store.rejected_keys(), 0u) << "link " << i;
    EXPECT_EQ(store.bits_available(), 0u) << "link " << i;
    EXPECT_EQ(store.keys_available(), 0u) << "link " << i;
  }
  return drained;
}

TEST(LinkOrchestrator, EightLinkFleetConservesBitsAndRerunsIdentically) {
  std::uint64_t bits_first = 0;
  std::uint64_t bits_second = 0;
  const auto first = run_and_drain(&bits_first);
  const auto second = run_and_drain(&bits_second);
  EXPECT_GT(bits_first, 0u);
  EXPECT_EQ(bits_first, bits_second);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_TRUE(first[i] == second[i]) << "link " << i << " diverged";
  }
}

// --- mapper arbitration unit tests -----------------------------------------

hetero::MappingProblem two_stage_two_device() {
  hetero::MappingProblem problem;
  problem.stage_names = {"a", "b"};
  problem.device_names = {"fast", "slow"};
  // Device 0 is better for both stages in isolation.
  problem.seconds_per_item = {{1.0, 3.0}, {1.0, 3.0}};
  return problem;
}

TEST(MapperArbitration, BaseLoadSteersAwayFromLoadedDevice) {
  const auto problem = two_stage_two_device();
  // Unloaded: both stages pack onto the fast device (load 2 < 3).
  const auto free = hetero::optimize_mapping(problem);
  EXPECT_EQ(free.device_of_stage, (std::vector<std::uint32_t>{0, 0}));

  // Another link already committed 2 s/item to the fast device: keeping
  // both stages there costs 4; splitting one onto the slow device costs
  // max(2+1, 3) = 3.
  const auto loaded = hetero::optimize_mapping(problem, {2.0, 0.0});
  EXPECT_NEAR(loaded.bottleneck_load_s, 3.0, 1e-12);
  const auto on_fast = static_cast<int>(loaded.device_of_stage[0] == 0) +
                       static_cast<int>(loaded.device_of_stage[1] == 0);
  EXPECT_EQ(on_fast, 1);
}

TEST(MapperArbitration, ReportedThroughputIncludesBaseLoad) {
  const auto problem = two_stage_two_device();
  const auto result = hetero::optimize_mapping(problem, {0.5, 0.5});
  EXPECT_NEAR(result.bottleneck_load_s, 2.5, 1e-12);  // both on fast: 0.5+2
  EXPECT_NEAR(result.throughput_items_per_s, 1.0 / 2.5, 1e-12);
}

TEST(MapperArbitration, EvaluateWithBaseLoadMatchesManualSum) {
  const auto problem = two_stage_two_device();
  const auto result =
      hetero::evaluate_mapping(problem, {0, 1}, {1.0, 0.25});
  // fast: 1.0 + 1.0 = 2.0; slow: 0.25 + 3.0 = 3.25.
  EXPECT_NEAR(result.bottleneck_load_s, 3.25, 1e-12);
  EXPECT_EQ(result.bottleneck_device, 1u);
}

TEST(MapperArbitration, BaseLoadShapeAndSignValidated) {
  const auto problem = two_stage_two_device();
  EXPECT_THROW(hetero::optimize_mapping(problem, {1.0}), Error);
  EXPECT_THROW(hetero::optimize_mapping(problem, {1.0, -0.5, 0.0}), Error);
}

TEST(MapperArbitration, SecondEngineOverSharedSetShiftsPlacement) {
  // Two identical engines over one shared set: the second is priced
  // against the first's committed load, so its bottleneck (including the
  // base) can only be >= the first's - and the shared ledger grows.
  auto set = std::make_shared<hetero::DeviceSet>();
  engine::PostprocessParams params;
  engine::EngineOptions options;
  options.shared_devices = set;

  engine::PostprocessEngine first(params, options);
  const auto after_first = set->committed_loads();
  engine::PostprocessEngine second(params, options);
  const auto after_second = set->committed_loads();

  EXPECT_GE(second.placement().bottleneck_load_s,
            first.placement().bottleneck_load_s - 1e-15);
  double first_total = 0.0, second_total = 0.0;
  for (std::size_t d = 0; d < after_first.size(); ++d) {
    first_total += after_first[d];
    second_total += after_second[d];
  }
  EXPECT_GT(first_total, 0.0);
  EXPECT_GT(second_total, first_total);
}

}  // namespace
}  // namespace qkdpp::service
