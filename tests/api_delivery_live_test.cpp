// Live ETSI delivery: SAE consumer threads drive the JSON Dispatcher while
// the orchestrator is still distilling, so draws race deposits as they do
// in a deployment. One consumer harness serves three topologies:
//
//   * three direct links with two SAE pairs each;
//   * a 6-node trusted-node relay network (line + chords), clean and then
//     with its middle line span dark from block 1;
//   * session-transport links under steady loss, a loss burst and a
//     permanent outage that opens the dark link's circuit breaker, swept
//     over five seeds.
//
// Every case checks zero duplicate key UUIDs, slave fetches bit-identical
// to the master's keys, collected == delivered > 0, and exact conservation
// of key bits between the stores, the relay and the SAE pairs.
#include "api/dispatcher.hpp"
#include "api/key_delivery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "network/delivery.hpp"
#include "network/topology.hpp"
#include "service/link_orchestrator.hpp"
#include "sim/scenario.hpp"

namespace qkdpp::api {
namespace {

constexpr std::uint64_t kKeysPerRequest = 8;

struct PairPlan {
  std::string master;
  std::string slave;
  std::string link;  ///< backing orchestrator link; empty for relayed pairs
};

/// What one pair's consumers saw. The master thread writes delivered_keys
/// and ids, the slave thread the other two fields.
struct PairOutcome {
  std::uint64_t delivered_keys = 0;
  std::vector<std::string> ids;
  std::uint64_t collected_keys = 0;
  std::uint64_t mismatched_keys = 0;
};

/// Master -> slave handoff: the master's copy of each delivered key, so the
/// slave can check that dec_keys returns the same material.
struct Handoff {
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<DeliveredKey> queue;
  bool master_done = false;
};

Response dispatch(Dispatcher& dispatcher, const Request& request) {
  return Response::from_json(
      Json::parse(dispatcher.dispatch(request.to_json().dump())));
}

/// enc_keys until `target_keys` keys arrived (0: no target), or until a 503
/// after distillation finished says the source is dry. A 503 while links
/// still distill is the starved-store contract: back off and retry.
void run_master(Dispatcher& dispatcher, const PairPlan& plan,
                std::uint64_t key_size, std::uint64_t target_keys,
                const std::atomic<bool>& distillation_done, Handoff& handoff,
                PairOutcome& outcome) {
  while (target_keys == 0 || outcome.delivered_keys < target_keys) {
    KeyRequest key_request;
    key_request.number =
        target_keys == 0
            ? kKeysPerRequest
            : std::min(kKeysPerRequest, target_keys - outcome.delivered_keys);
    key_request.size = key_size;
    const Response response = dispatch(
        dispatcher, {"POST", "/api/v1/keys/" + plan.slave + "/enc_keys",
                     plan.master, key_request.to_json()});
    if (response.ok()) {
      auto container = KeyContainer::from_json(response.body);
      std::scoped_lock lock(handoff.mutex);
      for (auto& key : container.keys) {
        ++outcome.delivered_keys;
        outcome.ids.push_back(key.key_id);
        handoff.queue.push_back(std::move(key));
      }
      handoff.ready.notify_one();
      continue;
    }
    if (response.status != kStatusUnavailable) {
      ADD_FAILURE() << plan.master << ": unexpected status "
                    << response.status;
      break;
    }
    if (distillation_done.load(std::memory_order_acquire)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::scoped_lock lock(handoff.mutex);
  handoff.master_done = true;
  handoff.ready.notify_one();
}

/// dec_keys for every key the master handed over, in batches.
void run_slave(Dispatcher& dispatcher, const PairPlan& plan, Handoff& handoff,
               PairOutcome& outcome) {
  while (true) {
    std::vector<DeliveredKey> batch;
    {
      std::unique_lock lock(handoff.mutex);
      handoff.ready.wait(lock, [&] {
        return !handoff.queue.empty() || handoff.master_done;
      });
      while (!handoff.queue.empty() && batch.size() < kKeysPerRequest) {
        batch.push_back(std::move(handoff.queue.front()));
        handoff.queue.pop_front();
      }
      if (batch.empty()) return;  // master done, queue drained
    }
    KeyIdsRequest ids_request;
    for (const auto& key : batch) ids_request.key_ids.push_back(key.key_id);
    const Response response = dispatch(
        dispatcher, {"POST", "/api/v1/keys/" + plan.master + "/dec_keys",
                     plan.slave, ids_request.to_json()});
    if (!response.ok()) {
      outcome.mismatched_keys += batch.size();
      continue;
    }
    const auto container = KeyContainer::from_json(response.body);
    for (std::size_t i = 0; i < container.keys.size(); ++i) {
      ++outcome.collected_keys;
      if (container.keys[i] != batch[i]) ++outcome.mismatched_keys;
    }
  }
}

struct LiveRun {
  service::OrchestratorReport report;
  std::vector<PairOutcome> pairs;  ///< one per plan, in plan order
};

/// Run the orchestrator and one master + one slave thread per pair
/// concurrently; return once distillation ended and every consumer is done.
LiveRun deliver_live(service::LinkOrchestrator& orchestrator,
                     Dispatcher& dispatcher, const std::vector<PairPlan>& plans,
                     std::uint64_t key_size, std::uint64_t target_keys = 0) {
  std::atomic<bool> distillation_done{false};
  std::deque<Handoff> handoffs(plans.size());
  LiveRun run;
  run.pairs.resize(plans.size());

  auto distillation = std::async(std::launch::async, [&] {
    // Set on every exit, so a throwing run() cannot strand the masters.
    struct Done {
      std::atomic<bool>& flag;
      ~Done() { flag.store(true, std::memory_order_release); }
    } done{distillation_done};
    return orchestrator.run();
  });
  std::vector<std::thread> consumers;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    consumers.emplace_back([&, i] {
      run_master(dispatcher, plans[i], key_size, target_keys,
                 distillation_done, handoffs[i], run.pairs[i]);
    });
    consumers.emplace_back([&, i] {
      run_slave(dispatcher, plans[i], handoffs[i], run.pairs[i]);
    });
  }
  // Join before get(): a throwing run() still sets the flag, so the
  // consumers end and get() rethrows with no thread left joinable.
  for (auto& thread : consumers) thread.join();
  run.report = distillation.get();
  return run;
}

/// Zero duplicate UUIDs (across every run sharing `seen`), zero master/slave
/// mismatches, and collected == delivered > 0. Returns the delivered keys.
std::uint64_t expect_exact_handover(const LiveRun& run,
                                    std::set<std::string>& seen) {
  std::uint64_t delivered = 0;
  std::uint64_t collected = 0;
  for (const PairOutcome& pair : run.pairs) {
    delivered += pair.delivered_keys;
    collected += pair.collected_keys;
    EXPECT_EQ(pair.mismatched_keys, 0u);
    for (const std::string& id : pair.ids) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate key_ID " << id;
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(collected, delivered);
  return delivered;
}

/// Per link: delivered + buffered in the pairs' residuals + left in the
/// store == deposited. A deficit is lost key, a surplus duplicated key.
void expect_link_conservation(service::LinkOrchestrator& orchestrator,
                              const KeyDeliveryService& service,
                              const std::vector<PairPlan>& plans) {
  for (std::size_t l = 0; l < orchestrator.link_count(); ++l) {
    const auto& store = orchestrator.key_store(l);
    const std::string& link_name = orchestrator.link_spec(l).name;
    std::uint64_t accounted = store.bits_available();
    for (const PairPlan& plan : plans) {
      if (plan.link != link_name) continue;
      const auto stats = service.pair_stats(plan.master, plan.slave);
      ASSERT_TRUE(stats.has_value()) << plan.master;
      accounted += stats->delivered_bits + stats->buffered_bits;
    }
    EXPECT_EQ(accounted, store.total_deposited_bits()) << link_name;
  }
}

TEST(LiveDelivery, DirectLinksConserveEveryBit) {
  // 3 links x 2 SAE pairs: 12 consumer threads against a live fleet.
  constexpr std::uint64_t kKeySize = 256;
  service::OrchestratorConfig config;
  config.store.capacity_bits = 1 << 22;
  const struct {
    const char* name;
    double km;
  } spans[] = {{"metro", 5.0}, {"regional", 25.0}, {"backbone", 50.0}};
  std::uint64_t seed = 29;
  for (const auto& span : spans) {
    service::LinkSpec spec;
    spec.name = span.name;
    spec.link.channel.length_km = span.km;
    spec.pulses_per_block = sim::pulses_for_sifted_target(
        spec.link, 30000.0, std::size_t{1} << 19, std::size_t{1} << 23);
    spec.blocks = 3;
    spec.rng_seed = seed++;
    config.links.push_back(std::move(spec));
  }
  service::LinkOrchestrator orchestrator(std::move(config));
  KeyDeliveryService service(orchestrator);
  std::vector<PairPlan> plans;
  for (const auto& span : spans) {
    for (int p = 0; p < 2; ++p) {
      const std::string prefix = std::string("sae-") + span.name + "-";
      const std::string index = std::to_string(p);
      plans.push_back({prefix + "m" + index, prefix + "s" + index, span.name});
      service.register_pair({plans.back().master, plans.back().slave,
                             span.name, kKeySize, kKeysPerRequest, 4096, 64});
    }
  }
  Dispatcher dispatcher(service);

  const LiveRun run = deliver_live(orchestrator, dispatcher, plans, kKeySize);
  std::set<std::string> seen;
  expect_exact_handover(run, seen);
  expect_link_conservation(orchestrator, service, plans);
}

// --- relay network ---------------------------------------------------------

struct Span {
  const char* name;
  const char* node_a;
  const char* node_b;
  double km;
};

//   n0 --- n1 --- n2 --- n3 --- n4 --- n5     line: L01 L12 L23 L34 L45
//    \______/ \______/ \______/ \______/      chords: C02 C13 C24 C35
constexpr Span kSpans[] = {
    {"L01", "n0", "n1", 5.0},  {"L12", "n1", "n2", 6.0},
    {"L23", "n2", "n3", 7.0},  {"L34", "n3", "n4", 6.5},
    {"L45", "n4", "n5", 5.5},  {"C02", "n0", "n2", 9.0},
    {"C13", "n1", "n3", 9.5},  {"C24", "n2", "n4", 10.0},
    {"C35", "n3", "n5", 9.25},
};
constexpr std::uint64_t kRelayKeySize = 128;
constexpr std::uint64_t kRelayBlocks = 3;
// Fixed per-pair demand, sized to fit the n2|n3 cut even with L23 dark:
// every pair crosses that cut, which banks ~41k bits in the outage run
// (C13 + C24 + one block of L23).
constexpr std::uint64_t kRelayKeysPerPair = 64;
constexpr std::uint64_t kRelayPairs = 4;
constexpr std::uint64_t kRelayDemandBits =
    kRelayPairs * kRelayKeysPerPair * kRelayKeySize;  // 32,768

/// One phase: 9 links distill live while 4 non-adjacent pairs pull their
/// fixed demand. Checks the handover and the relay's conservation at pair
/// and edge level; returns the bits delivered to the masters.
std::uint64_t relay_phase(bool l23_outage, std::uint64_t uuid_seed,
                          std::set<std::string>& seen) {
  service::OrchestratorConfig config;
  config.store.capacity_bits = 1 << 22;
  std::uint64_t seed = 41;
  for (const Span& span : kSpans) {
    service::LinkSpec spec;
    spec.name = span.name;
    spec.link.channel.length_km = span.km;
    spec.pulses_per_block = sim::pulses_for_sifted_target(
        spec.link, 30000.0, std::size_t{1} << 19, std::size_t{1} << 23);
    spec.blocks = kRelayBlocks;
    spec.rng_seed = seed++;
    config.links.push_back(std::move(spec));
  }
  if (l23_outage) {
    // The middle line span dies after its first block and never recovers:
    // cross-network demand must fail over to the C13/C24 chords.
    sim::Perturbation outage;
    outage.kind = sim::PerturbationKind::kLinkOutage;
    outage.begin_block = 1;
    outage.end_block = kRelayBlocks;
    config.links[2].schedule.perturbations.push_back(outage);
  }
  service::LinkOrchestrator orchestrator(std::move(config));

  network::Topology topology(orchestrator);
  for (const char* node : {"n0", "n1", "n2", "n3", "n4", "n5"}) {
    topology.add_node(node);
  }
  for (const Span& span : kSpans) {
    topology.add_edge(span.node_a, span.node_b, span.name);
  }
  KeyDeliveryConfig service_config;
  service_config.uuid_seed = uuid_seed;  // one KME identity per phase
  KeyDeliveryService service(orchestrator, service_config);
  network::NetworkDelivery delivery(topology, service);

  const std::vector<PairPlan> plans = {{"sae-m0", "sae-s0", ""},
                                       {"sae-m1", "sae-s1", ""},
                                       {"sae-m2", "sae-s2", ""},
                                       {"sae-m3", "sae-s3", ""}};
  const std::pair<const char*, const char*> routes[] = {
      {"n0", "n5"}, {"n0", "n3"}, {"n1", "n4"}, {"n2", "n5"}};
  for (std::size_t i = 0; i < plans.size(); ++i) {
    SaePair pair;
    pair.master_sae_id = plans[i].master;
    pair.slave_sae_id = plans[i].slave;
    pair.default_key_size = kRelayKeySize;
    pair.max_key_per_request = kKeysPerRequest;
    network::RelaySourceConfig source_config;
    source_config.chunk_bits = 1024;
    delivery.register_pair(pair, routes[i].first, routes[i].second,
                           source_config);
  }
  Dispatcher dispatcher(service);

  const LiveRun run = deliver_live(orchestrator, dispatcher, plans,
                                   kRelayKeySize, kRelayKeysPerPair);
  const std::uint64_t delivered_keys = expect_exact_handover(run, seen);

  // Pair level: everything the relay produced for a pair was delivered or
  // waits in the pair's residual buffer.
  std::uint64_t relayed_total = 0;
  for (const PairPlan& plan : plans) {
    const auto relayed = delivery.source(plan.master, plan.slave)->stats();
    relayed_total += relayed.relayed_bits;
    const auto stats = *service.pair_stats(plan.master, plan.slave);
    EXPECT_EQ(stats.delivered_bits + stats.buffered_bits, relayed.relayed_bits)
        << plan.master;
  }
  // Edge level: everything the relay drew from a span's store sits inside a
  // delivered end-to-end key or in that span's tap buffer.
  for (std::size_t e = 0; e < topology.edge_count(); ++e) {
    const auto& store = orchestrator.key_store(topology.edge(e).link);
    EXPECT_EQ(store.consumed_by(delivery.relay().consumer_name(e)),
              delivery.relay().consumed_bits(e) +
                  delivery.relay().buffered_bits(e))
        << topology.edge(e).link_name;
  }
  EXPECT_EQ(delivery.relay().delivered_bits(), relayed_total);
  return delivered_keys * kRelayKeySize;
}

TEST(LiveDelivery, RelayNetworkReroutesAroundMiddleSpanOutage) {
  std::set<std::string> seen;  // UUIDs must stay unique across both phases
  const std::uint64_t clean = relay_phase(false, 0x6e01, seen);
  const std::uint64_t outage = relay_phase(true, 0x6e02, seen);
  EXPECT_EQ(clean, kRelayDemandBits);
  // Availability (delivered / demanded bits) under the outage must stay
  // within 10% of the clean run's: delivery completes via re-route.
  EXPECT_GE(static_cast<double>(outage), 0.9 * static_cast<double>(clean));
}

// --- delivery under channel faults ----------------------------------------

constexpr std::uint64_t kForever = std::uint64_t{1} << 32;

class ChaosDelivery : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosDelivery, BreakerOpensAndDeliveryStaysExact) {
  // Three session-transport links: steady 5% drop + 1% corruption, a loss
  // burst over the middle third, and a link that goes dark from block 2 so
  // its breaker opens. All reconcile with Cascade, whose interactive
  // parity converges on every clean block at this size, so the dark link's
  // abort streak follows from the outage alone.
  constexpr std::uint64_t kKeySize = 256;
  const std::uint64_t seed_base = GetParam();
  service::OrchestratorConfig config;
  config.store.capacity_bits = 1 << 22;
  config.breaker = service::CircuitBreakerPolicy::standard();
  protocol::RetryPolicy fast;
  fast.base_timeout = std::chrono::milliseconds{2};
  fast.exchange_deadline = std::chrono::milliseconds{150};
  fast.close_linger = std::chrono::milliseconds{50};
  auto link = [&](const char* name, std::uint64_t blocks,
                  std::uint64_t seed) {
    service::LinkSpec spec;
    spec.name = name;
    spec.link.channel.length_km = 10.0;
    spec.pulses_per_block = std::size_t{1} << 18;
    spec.blocks = blocks;
    spec.rng_seed = seed;
    spec.params.method = protocol::ReconcileMethod::kCascade;
    spec.session_transport = true;
    spec.channel_retry = fast;
    return spec;
  };

  auto steady = link("steady", 5, seed_base + 60);
  sim::ChannelFaultPhase loss;
  loss.begin_block = 0;
  loss.end_block = kForever;
  loss.profile.drop = 0.05;
  loss.profile.corrupt = 0.01;
  steady.schedule.channel_faults.push_back(loss);
  config.links.push_back(std::move(steady));

  auto bursty = link("bursty", 8, seed_base + 61);
  bursty.schedule = sim::loss_burst_scenario(8).schedule;
  config.links.push_back(std::move(bursty));

  auto dark = link("dark", 10, seed_base + 62);
  sim::ChannelFaultPhase outage;
  outage.begin_block = 2;
  outage.end_block = kForever;
  outage.profile.drop = 1.0;
  dark.schedule.channel_faults.push_back(outage);
  config.links.push_back(std::move(dark));

  service::LinkOrchestrator orchestrator(std::move(config));
  KeyDeliveryService service(orchestrator);
  std::vector<PairPlan> plans;
  for (const char* name : {"steady", "bursty", "dark"}) {
    plans.push_back({std::string("sae-") + name + "-m",
                     std::string("sae-") + name + "-s", name});
    service.register_pair({plans.back().master, plans.back().slave, name,
                           kKeySize, kKeysPerRequest, 4096, 64});
  }
  Dispatcher dispatcher(service);

  const LiveRun run = deliver_live(orchestrator, dispatcher, plans, kKeySize);
  std::set<std::string> seen;
  expect_exact_handover(run, seen);
  expect_link_conservation(orchestrator, service, plans);
  std::uint64_t breaker_opens = 0;
  for (const auto& link_report : run.report.links) {
    breaker_opens += link_report.breaker_opens;
    EXPECT_EQ(link_report.mismatched_keys, 0u) << link_report.name;
  }
  EXPECT_GE(breaker_opens, 1u);

  // The starved dark pair's 503 is actionable: it names the open breaker
  // and carries a Retry-After-style hint.
  KeyRequest drain;
  drain.number = kKeysPerRequest;
  drain.size = kKeySize;
  const auto starved = service.get_key("sae-dark-m", "sae-dark-s", drain);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.error.status, kStatusUnavailable);
  const auto& details = starved.error.details;
  EXPECT_NE(std::find(details.begin(), details.end(), "link_breaker=open"),
            details.end());
  EXPECT_TRUE(std::any_of(details.begin(), details.end(), [](const auto& d) {
    return d.rfind("retry_after_ms=", 0) == 0;
  }));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosDelivery,
                         ::testing::Values(301, 977, 1409, 5821, 90210));

}  // namespace
}  // namespace qkdpp::api
