// Delivery workload: the ETSI GS QKD 014 request path through
// Dispatcher::dispatch on a 3-node line n0 - n1 - n2. Two adjacent SAE
// pairs draw from one link store each; a third pair, n0 -> n2, is relayed
// through n1 by the network layer's KeyRelay. One closed-loop client
// serves the three pairs in turn, enc_keys (8 x 256 bit) followed by
// dec_keys; one refill thread keeps the two stores topped up with seeded
// synthetic keys, so store writes run beside the reads (pre-filled stores
// alone would drain in well under a second). The links never distill:
// reconcile does nothing here.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatcher.hpp"
#include "api/key_delivery.hpp"
#include "network/delivery.hpp"
#include "network/topology.hpp"
#include "service/link_orchestrator.hpp"
#include "workloads.hpp"

namespace ladder {

namespace {

using namespace qkdpp;

constexpr std::uint64_t kKeysPerRequest = 8;
constexpr std::uint64_t kKeySizeBits = 256;
/// Synthetic deposit size: one distilled 10 km block's final key.
constexpr std::size_t kDepositBits = 14611;
constexpr std::uint64_t kStoreCapacityBits = std::uint64_t{1} << 22;
/// One timing window: ~7k requests at the reference host's speed.
constexpr std::int64_t kWindowNs = 100'000'000;

/// The span log and request id of the client's current request: the
/// KeySource decorator runs inside the service, on the client's thread.
thread_local SpanLog* t_log = nullptr;
thread_local std::uint64_t t_request = 0;

/// Bench-owned decorator around a pair's key source: counts every bit the
/// service drew (the conservation gate's ground truth) and, when tracing,
/// times each draw.
class TimedSource final : public api::KeySource {
 public:
  TimedSource(std::shared_ptr<api::KeySource> inner, SpanName span)
      : inner_(std::move(inner)), span_(span) {}

  std::uint64_t bits_available() const override {
    return inner_->bits_available();
  }
  std::uint64_t capacity_bits() const override {
    return inner_->capacity_bits();
  }
  std::optional<BitVec> draw(std::string_view consumer) override {
    ScopedSpan span(t_log, span_, t_request);
    auto bits = inner_->draw(consumer);
    if (bits) drawn_bits_ += bits->size();
    return bits;
  }
  void describe_exhaustion(std::vector<std::string>& details) const override {
    inner_->describe_exhaustion(details);
  }
  std::uint64_t retry_after_hint_ms() const override {
    return inner_->retry_after_hint_ms();
  }

  std::uint64_t drawn_bits() const { return drawn_bits_.load(); }

 private:
  std::shared_ptr<api::KeySource> inner_;
  SpanName span_;
  std::atomic<std::uint64_t> drawn_bits_{0};
};

struct PairPlan {
  std::string master;
  std::string slave;
  std::string enc_request;  ///< serialized once: every enc_keys is the same
  std::shared_ptr<TimedSource> source;
};

/// 128-bit key id folded to 64 bits for the duplicate check (two of a
/// run's few million ids collide by chance with odds near 1e-7).
std::uint64_t id_fingerprint(const std::string& uuid) {
  std::uint64_t halves[2] = {0, 0};
  int nibble = 0;
  for (const char c : uuid) {
    if (c == '-') continue;
    const std::uint64_t v = c <= '9' ? c - '0' : c - 'a' + 10;
    halves[nibble / 16] = halves[nibble / 16] << 4 | v;
    ++nibble;
  }
  Digest digest;
  digest.mix(halves[0]);
  digest.mix(halves[1]);
  return digest.value();
}

/// Request latencies kept per window: a uniform sample of 1024 (~a seventh
/// of a window's requests), so memory does not grow with the request rate.
constexpr std::size_t kWindowSamples = 1024;

/// Key ids the client records for the duplicate check: the first 2^20 (a
/// fixed 8 MB table, filled up front so memory does not depend on how fast
/// the run goes). Any systematic id reuse shows up well within them.
constexpr std::size_t kCheckedIds = std::size_t{1} << 20;

/// The closed-loop SAE client: serves the pairs in turn, one enc_keys then
/// the matching dec_keys per iteration, and checks every key it gets back.
class Client {
 public:
  Client(api::Dispatcher& dispatcher, std::vector<const PairPlan*> pairs,
         std::uint64_t seed)
      : ids(kCheckedIds, 0),
        dispatcher_(dispatcher),
        pairs_(std::move(pairs)),
        sampler_(seed) {}

  void iterate(SpanLog* log) {
    const PairPlan& pair = *pairs_[iterations_++ % pairs_.size()];
    const api::Response enc = request(pair.enc_request, log);
    if (!enc.ok()) return;
    const auto container = api::KeyContainer::from_json(enc.body);
    api::KeyIdsRequest key_ids;
    for (const auto& key : container.keys) {
      key_ids.key_ids.push_back(key.key_id);
      if (id_count < kCheckedIds) ids[id_count++] = id_fingerprint(key.key_id);
    }
    const std::uint64_t bits = kKeySizeBits * container.keys.size();
    delivered_bits += bits;
    window_bits_ += static_cast<double>(bits);
    const api::Request dec_request{"POST",
                                   "/api/v1/keys/" + pair.master + "/dec_keys",
                                   pair.slave, key_ids.to_json()};
    const api::Response dec = request(dec_request.to_json().dump(), log);
    if (!dec.ok()) return;
    const auto collected = api::KeyContainer::from_json(dec.body);
    if (collected != container) ++mismatched_batches;
  }

  /// Starts the measured phase: latencies and windows restart, key
  /// accounting keeps running.
  void start_phase() {
    untraced_ns_ = 0;
    untraced_requests_ = 0;
    windows = Windows();
    window_start_ = now_ns();
    window_bits_ = 0;
    window_ms_.clear();
    window_requests_ = 0;
  }

  /// Closes the current window once it spans kWindowNs.
  void close_window_if_due() {
    const std::int64_t now = now_ns();
    if (now - window_start_ < kWindowNs) return;
    windows.add(window_bits_, static_cast<double>(now - window_start_) * 1e-9,
                std::move(window_ms_));
    window_ms_ = {};
    window_requests_ = 0;
    window_start_ = now;
    window_bits_ = 0;
  }

  /// Mean latency of the phase's untraced requests.
  double untraced_mean_ms() const {
    return untraced_requests_ ? untraced_ns_ * 1e-6 / untraced_requests_ : 0;
  }

  Windows windows;
  std::vector<std::uint64_t> ids;
  std::size_t id_count = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t delivered_bits = 0;
  std::uint64_t mismatched_batches = 0;

 private:
  /// One ETSI request through the dispatcher. Untraced: the serialized
  /// dispatch() call. Traced: the same three public calls it makes - parse
  /// the envelope, route it, serialize the response - each in a span.
  api::Response request(const std::string& wire, SpanLog* log) {
    t_log = log;
    t_request = attempted;
    std::string response;
    const std::int64_t start = now_ns();
    if (log == nullptr) {
      response = dispatcher_.dispatch(std::string_view(wire));
    } else {
      ScopedSpan span(log, SpanName::kRequest, t_request);
      api::Request parsed;
      {
        ScopedSpan parse(log, SpanName::kParse, t_request);
        parsed = api::Request::from_json(api::Json::parse(wire));
      }
      api::Response routed;
      {
        ScopedSpan service(log, SpanName::kService, t_request);
        routed = dispatcher_.dispatch(parsed);
      }
      ScopedSpan serialize(log, SpanName::kSerialize, t_request);
      response = routed.to_json().dump();
    }
    if (log == nullptr) {
      const std::int64_t ns = now_ns() - start;
      untraced_ns_ += static_cast<double>(ns);
      ++untraced_requests_;
      // Reservoir sampling: every request of the window is equally likely
      // to be kept.
      const double ms = static_cast<double>(ns) * 1e-6;
      const std::uint64_t seen = window_requests_++;
      if (seen < kWindowSamples) {
        window_ms_.push_back(ms);
      } else if (const std::uint64_t slot = sampler_.next_u64() % (seen + 1);
                 slot < kWindowSamples) {
        window_ms_[slot] = ms;
      }
    }
    ++attempted;
    auto decoded = api::Response::from_json(api::Json::parse(response));
    if (!decoded.ok()) ++failed;
    return decoded;
  }

  api::Dispatcher& dispatcher_;
  std::vector<const PairPlan*> pairs_;
  std::uint64_t iterations_ = 0;
  double untraced_ns_ = 0;
  std::uint64_t untraced_requests_ = 0;
  std::vector<double> window_ms_;
  std::uint64_t window_requests_ = 0;
  Xoshiro256 sampler_;
  std::int64_t window_start_ = 0;
  double window_bits_ = 0;
};

/// Keeps both link stores topped up with seeded synthetic keys. Only this
/// thread deposits and it checks room first, so no deposit may be refused.
class Refill {
 public:
  Refill(std::vector<pipeline::KeyStore*> stores, std::uint64_t seed)
      : stores_(std::move(stores)), rng_(seed) {}

  /// Deposits one key into every store with room; false when all are full.
  bool top_up(SpanLog* log) {
    bool deposited = false;
    for (pipeline::KeyStore* store : stores_) {
      if (store->bits_available() + kDepositBits > kStoreCapacityBits) continue;
      BitVec key = rng_.random_bits(kDepositBits);
      ScopedSpan span(log, SpanName::kDeposit, attempts);
      ++attempts;
      if (!store->deposit(std::move(key))) ++rejected;
      deposited = true;
    }
    return deposited;
  }

  void fill() {
    while (top_up(nullptr)) {
    }
  }

  /// A full store holds ~140 ms of the client's demand, so napping 1 ms
  /// when both are full keeps up while leaving the cores to the client.
  void run(const std::stop_token& stop, SpanLog* log) {
    while (!stop.stop_requested()) {
      if (!top_up(log)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  std::uint64_t attempts = 0;
  std::uint64_t rejected = 0;

 private:
  std::vector<pipeline::KeyStore*> stores_;
  Xoshiro256 rng_;
};

}  // namespace

Result run_delivery(const Options& options) {
  Result result;

  // Setup, part 1: the system - orchestrator links backing the stores,
  // topology, ETSI service, relay network, pairs, dispatcher.
  const std::int64_t construction_start = now_ns();
  service::OrchestratorConfig config;
  config.store.capacity_bits = kStoreCapacityBits;
  for (const char* name : {"L01", "L12"}) {
    service::LinkSpec spec;
    spec.name = name;
    spec.link.channel.length_km = 10.0;
    config.links.push_back(std::move(spec));
  }
  service::LinkOrchestrator orchestrator(std::move(config));
  network::Topology topology(orchestrator);
  for (const char* node : {"n0", "n1", "n2"}) topology.add_node(node);
  topology.add_edge("n0", "n1", "L01");
  topology.add_edge("n1", "n2", "L12");
  api::KeyDeliveryConfig service_config;
  service_config.uuid_seed = derive_seed(options.seed, 0xe751);
  api::KeyDeliveryService service(orchestrator, service_config);
  network::NetworkDelivery network(topology, service);

  std::vector<PairPlan> pairs(3);
  const auto add_pair = [&](PairPlan& plan, const char* master,
                            const char* slave,
                            std::shared_ptr<TimedSource> src) {
    plan.master = master;
    plan.slave = slave;
    api::KeyRequest key_request;
    key_request.number = kKeysPerRequest;
    key_request.size = kKeySizeBits;
    plan.enc_request = api::Request{"POST",
                                    "/api/v1/keys/" + plan.slave + "/enc_keys",
                                    plan.master, key_request.to_json()}
                           .to_json()
                           .dump();
    plan.source = src;
    api::SaePair pair;
    pair.master_sae_id = master;
    pair.slave_sae_id = slave;
    pair.default_key_size = kKeySizeBits;
    pair.max_key_per_request = kKeysPerRequest;
    service.register_pair(pair, std::move(src));
  };
  for (std::size_t link = 0; link < 2; ++link) {
    add_pair(pairs[link], link ? "sae-n1-b" : "sae-n0-a",
             link ? "sae-n2-b" : "sae-n1-a",
             std::make_shared<TimedSource>(
                 std::make_shared<api::LinkStoreSource>(
                     orchestrator.key_store(link), orchestrator, link),
                 SpanName::kDraw));
  }
  add_pair(pairs[2], "sae-n0-c", "sae-n2-c",
           std::make_shared<TimedSource>(
               std::make_shared<network::RelaySource>(
                   network.router(), network.relay(),
                   *topology.node_index("n0"), *topology.node_index("n2")),
               SpanName::kRelayDraw));
  api::Dispatcher dispatcher(service);
  const double construction_s = seconds_since(construction_start);

  // The client and its bookkeeping (not setup).
  Client client(dispatcher, {&pairs[0], &pairs[1], &pairs[2]},
                derive_seed(options.seed, 0x5a3b1e));

  // Setup, part 2: warm-up requests on every pair, in rounds; between
  // rounds the stores are topped up again (load generation, untimed).
  Refill refill({&orchestrator.key_store(0), &orchestrator.key_store(1)},
                derive_seed(options.seed, 0x4ef111));
  double warm_up_s = 0;
  for (int round = 0; round < 5; ++round) {
    refill.fill();
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < 200 * pairs.size(); ++i) {
      client.iterate(nullptr);
    }
    warm_up_s += seconds_since(start);
  }
  result.setup_s = construction_s + warm_up_s;
  if (options.setup_only) return result;

  // The measured phase: the client on this thread for `seconds`, the refill
  // thread beside it. A traced phase traces a random half of the
  // iterations, so the traced requests and the untraced ones they are
  // compared with share the same host conditions (a strict alternation
  // would alias with the every-other-request draws).
  SpanLog* client_log = nullptr;
  SpanLog* refill_log = nullptr;
  if (options.trace) {
    result.spans.resize(2);  // logs are held by pointer: no growth after
    client_log = &result.spans[0];
    refill_log = &result.spans[1];
  }
  {
    const std::int64_t start = now_ns();
    client.start_phase();
    // Joined on every way out of this scope.
    std::jthread refiller(
        [&](std::stop_token stop) { refill.run(stop, refill_log); });
    Xoshiro256 coin(derive_seed(options.seed, 0xc017ULL << 32));
    while (seconds_since(start) < options.seconds) {
      client.iterate(coin.next_u64() & 1 ? client_log : nullptr);
      client.close_window_if_due();
    }
  }
  std::uint64_t drawn_bits = 0;
  for (const auto& pair : pairs) drawn_bits += pair.source->drawn_bits();
  if (!options.trace) {
    result.set_timings(client.windows, 0.99);
    result.e2e.set("key_yield", static_cast<double>(client.delivered_bits) /
                                    static_cast<double>(drawn_bits));
  }

  // Gates: no id handed out twice, every slave fetch equal to the master's
  // keys, and exact conservation per pair, per relay hop and per store.
  result.attempted = client.attempted;
  result.failed = client.failed;
  client.ids.resize(client.id_count);
  std::sort(client.ids.begin(), client.ids.end());
  const std::size_t duplicates =
      client.ids.size() -
      static_cast<std::size_t>(
          std::unique(client.ids.begin(), client.ids.end()) -
          client.ids.begin());
  result.gate(duplicates == 0,
              "delivery: " + std::to_string(duplicates) + " duplicate key ids");
  result.gate(client.mismatched_batches == 0,
              "delivery: " + std::to_string(client.mismatched_batches) +
                  " dec_keys batches differ from enc_keys");
  for (const auto& pair : pairs) {
    const auto stats = service.pair_stats(pair.master, pair.slave);
    result.gate(stats && stats->delivered_bits + stats->buffered_bits ==
                             pair.source->drawn_bits(),
                "delivery: pair conservation violated on " + pair.master);
    result.gate(stats && stats->collected_keys == stats->delivered_keys,
                "delivery: uncollected keys on " + pair.master);
  }
  for (std::size_t e = 0; e < topology.edge_count(); ++e) {
    const auto& store = orchestrator.key_store(topology.edge(e).link);
    const auto& relay = network.relay();
    result.gate(store.consumed_by(relay.consumer_name(e)) ==
                    relay.consumed_bits(e) + relay.buffered_bits(e),
                "delivery: relay hop conservation violated on " +
                    topology.edge(e).link_name);
    result.gate(store.total_deposited_bits() ==
                        store.bits_available() + store.total_consumed_bits() &&
                    store.rejected_bits() == 0,
                "delivery: store conservation violated on " +
                    topology.edge(e).link_name);
  }
  result.e2e.set("peak_rss_mb", peak_rss_mb());
  if (!options.trace) return result;

  SpanLog all;
  for (const auto& log : result.spans) all.merge_totals(log);
  const double untraced_ms = client.untraced_mean_ms();
  const auto mean_us = [&](SpanName name) { return all.mean_ns(name) * 1e-3; };
  const double parts_ms =
      (mean_us(SpanName::kParse) + mean_us(SpanName::kService) +
       mean_us(SpanName::kSerialize)) * 1e-3;
  auto& layers = result.layers;
  layers.set("api.parse_us", mean_us(SpanName::kParse));
  layers.set("api.service_us", mean_us(SpanName::kService));
  layers.set("api.serialize_us", mean_us(SpanName::kSerialize));
  result.set_gap("ladder.request_gap",
                 std::abs(parts_ms - untraced_ms) / untraced_ms);
  layers.set("kms.draw_us", mean_us(SpanName::kDraw));
  layers.set("network.relay_draw_us", mean_us(SpanName::kRelayDraw));
  layers.set("kms.deposit_us", mean_us(SpanName::kDeposit));
  layers.set("kms.deposit_reject_rate",
             refill.attempts ? static_cast<double>(refill.rejected) /
                                   static_cast<double>(refill.attempts)
                             : 0.0);
  layers.set("trace.overhead",
             (mean_us(SpanName::kRequest) * 1e-3 - untraced_ms) / untraced_ms);
  return result;
}

}  // namespace ladder
