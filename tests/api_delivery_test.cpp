// KeyDeliveryService + Dispatcher tests: SAE registration, the ETSI
// two-endpoint delivery flow (enc_keys segments + mints UUIDs, dec_keys
// hands the same material to the slave exactly once), the 400/401/503
// error model, bit-conservation accounting, and the serialized dispatch
// path a transport would drive.
#include "api/dispatcher.hpp"
#include "api/key_delivery.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace qkdpp::api {
namespace {

/// A two-link orchestrator that is never run(): tests deposit known
/// material straight into the per-link stores, so every byte the facade
/// delivers is checkable.
class KeyDeliveryTest : public ::testing::Test {
 protected:
  KeyDeliveryTest() : orchestrator_(make_config()), service_(orchestrator_) {
    service_.register_pair(vpn_pair());
  }

  static service::OrchestratorConfig make_config() {
    service::OrchestratorConfig config;
    config.store.capacity_bits = 1 << 16;
    const char* names[] = {"metro", "wan"};
    double km = 5.0;
    std::uint64_t seed = 1;
    for (const char* name : names) {
      service::LinkSpec spec;
      spec.name = name;
      spec.link.channel.length_km = km;
      spec.rng_seed = seed++;
      km += 20.0;
      config.links.push_back(std::move(spec));
    }
    return config;
  }

  static SaePair vpn_pair() {
    SaePair pair;
    pair.master_sae_id = "sae-a";
    pair.slave_sae_id = "sae-b";
    pair.link_name = "metro";
    pair.default_key_size = 256;
    pair.max_key_per_request = 8;
    pair.max_key_size = 1024;
    pair.min_key_size = 64;
    return pair;
  }

  pipeline::KeyStore& metro_store() { return orchestrator_.key_store(0); }

  service::LinkOrchestrator orchestrator_;
  KeyDeliveryService service_;
};

TEST_F(KeyDeliveryTest, RegistrationRejectsBadConfigs) {
  SaePair pair = vpn_pair();
  EXPECT_THROW(service_.register_pair(pair), Error);  // duplicate
  pair.master_sae_id = "sae-c";
  pair.link_name = "no-such-link";
  EXPECT_THROW(service_.register_pair(pair), Error);
  pair.link_name = "metro";
  pair.default_key_size = 100;  // not a multiple of 8
  EXPECT_THROW(service_.register_pair(pair), Error);
  pair.default_key_size = 32;  // below min_key_size
  EXPECT_THROW(service_.register_pair(pair), Error);
  pair = vpn_pair();
  pair.master_sae_id = pair.slave_sae_id;
  EXPECT_THROW(service_.register_pair(pair), Error);
  pair = vpn_pair();
  // The store ledger reserves this name for unlabeled draws.
  pair.master_sae_id = std::string(pipeline::kAnonymousConsumer);
  EXPECT_THROW(service_.register_pair(pair), Error);
  pair = vpn_pair();
  // A '/' would make the pair unreachable through the path router.
  pair.slave_sae_id = "dept/sae-x";
  EXPECT_THROW(service_.register_pair(pair), Error);
  EXPECT_EQ(service_.pair_count(), 1u);
}

TEST_F(KeyDeliveryTest, StatusReportsDeliverableKeysFromEitherSide) {
  Xoshiro256 rng(2);
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(1000)).accepted());

  const auto from_master = service_.get_status("sae-a", "sae-b");
  ASSERT_TRUE(from_master.ok());
  EXPECT_EQ(from_master->master_sae_id, "sae-a");
  EXPECT_EQ(from_master->slave_sae_id, "sae-b");
  EXPECT_EQ(from_master->key_size, 256u);
  EXPECT_EQ(from_master->stored_key_count, 3u);  // floor(1000 / 256)
  EXPECT_EQ(from_master->max_key_count, (1u << 16) / 256);
  EXPECT_EQ(from_master->pending_key_count, 0u);

  const auto from_slave = service_.get_status("sae-b", "sae-a");
  ASSERT_TRUE(from_slave.ok());
  EXPECT_EQ(*from_slave, *from_master);

  const auto unknown = service_.get_status("sae-a", "sae-nobody");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error.status, kStatusUnauthorized);
}

TEST_F(KeyDeliveryTest, GetKeySegmentsBlocksAndConservesEveryBit) {
  Xoshiro256 rng(3);
  // Two odd-size blocks: segmentation must stitch across block boundaries.
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(600)).accepted());
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(500)).accepted());

  KeyRequest request;
  request.number = 4;
  request.size = 256;
  const auto container = service_.get_key("sae-a", "sae-b", request);
  ASSERT_TRUE(container.ok());
  ASSERT_EQ(container->keys.size(), 4u);  // floor(1100 / 256)
  std::set<std::string> ids;
  for (const auto& key : container->keys) {
    EXPECT_TRUE(KeyDeliveryService::is_uuid(key.key_id)) << key.key_id;
    EXPECT_EQ(key.key.size(), 256u / 4);  // hex chars
    ids.insert(key.key_id);
  }
  EXPECT_EQ(ids.size(), 4u);  // unique

  // Conservation: 1100 deposited = 1024 delivered + 76 buffered residual.
  const auto stats = service_.pair_stats("sae-a", "sae-b");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->delivered_keys, 4u);
  EXPECT_EQ(stats->delivered_bits, 1024u);
  EXPECT_EQ(stats->buffered_bits, 76u);
  EXPECT_EQ(stats->pending_keys, 4u);
  EXPECT_EQ(stats->pending_bits, 1024u);
  EXPECT_EQ(metro_store().bits_available(), 0u);
  EXPECT_EQ(metro_store().consumed_by("sae-a"),
            stats->delivered_bits + stats->buffered_bits);

  // The residual joins the next deposit: 76 + 200 = 276 -> one more key.
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(200)).accepted());
  request.number = 8;
  const auto more = service_.get_key("sae-a", "sae-b", request);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(more->keys.size(), 1u);
  const auto after = service_.pair_stats("sae-a", "sae-b");
  EXPECT_EQ(after->delivered_bits, 1280u);
  EXPECT_EQ(after->buffered_bits, 20u);
}

TEST_F(KeyDeliveryTest, SlaveFetchesIdenticalMaterialExactlyOnce) {
  Xoshiro256 rng(4);
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(512)).accepted());

  KeyRequest request;
  request.number = 2;
  const auto master = service_.get_key("sae-a", "sae-b", request);
  ASSERT_TRUE(master.ok());
  ASSERT_EQ(master->keys.size(), 2u);

  KeyIdsRequest ids;
  for (const auto& key : master->keys) ids.key_ids.push_back(key.key_id);
  const auto slave = service_.get_key_with_ids("sae-b", "sae-a", ids);
  ASSERT_TRUE(slave.ok());
  ASSERT_EQ(slave->keys.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(slave->keys[i], master->keys[i]);
  }

  // Exactly once: the handover copies are gone now.
  const auto again = service_.get_key_with_ids("sae-b", "sae-a", ids);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error.status, kStatusBadRequest);
  EXPECT_EQ(again.error.details.size(), 2u);

  const auto stats = service_.pair_stats("sae-a", "sae-b");
  EXPECT_EQ(stats->collected_keys, 2u);
  EXPECT_EQ(stats->collected_bits, 512u);
  EXPECT_EQ(stats->pending_keys, 0u);
  EXPECT_EQ(stats->pending_bits, 0u);
}

TEST_F(KeyDeliveryTest, AllOrNothingBatchLeavesStateUntouched) {
  Xoshiro256 rng(5);
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(256)).accepted());
  const auto master = service_.get_key("sae-a", "sae-b", {});
  ASSERT_TRUE(master.ok());

  KeyIdsRequest mixed;
  mixed.key_ids.push_back(master->keys[0].key_id);
  mixed.key_ids.push_back("00000000-0000-4000-8000-00000000dead");
  const auto result = service_.get_key_with_ids("sae-b", "sae-a", mixed);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.status, kStatusBadRequest);
  ASSERT_EQ(result.error.details.size(), 1u);  // only the unknown id

  // The known key is still retained and collectable.
  KeyIdsRequest good;
  good.key_ids.push_back(master->keys[0].key_id);
  EXPECT_TRUE(service_.get_key_with_ids("sae-b", "sae-a", good).ok());
}

TEST_F(KeyDeliveryTest, ErrorModelCoversMalformedUnknownAndExhausted) {
  // 401: right SAEs, wrong roles.
  EXPECT_EQ(service_.get_key("sae-b", "sae-a", {}).error.status,
            kStatusUnauthorized);
  EXPECT_EQ(service_.get_key_with_ids("sae-a", "sae-b", {{"x"}}).error.status,
            kStatusUnauthorized);
  // 400: malformed requests.
  KeyRequest zero;
  zero.number = 0;
  EXPECT_EQ(service_.get_key("sae-a", "sae-b", zero).error.status,
            kStatusBadRequest);
  KeyRequest greedy;
  greedy.number = 9;  // max_key_per_request = 8
  EXPECT_EQ(service_.get_key("sae-a", "sae-b", greedy).error.status,
            kStatusBadRequest);
  KeyRequest odd;
  odd.size = 100;  // not a multiple of 8
  EXPECT_EQ(service_.get_key("sae-a", "sae-b", odd).error.status,
            kStatusBadRequest);
  KeyRequest huge;
  huge.size = 2048;  // beyond max_key_size
  EXPECT_EQ(service_.get_key("sae-a", "sae-b", huge).error.status,
            kStatusBadRequest);
  KeyIdsRequest empty;
  EXPECT_EQ(service_.get_key_with_ids("sae-b", "sae-a", empty).error.status,
            kStatusBadRequest);
  KeyIdsRequest malformed;
  malformed.key_ids.push_back("not-a-uuid");
  EXPECT_EQ(
      service_.get_key_with_ids("sae-b", "sae-a", malformed).error.status,
      kStatusBadRequest);
  Xoshiro256 rng(6);
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(512)).accepted());
  const auto ok = service_.get_key("sae-a", "sae-b", {});
  ASSERT_TRUE(ok.ok());
  KeyIdsRequest twice;
  twice.key_ids.push_back(ok->keys[0].key_id);
  twice.key_ids.push_back(ok->keys[0].key_id);
  EXPECT_EQ(service_.get_key_with_ids("sae-b", "sae-a", twice).error.status,
            kStatusBadRequest);
  // The id named is the first, in request order, that repeats an earlier
  // one: b at index 2, although a sorts first and repeats too.
  const std::string a = "00000000-0000-4000-8000-000000000001";
  const std::string b = "ffffffff-0000-4000-8000-000000000002";
  const KeyIdsRequest crossing{{a, b, b, a}};
  const auto crossed = service_.get_key_with_ids("sae-b", "sae-a", crossing);
  EXPECT_EQ(crossed.error.status, kStatusBadRequest);
  EXPECT_EQ(crossed.error.details, std::vector<std::string>{b});
  // 503: nothing left to segment.
  KeyRequest drain;
  drain.number = 8;
  drain.size = 1024;
  EXPECT_EQ(service_.get_key("sae-a", "sae-b", drain).error.status,
            kStatusUnavailable);
}

TEST_F(KeyDeliveryTest, DispatcherRoutesSerializedRequests) {
  Xoshiro256 rng(7);
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(512)).accepted());
  Dispatcher dispatcher(service_);

  // Full wire path: JSON text in, JSON text out.
  const std::string status_wire = dispatcher.dispatch(
      R"({"method":"GET","target":"/api/v1/keys/sae-b/status","caller":"sae-a"})");
  const auto status = Response::from_json(Json::parse(status_wire));
  EXPECT_EQ(status.status, kStatusOk);
  EXPECT_EQ(StatusResponse::from_json(status.body).stored_key_count, 2u);

  Request enc;
  enc.method = "POST";
  enc.target = "/api/v1/keys/sae-b/enc_keys";
  enc.caller = "sae-a";
  KeyRequest key_request;
  key_request.number = 2;
  enc.body = key_request.to_json();
  const auto enc_response = Response::from_json(
      Json::parse(dispatcher.dispatch(enc.to_json().dump())));
  ASSERT_EQ(enc_response.status, kStatusOk);
  const auto container = KeyContainer::from_json(enc_response.body);
  ASSERT_EQ(container.keys.size(), 2u);

  Request dec;
  dec.method = "POST";
  dec.target = "/api/v1/keys/sae-a/dec_keys";
  dec.caller = "sae-b";
  KeyIdsRequest ids;
  for (const auto& key : container.keys) ids.key_ids.push_back(key.key_id);
  dec.body = ids.to_json();
  const auto dec_response = Response::from_json(
      Json::parse(dispatcher.dispatch(dec.to_json().dump())));
  ASSERT_EQ(dec_response.status, kStatusOk);
  EXPECT_EQ(KeyContainer::from_json(dec_response.body).keys,
            container.keys);

  // GET enc_keys = default single-key request (ETSI convenience form).
  const auto get_enc = dispatcher.dispatch(
      Request{"GET", "/api/v1/keys/sae-b/enc_keys", "sae-a", {}});
  EXPECT_EQ(get_enc.status, kStatusUnavailable);  // store is drained
}

TEST_F(KeyDeliveryTest, DispatcherErrorMapping) {
  Dispatcher dispatcher(service_);
  EXPECT_EQ(dispatcher.dispatch(
                          Request{"GET", "/nope", "sae-a", {}}).status,
            kStatusNotFound);
  EXPECT_EQ(dispatcher
                .dispatch(Request{"GET", "/api/v1/keys/sae-b/teapot",
                                  "sae-a", {}})
                .status,
            kStatusNotFound);
  // Wrong verb on a known path is 405 (not 404, not 400): the route
  // exists, only the method is wrong, and the details say which to use.
  const auto post_status = dispatcher.dispatch(
      Request{"POST", "/api/v1/keys/sae-b/status", "sae-a", {}});
  EXPECT_EQ(post_status.status, kStatusMethodNotAllowed);
  EXPECT_EQ(ApiError::from_json(post_status.body).details,
            std::vector<std::string>{"expected: GET"});
  const auto get_dec = dispatcher.dispatch(
      Request{"GET", "/api/v1/keys/sae-b/dec_keys", "sae-b", {}});
  EXPECT_EQ(get_dec.status, kStatusMethodNotAllowed);
  EXPECT_EQ(ApiError::from_json(get_dec.body).details,
            std::vector<std::string>{"expected: POST"});
  // Malformed envelope and malformed body both map to 400 responses.
  const auto garbage = Response::from_json(
      Json::parse(dispatcher.dispatch("this is not json")));
  EXPECT_EQ(garbage.status, kStatusBadRequest);
  const auto bad_body = Response::from_json(Json::parse(dispatcher.dispatch(
      R"({"method":"POST","target":"/api/v1/keys/sae-b/enc_keys",)"
      R"("caller":"sae-a","body":{"number":"three"}})")));
  EXPECT_EQ(bad_body.status, kStatusBadRequest);
}

TEST_F(KeyDeliveryTest, HopelessRequestDoesNotDrainSharedStore) {
  // A request no one can serve must not move the link's shared material
  // into the requesting pair's private residual: the other pair on the
  // link could still have used it.
  service_.register_pair({"sae-c", "sae-d", "metro", 64, 8, 1024, 64});
  Xoshiro256 rng(9);
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(200)).accepted());

  KeyRequest big;
  big.size = 1024;  // more than the whole store holds
  const auto starved = service_.get_key("sae-a", "sae-b", big);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.error.status, kStatusUnavailable);
  EXPECT_EQ(metro_store().bits_available(), 200u);  // untouched

  // The second pair can still draw small keys from the same material.
  KeyRequest small;
  small.number = 8;
  const auto served = service_.get_key("sae-c", "sae-d", small);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->keys.size(), 3u);  // floor(200 / 64)
}

TEST_F(KeyDeliveryTest, PendingBacklogAppliesBackpressure) {
  SaePair pair;
  pair.master_sae_id = "sae-e";
  pair.slave_sae_id = "sae-f";
  pair.link_name = "metro";
  pair.default_key_size = 64;
  pair.max_key_per_request = 8;
  pair.max_key_size = 1024;
  pair.min_key_size = 64;
  pair.max_pending_keys = 2;
  service_.register_pair(pair);
  Xoshiro256 rng(10);
  ASSERT_TRUE(metro_store().deposit(rng.random_bits(512)).accepted());

  // Minting stops at the handover cap even though material remains.
  KeyRequest request;
  request.number = 8;
  const auto first = service_.get_key("sae-e", "sae-f", request);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->keys.size(), 2u);
  const auto refused = service_.get_key("sae-e", "sae-f", request);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error.status, kStatusUnavailable);

  // Collection drains the backlog and re-opens delivery.
  KeyIdsRequest ids;
  for (const auto& key : first->keys) ids.key_ids.push_back(key.key_id);
  ASSERT_TRUE(service_.get_key_with_ids("sae-f", "sae-e", ids).ok());
  const auto resumed = service_.get_key("sae-e", "sae-f", request);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->keys.size(), 2u);
}

TEST_F(KeyDeliveryTest, ConcurrentPairsNeverDuplicateOrLoseBits) {
  service_.register_pair({"sae-c", "sae-d", "metro", 128, 8, 1024, 64});
  Xoshiro256 rng(8);
  constexpr std::uint64_t kDeposited = 1 << 14;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        metro_store().deposit(rng.random_bits(kDeposited / 16)).accepted());
  }

  // Two master SAEs race the same link store through the service.
  std::set<std::string> ids_ab, ids_cd;
  auto drain = [this](const char* master, const char* slave,
                      std::set<std::string>& ids) {
    KeyRequest request;
    request.number = 4;
    while (true) {
      const auto container = service_.get_key(master, slave, request);
      if (!container.ok()) break;
      for (const auto& key : container->keys) ids.insert(key.key_id);
    }
  };
  std::thread ab([&] { drain("sae-a", "sae-b", ids_ab); });
  std::thread cd([&] { drain("sae-c", "sae-d", ids_cd); });
  ab.join();
  cd.join();

  // No UUID appears twice across the two pairs.
  for (const auto& id : ids_ab) EXPECT_EQ(ids_cd.count(id), 0u);

  // Conservation: everything deposited is delivered or buffered.
  const auto ab_stats = *service_.pair_stats("sae-a", "sae-b");
  const auto cd_stats = *service_.pair_stats("sae-c", "sae-d");
  EXPECT_EQ(metro_store().bits_available(), 0u);
  EXPECT_EQ(ab_stats.delivered_bits + ab_stats.buffered_bits +
                cd_stats.delivered_bits + cd_stats.buffered_bits,
            kDeposited);
  EXPECT_EQ(ab_stats.delivered_keys, ids_ab.size());
  EXPECT_EQ(cd_stats.delivered_keys, ids_cd.size());
}

}  // namespace
}  // namespace qkdpp::api
