// KeyStore tests: ETSI-style two-endpoint consumption, the empty-deposit
// regression, the capacity bound's reject rule, and the per-consumer draw
// ledger.
#include "pipeline/kms.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace qkdpp::pipeline {
namespace {

TEST(KeyStore, DepositAndFifoDraw) {
  Xoshiro256 rng(1);
  KeyStore store;
  const BitVec first = rng.random_bits(100);
  const BitVec second = rng.random_bits(200);
  const auto id_first = store.deposit(first);
  const auto id_second = store.deposit(second);
  EXPECT_TRUE(id_first.accepted());
  EXPECT_TRUE(id_second.accepted());
  EXPECT_NE(id_first.key_id, id_second.key_id);
  EXPECT_EQ(store.keys_available(), 2u);
  EXPECT_EQ(store.bits_available(), 300u);

  const auto drawn = store.get_key();
  ASSERT_TRUE(drawn.has_value());
  EXPECT_EQ(drawn->key_id, id_first.key_id);  // FIFO
  EXPECT_EQ(drawn->bits, first);
  EXPECT_EQ(store.bits_available(), 200u);
}

TEST(KeyStore, RejectReasonNamesAreStable) {
  // Logs and JSON error details embed these names; renaming one is a
  // wire-visible change, so pin them.
  EXPECT_STREQ(to_string(RejectReason::kNone), "none");
  EXPECT_STREQ(to_string(RejectReason::kEmpty), "empty");
  EXPECT_STREQ(to_string(RejectReason::kOversized), "oversized");
  EXPECT_STREQ(to_string(RejectReason::kCapacity), "capacity");
  EXPECT_STREQ(to_string(RejectReason::kCount_), "unknown");
}

TEST(KeyStore, EmptyDepositRejectedRegression) {
  // Regression: an empty BitVec used to mint a key id and count toward
  // keys_available(), letting consumers draw zero-bit "keys".
  KeyStore store;
  const auto result = store.deposit(BitVec());
  EXPECT_FALSE(result.accepted());
  EXPECT_EQ(result.reason, RejectReason::kEmpty);
  EXPECT_EQ(store.keys_available(), 0u);
  EXPECT_EQ(store.bits_available(), 0u);
  EXPECT_EQ(store.total_deposited_bits(), 0u);
  EXPECT_EQ(store.rejected_keys(), 1u);
  EXPECT_EQ(store.rejected_keys(RejectReason::kEmpty), 1u);
  EXPECT_EQ(store.rejected_keys(RejectReason::kCount_), 0u);  // guarded
  EXPECT_FALSE(store.get_key().has_value());
}

TEST(KeyStore, BitsAvailableConsistentAcrossMixedConsumption) {
  Xoshiro256 rng(2);
  KeyStore store;
  std::vector<std::uint64_t> ids;
  std::uint64_t total = 0;
  for (const std::size_t n : {64u, 128u, 256u, 512u, 1024u}) {
    ids.push_back(store.deposit(rng.random_bits(n)).key_id);
    total += n;
  }
  EXPECT_EQ(store.bits_available(), total);

  // Mixed draws: designated ids interleaved with FIFO next-key draws.
  const auto by_id = store.get_key_with_id(ids[2]);  // 256
  ASSERT_TRUE(by_id.has_value());
  total -= 256;
  EXPECT_EQ(store.bits_available(), total);

  const auto fifo = store.get_key();  // 64 (oldest)
  ASSERT_TRUE(fifo.has_value());
  EXPECT_EQ(fifo->bits.size(), 64u);
  total -= 64;
  EXPECT_EQ(store.bits_available(), total);

  // Already-consumed id: no double consumption, accounting unchanged.
  EXPECT_FALSE(store.get_key_with_id(ids[2]).has_value());
  EXPECT_FALSE(store.get_key_with_id(ids[0]).has_value());
  EXPECT_EQ(store.bits_available(), total);

  const auto rest_a = store.get_key();
  const auto rest_b = store.get_key();
  const auto rest_c = store.get_key();
  ASSERT_TRUE(rest_a && rest_b && rest_c);
  EXPECT_EQ(store.bits_available(), 0u);
  EXPECT_FALSE(store.get_key().has_value());
  EXPECT_EQ(store.total_consumed_bits(), store.total_deposited_bits());
}

TEST(KeyStore, CapacityRejectsWithStatistic) {
  Xoshiro256 rng(3);
  KeyStoreConfig config;
  config.capacity_bits = 256;
  KeyStore store(config);

  EXPECT_TRUE(store.deposit(rng.random_bits(200)).accepted());
  // 100 more bits would exceed 256: rejected, counted, store unchanged.
  EXPECT_EQ(store.deposit(rng.random_bits(100)).reason,
            RejectReason::kCapacity);
  EXPECT_EQ(store.keys_available(), 1u);
  EXPECT_EQ(store.bits_available(), 200u);
  EXPECT_EQ(store.rejected_keys(), 1u);
  EXPECT_EQ(store.rejected_keys(RejectReason::kCapacity), 1u);
  EXPECT_EQ(store.rejected_bits(), 100u);
  // A 56-bit key still fits.
  EXPECT_TRUE(store.deposit(rng.random_bits(56)).accepted());
  EXPECT_EQ(store.bits_available(), 256u);

  // Draining frees capacity again.
  ASSERT_TRUE(store.get_key().has_value());
  EXPECT_TRUE(store.deposit(rng.random_bits(100)).accepted());
}

TEST(KeyStore, OversizedKeyRejectedEvenWhenEmpty) {
  Xoshiro256 rng(4);
  KeyStoreConfig config;
  config.capacity_bits = 128;
  KeyStore store(config);
  EXPECT_EQ(store.deposit(rng.random_bits(129)).reason,
            RejectReason::kOversized);
  EXPECT_EQ(store.rejected_keys(), 1u);
  EXPECT_EQ(store.rejected_keys(RejectReason::kOversized), 1u);
}

TEST(KeyStore, PerConsumerDrawAccounting) {
  Xoshiro256 rng(7);
  KeyStore store;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(store.deposit(rng.random_bits(100)).key_id);
  }
  ASSERT_TRUE(store.get_key("vpn").has_value());
  ASSERT_TRUE(store.get_key("vpn").has_value());
  ASSERT_TRUE(store.get_key_with_id(ids[3], "voip").has_value());
  ASSERT_TRUE(store.get_key().has_value());  // unlabeled draw

  EXPECT_EQ(store.consumed_by("vpn"), 200u);
  EXPECT_EQ(store.consumed_by("voip"), 100u);
  EXPECT_EQ(store.consumed_by("absent"), 0u);
  // An empty consumer name lands in the reserved "anonymous" ledger entry
  // instead of a silent "" key; reading with either name agrees.
  EXPECT_EQ(store.consumed_by(kAnonymousConsumer), 100u);
  EXPECT_EQ(store.consumed_by(""), 100u);
  const auto ledger = store.draw_accounting();
  ASSERT_EQ(ledger.size(), 3u);  // vpn, voip, anonymous
  EXPECT_EQ(ledger.at("vpn"), 200u);
  EXPECT_EQ(ledger.at("voip"), 100u);
  EXPECT_EQ(ledger.at(std::string(kAnonymousConsumer)), 100u);
  EXPECT_EQ(ledger.count(""), 0u);
  EXPECT_EQ(store.total_consumed_bits(), 400u);
}

TEST(KeyStore, ConcurrentProducersAndConsumersStayConsistent) {
  KeyStoreConfig config;
  config.capacity_bits = 4096;
  KeyStore store(config);

  constexpr int kProducers = 4;
  constexpr int kKeysEach = 50;
  std::vector<std::thread> threads;
  threads.reserve(kProducers + 2);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&store, p] {
      Xoshiro256 rng(100 + p);
      for (int k = 0; k < kKeysEach; ++k) {
        (void)store.deposit(rng.random_bits(64));
      }
    });
  }
  std::atomic<std::uint64_t> drawn_bits{0};
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&store, &drawn_bits, c] {
      const std::string name = c == 0 ? "left" : "right";
      for (int k = 0; k < kProducers * kKeysEach / 2; ++k) {
        if (const auto key = store.get_key(name)) {
          drawn_bits += key->bits.size();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Conservation: everything deposited was either drawn, rejected, or is
  // still available.
  EXPECT_EQ(store.total_deposited_bits(),
            store.total_consumed_bits() + store.bits_available());
  EXPECT_EQ(store.total_deposited_bits() + store.rejected_bits(),
            static_cast<std::uint64_t>(kProducers) * kKeysEach * 64);
  EXPECT_EQ(store.consumed_by("left") + store.consumed_by("right"),
            drawn_bits.load());
  EXPECT_LE(store.bits_available(), config.capacity_bits);
}

}  // namespace
}  // namespace qkdpp::pipeline
