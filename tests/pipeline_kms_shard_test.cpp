// KeyStore under load: FIFO over many keys, by-id draws from any
// position, and a concurrent conservation stress where producers and
// consumers hammer the store at once - every bit deposited must be drawn
// exactly once, with no duplicate ids, and the aggregate ledger must
// balance exactly after the joins. (The binary keeps the name it had when
// the store was striped into shards; the one-lock store must pass the
// same stress.)
#include "pipeline/kms.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace qkdpp::pipeline {
namespace {

TEST(KeyStoreLoad, FifoOrderOverManyKeys) {
  // get_key must return strictly increasing ids - the global FIFO the
  // delivery layer depends on.
  KeyStore store;
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> minted;
  for (int i = 0; i < 20; ++i) {
    const auto result = store.deposit(rng.random_bits(32));
    ASSERT_TRUE(result.accepted());
    minted.push_back(result.key_id);
  }
  for (const std::uint64_t expected : minted) {
    const auto key = store.get_key("fifo");
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(key->key_id, expected);
  }
  EXPECT_FALSE(store.get_key("fifo").has_value());
}

TEST(KeyStoreLoad, GetKeyWithIdDrawsAnyPositionOnce) {
  KeyStore store;
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 17; ++i) {
    ids.push_back(store.deposit(rng.random_bits(64)).key_id);
  }
  // Draw from the middle, the ends, and a missing id.
  EXPECT_TRUE(store.get_key_with_id(ids[8], "mid").has_value());
  EXPECT_TRUE(store.get_key_with_id(ids[0], "first").has_value());
  EXPECT_TRUE(store.get_key_with_id(ids[16], "last").has_value());
  EXPECT_FALSE(store.get_key_with_id(ids[8], "again").has_value())
      << "consumption is destructive exactly once";
  EXPECT_FALSE(store.get_key_with_id(99999, "ghost").has_value());
  EXPECT_EQ(store.keys_available(), 14u);
}

TEST(KeyStoreLoad, ConcurrentConservationStress) {
  // 4 producers x 4 consumers under a tight capacity bound, so deposits
  // race draws for room and many are rejected. Exact invariants after the
  // joins:
  //   deposited == consumed + (left in store == 0 after final drain)
  //   produced == deposited + rejected, every rejection a kCapacity
  //   ids unique across every draw.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kKeysEach = 250;
  constexpr std::uint64_t kKeyBits = 128;

  KeyStoreConfig config;
  config.capacity_bits = 8 * kKeyBits;  // tight: rejection is exercised
  KeyStore store(config);

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<int> producers_done{0};
  std::mutex ids_mutex;
  std::set<std::uint64_t> drawn_ids;
  std::atomic<std::uint64_t> drawn_bits{0};
  std::atomic<bool> duplicate_seen{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Xoshiro256 rng(40 + p);
      for (int k = 0; k < kKeysEach; ++k) {
        if (store.deposit(rng.random_bits(kKeyBits))) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
      producers_done.fetch_add(1);
    });
  }
  const auto record = [&](const StoredKey& key) {
    drawn_bits.fetch_add(key.bits.size());
    std::scoped_lock lock(ids_mutex);
    if (!drawn_ids.insert(key.key_id).second) duplicate_seen.store(true);
  };
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      Xoshiro256 rng(80 + c);
      for (;;) {
        const auto key = store.get_key("consumer-" + std::to_string(c));
        if (key.has_value()) {
          record(*key);
        } else if (producers_done.load() == kProducers) {
          // One more sweep after the producers finished: a deposit may
          // have landed between our miss and the done-check.
          const auto last = store.get_key("consumer-" + std::to_string(c));
          if (!last.has_value()) break;
          record(*last);
        } else if (rng.bernoulli(0.3)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(duplicate_seen.load()) << "a key id was drawn twice";
  const std::uint64_t produced =
      std::uint64_t{kProducers} * kKeysEach;
  EXPECT_EQ(accepted.load() + rejected.load(), produced);
  EXPECT_EQ(store.rejected_keys(), rejected.load());
  EXPECT_EQ(store.rejected_keys(RejectReason::kCapacity), rejected.load());
  EXPECT_EQ(store.rejected_bits(), rejected.load() * kKeyBits);
  EXPECT_EQ(store.total_deposited_bits(), accepted.load() * kKeyBits);
  EXPECT_EQ(store.total_consumed_bits(), accepted.load() * kKeyBits)
      << "every accepted bit must be drawn by the final sweeps";
  EXPECT_EQ(store.bits_available(), 0u);
  EXPECT_EQ(store.keys_available(), 0u);
  EXPECT_EQ(drawn_bits.load(), store.total_consumed_bits());
  EXPECT_EQ(drawn_ids.size(), accepted.load());

  // The per-consumer ledger sums to the aggregate.
  std::uint64_t ledger_total = 0;
  for (const auto& [name, bits] : store.draw_accounting()) {
    ledger_total += bits;
  }
  EXPECT_EQ(ledger_total, store.total_consumed_bits());
}

}  // namespace
}  // namespace qkdpp::pipeline
