// KeyStore close() vs blocked depositors under the kBlock backpressure
// policy: a sanitizer-targeted stress loop (this test is what the ASan
// tree in scripts/check.sh is for - lock-order and lifetime bugs around
// the condition variable show up here deterministically or not at all).
//
// Each round: a tiny store, several depositor threads that will block on
// the bound, a consumer draining at random, and a close() fired from the
// middle of the scrum. After the join, every key must be accounted for
// exactly once - accepted (id minted), rejected-with-kClosed, or rejected
// at the bound - and the ledger must balance to the bit.
#include "pipeline/kms.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"

namespace qkdpp::pipeline {
namespace {

TEST(KeyStoreCloseRace, BlockedDepositorsAlwaysReleasedAndAccounted) {
  constexpr int kRounds = 150;
  constexpr int kDepositors = 4;
  constexpr int kKeysEach = 8;
  constexpr std::uint64_t kKeyBits = 64;

  for (int round = 0; round < kRounds; ++round) {
    KeyStoreConfig config;
    config.capacity_bits = 2 * kKeyBits;  // at most two keys fit: most
    config.on_overflow = OverflowPolicy::kBlock;  // deposits must block
    KeyStore store(config);

    std::atomic<std::uint64_t> accepted_bits{0};
    std::atomic<std::uint64_t> closed_rejects{0};
    std::vector<std::thread> threads;
    threads.reserve(kDepositors + 1);
    for (int d = 0; d < kDepositors; ++d) {
      threads.emplace_back([&, d] {
        Xoshiro256 rng(1000 * round + d);
        for (int k = 0; k < kKeysEach; ++k) {
          const DepositResult result = store.deposit(rng.random_bits(kKeyBits));
          if (result.accepted()) {
            accepted_bits += kKeyBits;
          } else {
            // Under kBlock the only rejection path for a fitting key is
            // the close() release: a typed reason, not a guessed-at 0.
            ASSERT_EQ(result.reason, RejectReason::kClosed);
            closed_rejects += 1;
          }
        }
      });
    }
    std::atomic<bool> stop{false};
    std::thread consumer([&] {
      Xoshiro256 rng(round);
      std::uint64_t draws = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (store.get_key("drain").has_value()) ++draws;
        // Vary the interleaving: sometimes yield, sometimes spin on.
        if (rng.bernoulli(0.5)) std::this_thread::yield();
        // Close somewhere in the middle of the scrum, round-dependent.
        if (draws == static_cast<std::uint64_t>(round % 5) + 1) {
          store.close();
        }
      }
      // Depositors are done; nothing can block anymore. Drain the rest.
      while (store.get_key("drain").has_value()) {
      }
    });
    for (std::size_t d = 0; d < threads.size(); ++d) threads[d].join();
    stop = true;
    consumer.join();

    // Conservation: every produced key is accepted xor rejected, and every
    // accepted bit was either drawn or is still in the store (here: none,
    // the consumer drained to empty).
    const std::uint64_t produced =
        std::uint64_t{kDepositors} * kKeysEach * kKeyBits;
    EXPECT_EQ(store.total_deposited_bits(), accepted_bits.load());
    EXPECT_EQ(store.rejected_bits(), produced - accepted_bits.load());
    EXPECT_EQ(store.rejected_keys(RejectReason::kClosed),
              closed_rejects.load());
    EXPECT_EQ(store.rejected_keys(), closed_rejects.load());
    EXPECT_EQ(store.bits_available(), 0u);
    EXPECT_EQ(store.total_consumed_bits(), accepted_bits.load());
    EXPECT_EQ(store.consumed_by("drain"), accepted_bits.load());
  }
}

TEST(KeyStoreCloseWakeAll, CloseWakesEveryBlockedDepositor) {
  // Many depositors, all blocked at once on a one-key bound: one close()
  // must release every one of them (no depositor left sleeping).
  constexpr int kBlocked = 16;
  KeyStoreConfig config;
  config.capacity_bits = 64;
  config.on_overflow = OverflowPolicy::kBlock;
  KeyStore store(config);
  Xoshiro256 seed_rng(7);
  ASSERT_TRUE(store.deposit(seed_rng.random_bits(64)).accepted());  // full

  std::atomic<int> closed_rejects{0};
  std::vector<std::thread> threads;
  threads.reserve(kBlocked);
  for (int d = 0; d < kBlocked; ++d) {
    threads.emplace_back([&, d] {
      Xoshiro256 rng(100 + d);
      const DepositResult result = store.deposit(rng.random_bits(64));
      ASSERT_FALSE(result.accepted());
      ASSERT_EQ(result.reason, RejectReason::kClosed);
      closed_rejects += 1;
    });
  }
  // Give every depositor time to actually park on the full store.
  while (store.rejected_keys() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    store.close();  // idempotent; first call is the one under test
  }
  for (auto& t : threads) t.join();  // would hang if any wake were lost
  EXPECT_EQ(closed_rejects.load(), kBlocked);
  EXPECT_EQ(store.rejected_keys(RejectReason::kClosed),
            static_cast<std::uint64_t>(kBlocked));
  EXPECT_EQ(store.bits_available(), 64u);  // the seed key is untouched
}

TEST(KeyStoreClose, CloseBeforeAnyDepositRejectsBlockedOnly) {
  // close() is not a poison pill: deposits that fit keep succeeding, only
  // the blocked ones are released with kClosed.
  KeyStoreConfig config;
  config.capacity_bits = 128;
  config.on_overflow = OverflowPolicy::kBlock;
  KeyStore store(config);
  store.close();
  Xoshiro256 rng(1);
  EXPECT_TRUE(store.deposit(rng.random_bits(128)).accepted());
  EXPECT_EQ(store.deposit(rng.random_bits(64)).reason, RejectReason::kClosed);
  ASSERT_TRUE(store.get_key("app").has_value());
  EXPECT_TRUE(store.deposit(rng.random_bits(64)).accepted());
}

}  // namespace
}  // namespace qkdpp::pipeline
