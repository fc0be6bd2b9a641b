// Lock-rank checker tests: in-order nesting is silent, out-of-order and
// same-rank re-acquisition abort with both lock names. The death tests are
// the executable spec of the hierarchy in common/mutex.hpp; they skip in
// builds where the checker is compiled out (NDEBUG without
// QKDPP_LOCK_RANK_CHECKS).
#include "common/mutex.hpp"

#include <gtest/gtest.h>

#include <thread>

namespace qkdpp {
namespace {

TEST(LockRank, InOrderNestingIsAllowed) {
  Mutex outer(LockRank::kPair, "test.outer");
  Mutex inner(LockRank::kTap, "test.inner");
  Mutex leaf(LockRank::kCodeCache, "test.leaf");
  {
    MutexLock a(outer);
    MutexLock b(inner);
    MutexLock c(leaf);
  }
  // Non-nested re-acquisition of the same rank is fine (sequential taps,
  // sequential shards) - only holding two at once is a violation.
  {
    MutexLock a(inner);
  }
  {
    MutexLock b(inner);
  }
}

TEST(LockRank, ReleaseOrderNeedNotBeLifo) {
  // The engine drops its plan lock around kernel launches via
  // MutexLock::unlock(); the checker must tolerate non-LIFO release.
  Mutex outer(LockRank::kEnginePlan, "test.plan");
  Mutex inner(LockRank::kDeviceSet, "test.ledger");
  MutexLock a(outer);
  MutexLock b(inner);
  a.unlock();  // outer released while inner is still held
  // b and the already-released a unwind at scope exit.
}

TEST(LockRank, OtherThreadsHoldTheirOwnStacks) {
  // Rank stacks are per-thread: thread B taking a high rank while thread A
  // holds a low one is not a violation.
  Mutex low(LockRank::kCodeCache, "test.low");
  Mutex high(LockRank::kOrchestrator, "test.high");
  MutexLock a(low);
  std::thread other([&] { MutexLock b(high); });
  other.join();
}

TEST(LockRankDeathTest, OutOfOrderAcquisitionAborts) {
  if (!lock_rank_checks_enabled()) {
    GTEST_SKIP() << "rank checker compiled out (NDEBUG build)";
  }
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Mutex low(LockRank::kTap, "test.tap");
  Mutex high(LockRank::kPair, "test.pair");
  EXPECT_DEATH(
      {
        MutexLock a(low);
        MutexLock b(high);  // rank 75 while holding rank 65: inversion
      },
      "lock-rank violation.*test\\.pair.*test\\.tap");
}

TEST(LockRankDeathTest, SameRankNestingAborts) {
  if (!lock_rank_checks_enabled()) {
    GTEST_SKIP() << "rank checker compiled out (NDEBUG build)";
  }
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // Two taps at once would deadlock against a relay traversing them in the
  // opposite order; same-rank is out-of-order by the strictly-below rule.
  Mutex tap_a(LockRank::kTap, "test.tap_a");
  Mutex tap_b(LockRank::kTap, "test.tap_b");
  EXPECT_DEATH(
      {
        MutexLock a(tap_a);
        MutexLock b(tap_b);
      },
      "lock-rank violation.*test\\.tap_b.*test\\.tap_a");
}

TEST(LockRankDeathTest, TryLockViolationAborts) {
  if (!lock_rank_checks_enabled()) {
    GTEST_SKIP() << "rank checker compiled out (NDEBUG build)";
  }
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Mutex low(LockRank::kCodeCache, "test.low");
  Mutex high(LockRank::kPair, "test.high");
  EXPECT_DEATH(
      {
        MutexLock a(low);
        // try_lock cannot block, but an out-of-order success is still a
        // hierarchy violation and must be reported, not tolerated.
        if (high.try_lock()) high.unlock();
      },
      "lock-rank violation.*test\\.high.*test\\.low");
}

}  // namespace
}  // namespace qkdpp
