#include "common/mutex.hpp"

#if QKDPP_LOCK_RANK_CHECKS_ENABLED

#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace qkdpp::detail {

namespace {

struct HeldLock {
  int rank;
  const char* name;
};

// Per-thread stack of held locks. A fixed, trivially destructible array:
// it has no thread_local destructor, so it stays valid for any static
// destructor that locks at exit (those run after the main thread's
// thread_locals are gone). Each acquire must rank strictly
// below every held lock, so a thread holds at most one lock per rank and
// kMaxHeld (more than there are ranks) is never reached.
constexpr std::size_t kMaxHeld = 32;
thread_local HeldLock t_held[kMaxHeld];
thread_local std::size_t t_depth = 0;

}  // namespace

void rank_acquire(int rank, const char* name) {
  for (std::size_t i = 0; i < t_depth; ++i) {
    const HeldLock& held = t_held[i];
    if (held.rank <= rank) {
      // Deliberately fprintf+abort instead of QKDPP_LOG/throw: the logger
      // itself takes a lock, and an exception would let a real deadlock
      // escape the test that provoked it.
      std::fprintf(stderr,
                   "qkdpp lock-rank violation: acquiring \"%s\" (rank %d) "
                   "while holding \"%s\" (rank %d); a lock may only be "
                   "acquired when its rank is strictly below every held "
                   "rank\n",
                   name, rank, held.name, held.rank);
      std::abort();
    }
  }
  if (t_depth == kMaxHeld) {
    std::fprintf(stderr, "qkdpp lock-rank checker: %zu locks already held\n",
                 kMaxHeld);
    std::abort();
  }
  t_held[t_depth++] = HeldLock{rank, name};
}

void rank_release(int rank, const char* name) noexcept {
  // Unlock order need not be LIFO (std::unique_lock-style early release),
  // so remove the most recent matching entry rather than popping the top.
  for (std::size_t i = t_depth; i-- > 0;) {
    if (t_held[i].rank == rank && t_held[i].name == name) {
      for (std::size_t j = i + 1; j < t_depth; ++j) t_held[j - 1] = t_held[j];
      --t_depth;
      return;
    }
  }
  std::fprintf(stderr,
               "qkdpp lock-rank violation: releasing \"%s\" (rank %d) which "
               "this thread does not hold\n",
               name, rank);
  std::abort();
}

}  // namespace qkdpp::detail

#endif  // QKDPP_LOCK_RANK_CHECKS_ENABLED
