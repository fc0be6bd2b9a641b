// Annotated, ranked mutex wrappers.
//
// All locking in the tree goes through these types instead of raw
// std::mutex for two reasons:
//
//   1. Clang Thread Safety Analysis only follows annotated lock types;
//      libstdc++'s std::lock_guard / std::unique_lock are not annotated, so
//      locking through them makes every QKD_GUARDED_BY field unverifiable.
//      Mutex / SharedMutex / MutexLock / ReaderLock / WriterLock carry the
//      capability attributes (common/annotations.hpp) that make
//      -Wthread-safety precise.
//
//   2. Every mutex declares a LockRank. Debug and sanitizer builds keep a
//      per-thread stack of held ranks and abort -- naming both locks -- the
//      moment any thread acquires a mutex whose rank is not strictly below
//      every rank it already holds. That turns a potential deadlock (which
//      TSan only reports if the fatal interleaving actually executes) into
//      a deterministic failure on ANY execution of the out-of-order pair.
//
// Rank convention: ranks grow outward. The innermost lock in the tree (the
// LDPC code cache, a leaf) has the lowest rank; the outermost (the
// orchestrator run gate) is highest. A thread holding rank R may only
// acquire ranks strictly below R. See README "Static analysis & concurrency
// invariants" for the full table and the nesting chains that fix the order.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/annotations.hpp"

namespace qkdpp {

/// Global lock hierarchy, innermost (lowest) to outermost (highest).
/// Gaps between values leave room for new locks without renumbering.
enum class LockRank : int {
  kCodeCache = 10,    // LDPC code cache (leaf; PEG runs outside the lock)
  kAuthPool = 12,     // auth key pool (leaf)
  kChannel = 15,      // in-process classical channel endpoints (leaf)
  kPool = 20,         // thread-pool task queue (leaf)
  kDevice = 30,       // device accounting (taken after the kernel body)
  kTrace = 35,        // stage cost model (leaf)
  kDeviceSet = 40,    // committed-load ledger, under the engine plan lock
  kEnginePlan = 45,   // engine placement/plan state
  kStore = 60,        // KeyStore keys, aggregates and ledger (leaf)
  kTap = 65,          // relay per-edge taps, held across store.get_key
  kSourceStats = 70,  // relay-source stats, under the pair lock's scope
  kPair = 75,         // delivery pair state, held across source->draw
  kRegistry = 80,     // SAE pair registry (never held with a pair lock)
  kSources = 85,      // network delivery source map
  kOrchestrator = 90, // orchestrator run gate - outermost
};

// Rank checking is on in debug builds and whenever QKDPP_LOCK_RANK_CHECKS
// is defined (CMake sets it for the sanitizer/TSan trees, which build
// RelWithDebInfo and would otherwise compile the checker out with NDEBUG).
#if !defined(NDEBUG) || defined(QKDPP_LOCK_RANK_CHECKS)
#define QKDPP_LOCK_RANK_CHECKS_ENABLED 1
#else
#define QKDPP_LOCK_RANK_CHECKS_ENABLED 0
#endif

/// True when this build aborts on lock-order violations (tests use this to
/// skip the death tests in Release).
constexpr bool lock_rank_checks_enabled() noexcept {
  return QKDPP_LOCK_RANK_CHECKS_ENABLED != 0;
}

namespace detail {
#if QKDPP_LOCK_RANK_CHECKS_ENABLED
// Validate + record an acquisition on this thread's held stack; aborts with
// both lock names if `rank` is not strictly below every held rank.
void rank_acquire(int rank, const char* name);
void rank_release(int rank, const char* name) noexcept;
#else
inline void rank_acquire(int, const char*) {}
inline void rank_release(int, const char*) noexcept {}
#endif
}  // namespace detail

/// Exclusive mutex with a rank and a name. Satisfies BasicLockable, so
/// CondVar (condition_variable_any) can wait on it directly.
class QKD_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() QKD_ACQUIRE() {
    detail::rank_acquire(rank_, name_);
    impl_.lock();
  }
  bool try_lock() QKD_TRY_ACQUIRE(true) {
    if (!impl_.try_lock()) return false;
    // Validate after the fact: a successful try_lock cannot have blocked,
    // but an out-of-order acquisition is still a hierarchy violation.
    detail::rank_acquire(rank_, name_);
    return true;
  }
  void unlock() QKD_RELEASE() {
    detail::rank_release(rank_, name_);
    impl_.unlock();
  }

  int rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }

  /// For the rare call that must bypass the wrapper (none today); also
  /// anchors negative capability expressions.
  const Mutex& operator!() const { return *this; }

 private:
  std::mutex impl_;
  const int rank_;
  const char* const name_;
};

/// Reader-writer mutex with a rank and a name.
class QKD_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() QKD_ACQUIRE() {
    detail::rank_acquire(rank_, name_);
    impl_.lock();
  }
  void unlock() QKD_RELEASE() {
    detail::rank_release(rank_, name_);
    impl_.unlock();
  }
  void lock_shared() QKD_ACQUIRE_SHARED() {
    // Shared acquisitions rank-check too: reader-then-reader on the same
    // mutex from one thread can still deadlock against a queued writer.
    detail::rank_acquire(rank_, name_);
    impl_.lock_shared();
  }
  void unlock_shared() QKD_RELEASE_SHARED() {
    detail::rank_release(rank_, name_);
    impl_.unlock_shared();
  }

  int rank() const noexcept { return rank_; }
  const char* name() const noexcept { return name_; }
  const SharedMutex& operator!() const { return *this; }

 private:
  std::shared_mutex impl_;
  const int rank_;
  const char* const name_;
};

/// RAII exclusive lock. Relockable (lock()/unlock()) so CondVar can wait on
/// it, and so slow paths can drop the lock around blocking work.
class QKD_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) QKD_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
    owned_ = true;
  }
  ~MutexLock() QKD_RELEASE() {
    if (owned_) mutex_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() QKD_ACQUIRE() {
    mutex_.lock();
    owned_ = true;
  }
  void unlock() QKD_RELEASE() {
    mutex_.unlock();
    owned_ = false;
  }

 private:
  Mutex& mutex_;
  bool owned_ = false;
};

/// RAII exclusive lock over a SharedMutex.
class QKD_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mutex) QKD_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~WriterLock() QKD_RELEASE() { mutex_.unlock(); }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// RAII shared (reader) lock over a SharedMutex.
class QKD_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mutex) QKD_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.lock_shared();
  }
  ~ReaderLock() QKD_RELEASE_GENERIC() { mutex_.unlock_shared(); }
  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mutex_;
};

/// Condition variable usable with qkdpp::Mutex / MutexLock. Waits must be
/// written as explicit `while (!cond) cv.wait(lock);` loops when the
/// condition reads QKD_GUARDED_BY fields: thread-safety analysis treats a
/// predicate lambda as a separate unannotated function and would flag it.
using CondVar = std::condition_variable_any;

}  // namespace qkdpp
