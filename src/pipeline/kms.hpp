// Mini key-management store, ETSI GS QKD 014 flavoured.
//
// Distilled keys land here under monotonically increasing ids; consumers
// draw either "any next key material" (get_key) or a specific key by id
// (get_key_with_id) - the two-endpoint pattern the ETSI local API uses so
// that an SAE pair can agree on which key secures which flow. Thread-safe;
// consumption is destructive exactly once.
//
// One mutex guards the key map, every aggregate and the per-consumer
// ledger. A store has one depositor (its link's worker) beside a few
// drawers, so nothing contends for more.
//
// The store is bounded: `capacity_bits` caps the material held at once
// (0 = unbounded). A deposit that would overflow is rejected with a
// statistic, so a slow consumer shows up as `rejected_bits` instead of
// unbounded memory, and the depositor never waits. Empty keys are always
// rejected: a zero-bit "key" has no material, and minting an id for it
// would let consumers draw nothing while keys_available() claims otherwise.
// Every rejection carries a typed RejectReason (DepositResult), so callers
// can tell an empty key from a capacity bound instead of decoding an
// id==0 sentinel. Draws are attributed per consumer name for ETSI-style
// SAE accounting; an empty name is attributed to the reserved "anonymous"
// consumer so unlabeled draws stay visible in the ledger.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/bitvec.hpp"
#include "common/mutex.hpp"

namespace qkdpp::pipeline {

struct StoredKey {
  std::uint64_t key_id = 0;
  BitVec bits;
};

/// Why a deposit was refused. kNone means the key was accepted.
enum class RejectReason : std::uint8_t {
  kNone = 0,      ///< accepted: DepositResult::key_id is valid
  kEmpty,         ///< zero-bit key (no material to store)
  kOversized,     ///< larger than the whole store capacity (can never fit)
  kCapacity,      ///< store full
  kCount_,        ///< sentinel: number of reasons, not a reason itself
};
inline constexpr std::size_t kRejectReasonCount =
    static_cast<std::size_t>(RejectReason::kCount_);

/// Stable human-readable name (logs, JSON error details, tests).
const char* to_string(RejectReason reason) noexcept;

/// Outcome of KeyStore::deposit: the minted id on acceptance, the typed
/// reason on rejection. Replaces the old `returns 0 on rejection` sentinel.
struct DepositResult {
  std::uint64_t key_id = 0;
  RejectReason reason = RejectReason::kNone;

  bool accepted() const noexcept { return reason == RejectReason::kNone; }
  explicit operator bool() const noexcept { return accepted(); }
};

/// Ledger name unlabeled draws are attributed to.
inline constexpr std::string_view kAnonymousConsumer = "anonymous";

struct KeyStoreConfig {
  std::uint64_t capacity_bits = 0;  ///< 0 = unbounded
};

class KeyStore {
 public:
  KeyStore() : KeyStore(KeyStoreConfig{}) {}
  explicit KeyStore(KeyStoreConfig config);

  const KeyStoreConfig& config() const noexcept { return config_; }

  /// Deposit a distilled key. The result carries the assigned id on
  /// acceptance, or the typed reason the key was refused (empty, larger
  /// than the whole capacity, or over the capacity left).
  DepositResult deposit(BitVec key);

  /// Oldest unconsumed key (FIFO), if any. Destructive; the draw is
  /// attributed to `consumer`.
  std::optional<StoredKey> get_key(std::string_view consumer = {});

  /// Specific key by id (peer-designated). Destructive; nullopt if absent
  /// or already consumed.
  std::optional<StoredKey> get_key_with_id(std::uint64_t key_id,
                                           std::string_view consumer = {});

  std::size_t keys_available() const;
  std::uint64_t bits_available() const;
  std::uint64_t total_deposited_bits() const;
  std::uint64_t total_consumed_bits() const;
  std::uint64_t rejected_keys() const;
  std::uint64_t rejected_bits() const;
  /// Rejections broken down by reason (kNone is always zero).
  std::uint64_t rejected_keys(RejectReason reason) const;

  /// Bits drawn so far by `consumer` (as passed to the get_* calls; the
  /// empty name reads the reserved "anonymous" ledger entry).
  std::uint64_t consumed_by(std::string_view consumer) const;
  /// Snapshot of the full per-consumer draw ledger.
  std::map<std::string, std::uint64_t> draw_accounting() const;

 private:
  bool fits_locked(std::uint64_t bits) const QKD_REQUIRES(mutex_) {
    return config_.capacity_bits == 0 ||
           in_store_bits_ + bits <= config_.capacity_bits;
  }
  DepositResult reject_locked(RejectReason reason, std::uint64_t bits)
      QKD_REQUIRES(mutex_);
  StoredKey take_locked(std::map<std::uint64_t, BitVec>::iterator it,
                        std::string_view consumer) QKD_REQUIRES(mutex_);

  KeyStoreConfig config_;

  mutable Mutex mutex_{LockRank::kStore, "kms.store"};
  std::map<std::uint64_t, BitVec> keys_ QKD_GUARDED_BY(mutex_);
  std::uint64_t next_id_ QKD_GUARDED_BY(mutex_) = 1;
  std::uint64_t in_store_bits_ QKD_GUARDED_BY(mutex_) = 0;
  std::uint64_t deposited_bits_ QKD_GUARDED_BY(mutex_) = 0;
  std::uint64_t consumed_bits_ QKD_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_bits_ QKD_GUARDED_BY(mutex_) = 0;
  std::array<std::uint64_t, kRejectReasonCount> rejected_by_reason_
      QKD_GUARDED_BY(mutex_) = {};
  /// Per-consumer draw ledger.
  std::map<std::string, std::uint64_t, std::less<>> drawn_
      QKD_GUARDED_BY(mutex_);
};

}  // namespace qkdpp::pipeline
