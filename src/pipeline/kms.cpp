#include "pipeline/kms.hpp"

#include <numeric>

namespace qkdpp::pipeline {

const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kEmpty: return "empty";
    case RejectReason::kOversized: return "oversized";
    case RejectReason::kCapacity: return "capacity";
    case RejectReason::kCount_: break;
  }
  return "unknown";
}

KeyStore::KeyStore(KeyStoreConfig config) : config_(config) {}

DepositResult KeyStore::reject_locked(RejectReason reason,
                                      std::uint64_t bits) {
  ++rejected_by_reason_[static_cast<std::size_t>(reason)];
  rejected_bits_ += bits;
  return DepositResult{0, reason};
}

DepositResult KeyStore::deposit(BitVec key) {
  const std::uint64_t bits = key.size();
  MutexLock lock(mutex_);
  // An empty key carries no material; minting an id would let consumers
  // draw zero-bit "keys" that still count toward keys_available().
  if (bits == 0) return reject_locked(RejectReason::kEmpty, 0);
  if (config_.capacity_bits != 0 && bits > config_.capacity_bits) {
    return reject_locked(RejectReason::kOversized, bits);
  }
  if (!fits_locked(bits)) return reject_locked(RejectReason::kCapacity, bits);
  const std::uint64_t id = next_id_++;
  in_store_bits_ += bits;
  deposited_bits_ += bits;
  keys_.emplace_hint(keys_.end(), id, std::move(key));
  return DepositResult{id, RejectReason::kNone};
}

StoredKey KeyStore::take_locked(std::map<std::uint64_t, BitVec>::iterator it,
                                std::string_view consumer) {
  StoredKey out{it->first, std::move(it->second)};
  keys_.erase(it);
  const std::uint64_t bits = out.bits.size();
  in_store_bits_ -= bits;
  consumed_bits_ += bits;
  if (consumer.empty()) consumer = kAnonymousConsumer;
  const auto entry = drawn_.find(consumer);
  if (entry != drawn_.end()) {
    entry->second += bits;
  } else {
    drawn_.emplace(std::string(consumer), bits);
  }
  return out;
}

std::optional<StoredKey> KeyStore::get_key(std::string_view consumer) {
  MutexLock lock(mutex_);
  if (keys_.empty()) return std::nullopt;
  return take_locked(keys_.begin(), consumer);  // ids ascend: FIFO
}

std::optional<StoredKey> KeyStore::get_key_with_id(std::uint64_t key_id,
                                                   std::string_view consumer) {
  MutexLock lock(mutex_);
  const auto it = keys_.find(key_id);
  if (it == keys_.end()) return std::nullopt;
  return take_locked(it, consumer);
}

std::size_t KeyStore::keys_available() const {
  MutexLock lock(mutex_);
  return keys_.size();
}

std::uint64_t KeyStore::bits_available() const {
  MutexLock lock(mutex_);
  return in_store_bits_;
}

std::uint64_t KeyStore::total_deposited_bits() const {
  MutexLock lock(mutex_);
  return deposited_bits_;
}

std::uint64_t KeyStore::total_consumed_bits() const {
  MutexLock lock(mutex_);
  return consumed_bits_;
}

std::uint64_t KeyStore::rejected_keys() const {
  MutexLock lock(mutex_);
  return std::accumulate(rejected_by_reason_.begin(),
                         rejected_by_reason_.end(), std::uint64_t{0});
}

std::uint64_t KeyStore::rejected_bits() const {
  MutexLock lock(mutex_);
  return rejected_bits_;
}

std::uint64_t KeyStore::rejected_keys(RejectReason reason) const {
  // kCount_ is a public enumerator; guard rather than index past the end.
  if (static_cast<std::size_t>(reason) >= kRejectReasonCount) return 0;
  MutexLock lock(mutex_);
  return rejected_by_reason_[static_cast<std::size_t>(reason)];
}

std::uint64_t KeyStore::consumed_by(std::string_view consumer) const {
  if (consumer.empty()) consumer = kAnonymousConsumer;
  MutexLock lock(mutex_);
  const auto it = drawn_.find(consumer);
  return it != drawn_.end() ? it->second : 0;
}

std::map<std::string, std::uint64_t> KeyStore::draw_accounting() const {
  MutexLock lock(mutex_);
  return {drawn_.begin(), drawn_.end()};
}

}  // namespace qkdpp::pipeline
