#include "protocol/reliable_channel.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/crc.hpp"
#include "common/error.hpp"

namespace qkdpp::protocol {

namespace {

// Wire layout (little-endian): [type][u64 seq][u32 crc][payload...].
// The CRC is computed over the whole frame with the CRC field zeroed, so
// header corruption (type or sequence number) is caught, not just payload.
constexpr std::uint8_t kDataType = 0xD1;
constexpr std::uint8_t kAckType = 0xA5;
constexpr std::size_t kSeqOffset = 1;
constexpr std::size_t kCrcOffset = 9;
constexpr std::size_t kHeaderBytes = 13;

void put_u64(std::vector<std::uint8_t>& buf, std::size_t off,
             std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buf[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& buf, std::size_t off) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= std::uint64_t{buf[off + static_cast<std::size_t>(i)]} << (8 * i);
  }
  return value;
}

std::vector<std::uint8_t> encode_frame(std::uint8_t type, std::uint64_t seq,
                                       const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire(kHeaderBytes + payload.size());
  wire[0] = type;
  put_u64(wire, kSeqOffset, seq);
  std::copy(payload.begin(), payload.end(), wire.begin() + kHeaderBytes);
  const std::uint32_t crc = crc32c(wire);
  for (int i = 0; i < 4; ++i) {
    wire[kCrcOffset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return wire;
}

/// Extract and re-verify the CRC in place; false on any mismatch.
bool crc_ok(std::vector<std::uint8_t>& wire) {
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= std::uint32_t{wire[kCrcOffset + static_cast<std::size_t>(i)]}
              << (8 * i);
    wire[kCrcOffset + static_cast<std::size_t>(i)] = 0;
  }
  return crc32c(wire) == stored;
}

}  // namespace

void RetryPolicy::validate() const {
  auto check = [](bool ok, const char* what) {
    if (!ok) throw_error(ErrorCode::kConfig, what);
  };
  check(base_timeout.count() > 0, "RetryPolicy.base_timeout must be positive");
  check(backoff >= 1.0, "RetryPolicy.backoff must be >= 1");
  check(jitter >= 0.0 && jitter < 1.0, "RetryPolicy.jitter must be in [0, 1)");
  check(exchange_deadline.count() > 0,
        "RetryPolicy.exchange_deadline must be positive");
}

ReliableChannel::ReliableChannel(std::unique_ptr<ClassicalChannel> inner,
                                 RetryPolicy policy, std::uint64_t jitter_seed)
    : inner_(std::move(inner)), policy_(policy), jitter_rng_(jitter_seed) {
  policy_.validate();
}

std::chrono::microseconds ReliableChannel::next_wait(std::uint32_t attempt) {
  double wait = static_cast<double>(policy_.base_timeout.count());
  for (std::uint32_t i = 0; i < attempt; ++i) {
    wait *= policy_.backoff;
    if (wait >= static_cast<double>(policy_.max_timeout.count())) break;
  }
  wait = std::min(wait, static_cast<double>(policy_.max_timeout.count()));
  if (policy_.jitter > 0.0) {
    wait *= 1.0 + policy_.jitter * (2.0 * jitter_rng_.next_double() - 1.0);
  }
  return std::chrono::microseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(wait)));
}

void ReliableChannel::transmit(const std::vector<std::uint8_t>& wire) {
  inner_->send(wire);
}

void ReliableChannel::send_ack() {
  // Best-effort: a lost (or unsendable) ack is healed by the peer's
  // retransmission, which we dedup and re-ack.
  try {
    transmit(encode_frame(kAckType, next_deliver_seq_, {}));
  } catch (const Error& e) {
    if (e.code() != ErrorCode::kChannelClosed) throw;
  }
}

void ReliableChannel::retransmit_unacked() {
  for (const auto& entry : unacked_) {
    retransmits_ += 1;
    try {
      transmit(entry.second);
    } catch (const Error& e) {
      // A closed peer surfaces on the next receive; keep the typed
      // closure there rather than from a background retransmission.
      if (e.code() != ErrorCode::kChannelClosed) throw;
      return;
    }
  }
}

bool ReliableChannel::absorb(std::vector<std::uint8_t> wire) {
  if (wire.size() < kHeaderBytes || !crc_ok(wire)) {
    corrupt_dropped_ += 1;
    return false;
  }
  const std::uint8_t type = wire[0];
  const std::uint64_t seq = get_u64(wire, kSeqOffset);

  if (type == kAckType) {
    // Cumulative: everything below `seq` has been delivered at the peer.
    unacked_.erase(unacked_.begin(), unacked_.lower_bound(seq));
    return false;
  }
  if (type != kDataType) {
    corrupt_dropped_ += 1;
    return false;
  }

  if (seq < next_deliver_seq_ || reorder_.count(seq) != 0) {
    // Replay or duplicate: discard idempotently, but re-ack — the peer is
    // retransmitting precisely because it never saw our acknowledgment.
    duplicates_dropped_ += 1;
    send_ack();
    return false;
  }

  reorder_.emplace(seq,
                   std::vector<std::uint8_t>(wire.begin() + kHeaderBytes,
                                             wire.end()));
  bool progressed = false;
  for (auto it = reorder_.find(next_deliver_seq_); it != reorder_.end();
       it = reorder_.find(next_deliver_seq_)) {
    deliverable_.push_back(std::move(it->second));
    reorder_.erase(it);
    next_deliver_seq_ += 1;
    progressed = true;
  }
  send_ack();
  return progressed;
}

void ReliableChannel::send(std::vector<std::uint8_t> frame) {
  const std::uint64_t seq = next_send_seq_++;
  const auto it =
      unacked_.emplace(seq, encode_frame(kDataType, seq, frame)).first;
  transmit(it->second);
}

std::vector<std::uint8_t> ReliableChannel::receive() {
  const auto deadline =
      std::chrono::steady_clock::now() + policy_.exchange_deadline;
  std::uint32_t attempt = 0;
  for (;;) {
    if (!deliverable_.empty()) {
      auto frame = std::move(deliverable_.front());
      deliverable_.pop_front();
      return frame;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      throw_error(ErrorCode::kTimeout, "exchange deadline exceeded");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
    const auto wait = std::min(next_wait(attempt), remaining);
    auto wire = inner_->receive_for(wait);
    if (wire.has_value()) {
      absorb(std::move(*wire));
      attempt = 0;  // the wire is alive; restart the backoff ladder
    } else {
      retry_timeouts_ += 1;
      if (unacked_.empty()) {
        // Nothing to retransmit, yet the peer is silent: probe with a
        // re-ack. The peer may be waiting on a frame its injector is
        // holding (a delay fault releases held frames only on later
        // sends), and a blocked endpoint that emits no traffic at all can
        // otherwise stall an exchange until the deadline.
        send_ack();
      } else {
        retransmit_unacked();
      }
      attempt += 1;
    }
  }
}

void ReliableChannel::close() {
  if (closed_) return;
  closed_ = true;
  // Linger: our last DATA frame may still be unacknowledged (or lost). Keep
  // pumping acks and retransmissions briefly so the peer's session can
  // finish; without this, a drop on the final message of a block would
  // abort the peer even though we already succeeded.
  const auto deadline =
      std::chrono::steady_clock::now() + policy_.close_linger;
  std::uint32_t attempt = 0;
  try {
    while (!unacked_.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      const auto remaining =
          std::chrono::duration_cast<std::chrono::microseconds>(deadline -
                                                                now);
      auto wire = inner_->receive_for(std::min(next_wait(attempt), remaining));
      if (wire.has_value()) {
        absorb(std::move(*wire));
        attempt = 0;
      } else {
        retry_timeouts_ += 1;
        retransmit_unacked();
        attempt += 1;
      }
    }
  } catch (const Error&) {
    // Peer gone: teardown proceeds either way.
  }
  inner_->close();
}

ChannelCounters ReliableChannel::counters() const {
  ChannelCounters c = inner_->counters();
  c.retransmits += retransmits_;
  c.retry_timeouts += retry_timeouts_;
  c.duplicates_dropped += duplicates_dropped_;
  c.corrupt_dropped += corrupt_dropped_;
  return c;
}

}  // namespace qkdpp::protocol
