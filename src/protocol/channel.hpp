// The authenticated-classical-channel abstraction between Alice and Bob.
//
// Post-processing correctness depends on exact accounting of what crossed
// this channel (reconciliation leakage, round counts), so the interface
// carries counters as first-class citizens. The in-process implementation
// connects two endpoints through bounded queues and models network latency /
// bandwidth as *virtual time* so tests stay fast while benches can still
// report round-trip-bound protocol costs.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace qkdpp::protocol {

struct ChannelCounters {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Modeled network time spent by this endpoint's traffic (latency +
  /// serialization at the configured bandwidth), in seconds.
  double virtual_time_s = 0.0;

  // Fault/recovery accounting. Raw endpoints leave these zero; the fault
  // injector and the ARQ decorator fold their own tallies in so one struct
  // travels from the channel through SessionResult up to LinkReport.
  std::uint64_t retransmits = 0;         ///< data frames re-sent by ARQ
  std::uint64_t retry_timeouts = 0;      ///< receive waits that expired
  std::uint64_t duplicates_dropped = 0;  ///< replayed frames discarded
  std::uint64_t corrupt_dropped = 0;     ///< CRC-failed frames discarded
  std::uint64_t faults_injected = 0;     ///< faults a FaultyChannel applied

  ChannelCounters& operator+=(const ChannelCounters& other) noexcept {
    messages_sent += other.messages_sent;
    messages_received += other.messages_received;
    bytes_sent += other.bytes_sent;
    bytes_received += other.bytes_received;
    virtual_time_s += other.virtual_time_s;
    retransmits += other.retransmits;
    retry_timeouts += other.retry_timeouts;
    duplicates_dropped += other.duplicates_dropped;
    corrupt_dropped += other.corrupt_dropped;
    faults_injected += other.faults_injected;
    return *this;
  }
};

/// Latency/bandwidth model applied per message (accounting only, no sleeps).
struct ChannelModel {
  double latency_s = 0.0;          ///< one-way latency per message
  double bandwidth_bps = 0.0;      ///< 0 = infinite
};

class ClassicalChannel {
 public:
  virtual ~ClassicalChannel() = default;

  /// Enqueue one framed message to the peer.
  virtual void send(std::vector<std::uint8_t> frame) = 0;

  /// Blocking receive of the next frame; throws Error{kChannelClosed} once
  /// the peer closed and the queue drained.
  virtual std::vector<std::uint8_t> receive() = 0;

  /// Timed receive: like receive() but returns std::nullopt once `timeout`
  /// elapses with nothing queued. The default implementation cannot honor
  /// the deadline and falls back to the blocking receive(); transports that
  /// support ARQ retransmission (the in-process pair does) override it.
  virtual std::optional<std::vector<std::uint8_t>> receive_for(
      std::chrono::microseconds timeout) {
    (void)timeout;
    return receive();
  }

  /// Signal end-of-session to the peer (idempotent).
  virtual void close() = 0;

  virtual ChannelCounters counters() const = 0;
};

/// A connected pair of in-process endpoints sharing a ChannelModel.
std::pair<std::unique_ptr<ClassicalChannel>, std::unique_ptr<ClassicalChannel>>
make_channel_pair(ChannelModel model = {});

}  // namespace qkdpp::protocol
