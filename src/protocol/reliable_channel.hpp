// ARQ decorator: exactly-once, in-order delivery over a lossy channel.
//
// ReliableChannel wraps any ClassicalChannel and runs a stop-and-wait-free
// sliding ARQ over it: every application frame becomes a DATA frame carrying
// a per-direction sequence number and a CRC32C, receivers ack cumulatively
// and buffer out-of-order arrivals, and senders retransmit unacknowledged
// frames whenever a receive wait times out — with exponential backoff and
// seeded jitter so two retransmitting peers don't lock step. CRC failures
// are treated as drops (the frame is discarded and healed by retransmission;
// the CRC is integrity plumbing, not security — Wegman-Carter authentication
// layers *above* this decorator). Replayed or duplicated frames are
// discarded idempotently and re-acked.
//
// Liveness has one budget, the per-receive exchange deadline: a peer that is
// only computing keeps its unacknowledged frames retransmitting on the
// capped backoff, and only a receive that overruns the deadline throws
// Error{kTimeout}, which the session maps to a typed block abort.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "protocol/channel.hpp"

namespace qkdpp::protocol {

/// Retransmission posture. Defaults suit the in-process transport where a
/// healthy round trip is microseconds; a real WAN deployment would scale
/// base_timeout to its RTT.
struct RetryPolicy {
  /// First receive-wait before retransmitting.
  std::chrono::microseconds base_timeout{1500};
  /// Wait multiplier per consecutive empty wait.
  double backoff = 2.0;
  /// Cap on the backed-off wait: the retransmit period while a peer is
  /// busy or the channel is dark.
  std::chrono::microseconds max_timeout{50000};
  /// Seeded +/- fraction applied to every wait so peers desynchronize.
  double jitter = 0.25;
  /// Per-receive() deadline, the only test of whether the peer is alive:
  /// must cover the peer's worst-case compute between protocol messages (an
  /// LDPC decode, a Toeplitz pass), not just network time. Overrunning it
  /// throws Error{kTimeout}.
  std::chrono::milliseconds exchange_deadline{5000};
  /// Grace period close() spends pumping acks/retransmits so a peer whose
  /// final frame was lost can still be healed before teardown.
  std::chrono::milliseconds close_linger{250};

  /// Throws Error{kConfig} on a non-positive timeout or deadline, backoff
  /// below 1, or jitter outside [0, 1).
  void validate() const;
};

class ReliableChannel final : public ClassicalChannel {
 public:
  /// `jitter_seed` keys only the backoff jitter; it never touches payload
  /// bytes, so delivered data is seed-independent.
  ReliableChannel(std::unique_ptr<ClassicalChannel> inner,
                  RetryPolicy policy = {}, std::uint64_t jitter_seed = 1);

  /// Sequence-stamp, checksum and transmit; the frame is retained until the
  /// peer acknowledges it.
  void send(std::vector<std::uint8_t> frame) override;

  /// Next in-order application frame, exactly once. Drives retransmission
  /// of unacked frames while waiting. Throws Error{kTimeout} past the
  /// exchange deadline, Error{kChannelClosed} once the peer is gone.
  std::vector<std::uint8_t> receive() override;

  /// Linger-pump outstanding retransmissions, then close the inner channel.
  void close() override;

  /// Inner (wire-level) counters plus this layer's retransmit/dedup/CRC
  /// tallies.
  ChannelCounters counters() const override;

 private:
  void transmit(const std::vector<std::uint8_t>& wire);
  void send_ack();
  void retransmit_unacked();
  /// Handle one wire frame; returns true if an application frame became
  /// deliverable.
  bool absorb(std::vector<std::uint8_t> wire);
  std::chrono::microseconds next_wait(std::uint32_t attempt);

  std::unique_ptr<ClassicalChannel> inner_;
  RetryPolicy policy_;
  Xoshiro256 jitter_rng_;

  std::uint64_t next_send_seq_ = 0;       ///< our outgoing stream
  /// Full encoded DATA frames the peer has not acknowledged, by seq.
  std::map<std::uint64_t, std::vector<std::uint8_t>> unacked_;

  std::uint64_t next_deliver_seq_ = 0;    ///< peer stream, next in-order seq
  std::map<std::uint64_t, std::vector<std::uint8_t>> reorder_;
  std::deque<std::vector<std::uint8_t>> deliverable_;

  bool closed_ = false;

  std::uint64_t retransmits_ = 0;
  std::uint64_t retry_timeouts_ = 0;
  std::uint64_t duplicates_dropped_ = 0;
  std::uint64_t corrupt_dropped_ = 0;
};

}  // namespace qkdpp::protocol
