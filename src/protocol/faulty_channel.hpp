// Seeded, deterministic classical-channel fault injection.
//
// FaultyChannel decorates any ClassicalChannel and perturbs *egress* traffic:
// drops, single-bit corruption, duplication, reordering, bounded delay, and
// timed outage windows during which every frame is lost. All randomness comes
// from one Xoshiro256 stream keyed by the constructor seed, so a given
// (seed, traffic) pair always injects the identical fault pattern — the
// property the fleet-chaos test's byte-identical same-seed gate rests on.
//
// The injector sits *below* the ARQ layer (ReliableChannel) and below
// authentication, mimicking a lossy network segment: retransmission heals
// what it injects, while deliberate tampering above the ARQ layer still
// surfaces as an authentication failure.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "protocol/channel.hpp"

namespace qkdpp::protocol {

/// A window of send indices (frames counted at this endpoint) during which
/// the link is dead: every frame in [begin_frame, end_frame) is dropped.
struct OutageWindow {
  std::uint64_t begin_frame = 0;
  std::uint64_t end_frame = 0;
};

/// Per-frame fault probabilities (independent draws, applied in the order
/// drop -> corrupt -> duplicate -> reorder/delay) plus outage bursts.
struct FaultProfile {
  double drop = 0.0;       ///< frame vanishes
  double corrupt = 0.0;    ///< one bit flipped at a seeded position
  double duplicate = 0.0;  ///< frame delivered twice
  double reorder = 0.0;    ///< frame held and released after a later one
  double delay = 0.0;      ///< frame held for up to max_delay_frames sends
  std::uint32_t max_delay_frames = 3;
  std::vector<OutageWindow> outages;

  bool any() const noexcept {
    return drop > 0.0 || corrupt > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           delay > 0.0 || !outages.empty();
  }

  /// Throws Error{kConfig} on probabilities outside [0,1] or inverted
  /// outage windows.
  void validate() const;
};

/// Per-kind injection tallies (frames, not bits).
struct FaultCounters {
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t delayed = 0;
  std::uint64_t outage_dropped = 0;

  std::uint64_t total() const noexcept {
    return dropped + corrupted + duplicated + reordered + delayed +
           outage_dropped;
  }

  FaultCounters& operator+=(const FaultCounters& other) noexcept {
    dropped += other.dropped;
    corrupted += other.corrupted;
    duplicated += other.duplicated;
    reordered += other.reordered;
    delayed += other.delayed;
    outage_dropped += other.outage_dropped;
    return *this;
  }
};

class FaultyChannel final : public ClassicalChannel {
 public:
  /// Validates `profile`; `seed` keys the fault pattern.
  FaultyChannel(std::unique_ptr<ClassicalChannel> inner, FaultProfile profile,
                std::uint64_t seed);

  void send(std::vector<std::uint8_t> frame) override;
  std::vector<std::uint8_t> receive() override { return inner_->receive(); }
  std::optional<std::vector<std::uint8_t>> receive_for(
      std::chrono::microseconds timeout) override {
    return inner_->receive_for(timeout);
  }
  void close() override;

  /// Inner counters plus this injector's faults_injected.
  ChannelCounters counters() const override;

  const FaultCounters& fault_counters() const noexcept { return faults_; }

 private:
  bool in_outage(std::uint64_t frame_index) const noexcept;
  void flush_held(bool force);

  std::unique_ptr<ClassicalChannel> inner_;
  FaultProfile profile_;
  Xoshiro256 rng_;
  std::uint64_t sent_ = 0;  ///< frames offered to send(), faulted or not
  FaultCounters faults_;

  /// Frames held back by reorder/delay faults, tagged with the send index
  /// at which they are released back onto the wire.
  struct HeldFrame {
    std::vector<std::uint8_t> frame;
    std::uint64_t release_at;
  };
  std::deque<HeldFrame> held_;
};

std::unique_ptr<FaultyChannel> make_faulty_channel(
    std::unique_ptr<ClassicalChannel> inner, FaultProfile profile,
    std::uint64_t seed);

}  // namespace qkdpp::protocol
