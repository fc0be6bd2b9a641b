#include "protocol/channel.hpp"

#include "common/error.hpp"
#include "common/mutex.hpp"

namespace qkdpp::protocol {

namespace {

/// Shared state of a connected endpoint pair: one queue per direction.
struct PairState {
  Mutex mutex{LockRank::kChannel, "channel.pair"};
  CondVar cv;
  /// Index = receiving side.
  std::deque<std::vector<std::uint8_t>> queue[2] QKD_GUARDED_BY(mutex);
  /// Index = closing side.
  bool closed[2] QKD_GUARDED_BY(mutex) = {false, false};
  ChannelModel model;  // set once before the endpoints exist; immutable
};

class InProcessEndpoint final : public ClassicalChannel {
 public:
  InProcessEndpoint(std::shared_ptr<PairState> state, int side)
      : state_(std::move(state)), side_(side) {}

  ~InProcessEndpoint() override { close(); }

  void send(std::vector<std::uint8_t> frame) override {
    const std::size_t frame_bytes = frame.size();
    {
      MutexLock lock(state_->mutex);
      if (state_->closed[side_]) {
        throw_error(ErrorCode::kChannelClosed, "send on closed endpoint");
      }
      if (state_->closed[1 - side_]) {
        throw_error(ErrorCode::kChannelClosed, "peer has closed");
      }
      state_->queue[1 - side_].push_back(std::move(frame));
      counters_.messages_sent += 1;
      counters_.bytes_sent += frame_bytes;
      counters_.virtual_time_s += cost_of(frame_bytes);
    }
    state_->cv.notify_all();
  }

  std::vector<std::uint8_t> receive() override {
    // Explicit wait loop (not the predicate-lambda overload): the
    // condition reads fields guarded by state_->mutex, and thread-safety
    // analysis cannot see a lambda body's lock context.
    MutexLock lock(state_->mutex);
    while (!ready_locked()) state_->cv.wait(lock);
    return take_front_locked();
  }

  std::optional<std::vector<std::uint8_t>> receive_for(
      std::chrono::microseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(state_->mutex);
    while (!ready_locked()) {
      if (state_->cv.wait_until(lock, deadline) == std::cv_status::timeout &&
          !ready_locked()) {
        return std::nullopt;
      }
    }
    return take_front_locked();
  }

  void close() override {
    {
      MutexLock lock(state_->mutex);
      state_->closed[side_] = true;
    }
    state_->cv.notify_all();
  }

  ChannelCounters counters() const override {
    MutexLock lock(state_->mutex);
    return counters_;
  }

 private:
  /// A frame is waiting or the pair can never produce one; mutex held.
  bool ready_locked() const QKD_REQUIRES(state_->mutex) {
    return !state_->queue[side_].empty() || state_->closed[1 - side_] ||
           state_->closed[side_];
  }

  /// Pop the head frame (or throw on closed-and-drained); mutex held.
  std::vector<std::uint8_t> take_front_locked()
      QKD_REQUIRES(state_->mutex) {
    if (state_->queue[side_].empty()) {
      throw_error(ErrorCode::kChannelClosed, "channel closed");
    }
    auto frame = std::move(state_->queue[side_].front());
    state_->queue[side_].pop_front();
    counters_.messages_received += 1;
    counters_.bytes_received += frame.size();
    return frame;
  }

  double cost_of(std::size_t bytes) const noexcept {
    double t = state_->model.latency_s;
    if (state_->model.bandwidth_bps > 0) {
      t += static_cast<double>(bytes) * 8.0 / state_->model.bandwidth_bps;
    }
    return t;
  }

  std::shared_ptr<PairState> state_;
  int side_;
  ChannelCounters counters_ QKD_GUARDED_BY(state_->mutex);
};

}  // namespace

std::pair<std::unique_ptr<ClassicalChannel>, std::unique_ptr<ClassicalChannel>>
make_channel_pair(ChannelModel model) {
  auto state = std::make_shared<PairState>();
  state->model = model;
  return {std::make_unique<InProcessEndpoint>(state, 0),
          std::make_unique<InProcessEndpoint>(state, 1)};
}

}  // namespace qkdpp::protocol
