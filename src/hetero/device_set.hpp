// Device roster every PostprocessEngine runs on: shared across the links
// of a multi-link deployment, or built by a lone engine for itself.
//
// One physical machine serves many QKD links: the links' engines must
// contend for the same Device objects (accounting, pools) instead of each
// assuming exclusive ownership. DeviceSet owns the pinned Device objects
// plus the host thread pool backing their parallel kernels, and keeps the
// arbitration ledger: every engine that places its stages on the set
// commits the per-device seconds/item its placement adds, and later
// engines price their placement against the committed load (see the
// mapper's base_load overloads). Construction-time commits are expected to
// happen sequentially (the orchestrator builds engines one by one);
// Device::execute itself is thread-safe, so the runtime side is free to
// run all links concurrently.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/mutex.hpp"
#include "common/threadpool.hpp"
#include "hetero/device.hpp"

namespace qkdpp::hetero {

class DeviceSet {
 public:
  /// Empty `props` selects the standard four-kind roster (cpu-scalar,
  /// cpu-parallel, gpu-sim, fpga-sim). `threads == 0` means hardware
  /// concurrency for the pool backing non-scalar kernels.
  explicit DeviceSet(std::vector<DeviceProps> props = {},
                     std::size_t threads = 0);

  DeviceSet(const DeviceSet&) = delete;
  DeviceSet& operator=(const DeviceSet&) = delete;

  std::size_t size() const noexcept { return devices_.size(); }
  Device& device(std::size_t i) { return devices_[i]; }
  const Device& device(std::size_t i) const { return devices_[i]; }

  /// Add `seconds_per_item[d]` to each device's committed steady-state
  /// load. Throws Error{kConfig} on length mismatch.
  void commit_loads(const std::vector<double>& seconds_per_item);

  /// Retract a previously committed placement (the replan path: an engine
  /// un-commits its old placement before committing the new one). Clamps
  /// at zero so float drift never leaves a phantom negative load. Throws
  /// Error{kConfig} on length mismatch.
  void uncommit_loads(const std::vector<double>& seconds_per_item);

  /// Per-device seconds/item committed by every placement so far.
  std::vector<double> committed_loads() const;

  /// Hot-remove / re-add device `i`. Bumps roster_version() so engines and
  /// the orchestrator can cheaply detect that placements are stale.
  void set_online(std::size_t i, bool online);

  /// Monotonic counter incremented by every set_online() transition.
  std::uint64_t roster_version() const noexcept {
    return roster_version_.load(std::memory_order_acquire);
  }

 private:
  std::unique_ptr<ThreadPool> pool_;
  std::deque<Device> devices_;  // Device is pinned (owns a mutex)
  std::atomic<std::uint64_t> roster_version_{0};
  mutable Mutex mutex_{LockRank::kDeviceSet, "device_set.ledger"};
  std::vector<double> committed_ QKD_GUARDED_BY(mutex_);
};

}  // namespace qkdpp::hetero
