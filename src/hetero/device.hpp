// Device abstraction for the heterogeneous post-processing runtime.
//
// Four device classes model the hardware mix the paper's perspective spans:
//
//   CpuScalar   - one host core; times are real wall-clock.
//   CpuParallel - host thread pool; times are real wall-clock.
//   GpuSim      - discrete-accelerator model: the SAME kernel arithmetic is
//                 executed on host threads for bit-exact results, while the
//                 clock charged is an analytic model
//                    t = launch + 2*transfer_latency + bytes_pcie/bw_pcie
//                        + max(ops/throughput, bytes_touched/mem_bw)
//   FpgaSim     - deep-pipelined streaming accelerator: flat per-bit rate
//                 plus pipeline fill latency, insensitive to iteration
//                 counts (the FPGA runs worst-case iterations in hardware).
//
// The sims stand in for CUDA/FPGA hardware so that placement can be studied
// on hosts without accelerators: scheduling decisions, batching effects and
// transfer accounting are driven by the same quantities that govern the
// real devices, while the keys stay bit-exact because the arithmetic runs
// on the host.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/mutex.hpp"
#include "common/stats.hpp"
#include "common/threadpool.hpp"

namespace qkdpp::hetero {

enum class DeviceKind : std::uint8_t {
  kCpuScalar = 0,
  kCpuParallel = 1,
  kGpuSim = 2,
  kFpgaSim = 3,
};

const char* to_string(DeviceKind kind) noexcept;

struct DeviceProps {
  std::string name;
  DeviceKind kind = DeviceKind::kCpuScalar;
  double compute_gops = 1.0;        ///< useful kernel ops/s, in Gops
  double mem_bandwidth_gbps = 10.0; ///< device memory bytes/s, in GB/s
  double transfer_gbps = 0.0;       ///< host link bytes/s (0 = unified)
  double transfer_latency_s = 0.0;  ///< per-direction transfer latency
  double launch_latency_s = 0.0;    ///< per-kernel-launch overhead
};

/// What a kernel execution cost, as reported by the kernel itself after
/// running (some costs - e.g. BP iteration counts - are only known then).
struct WorkEstimate {
  double ops = 0.0;               ///< arithmetic work actually performed
  double bytes_touched = 0.0;     ///< device-memory traffic
  double bytes_transferred = 0.0; ///< host <-> device traffic
};

class Device {
 public:
  explicit Device(DeviceProps props, ThreadPool* pool = nullptr)
      : props_(std::move(props)), pool_(pool) {}

  const DeviceProps& props() const noexcept { return props_; }
  DeviceKind kind() const noexcept { return props_.kind; }
  const std::string& name() const noexcept { return props_.name; }

  /// Pool for kernels that parallelize on the host (CpuParallel, and the
  /// sims - which execute host-side for correctness). Null for CpuScalar.
  ThreadPool* pool() const noexcept { return pool_; }

  /// Hot-remove / re-add: an offline device stays in the roster (indices
  /// and accounting survive) but must not receive new work - the mapper
  /// prices it infeasible and the engine aborts blocks whose placement
  /// still targets it. In-flight kernels are not interrupted.
  bool online() const noexcept {
    return online_.load(std::memory_order_acquire);
  }
  void set_online(bool online) noexcept {
    online_.store(online, std::memory_order_release);
  }

  /// Run `body` (which performs the real computation and reports its cost).
  /// Returns the seconds charged to this device: measured wall time for CPU
  /// kinds, modeled time for the simulated accelerators.
  double execute(const std::function<WorkEstimate()>& body);

  /// Total seconds charged so far (thread-safe).
  double busy_seconds() const;
  std::uint64_t kernels_launched() const;

  /// Pure model query: what would work costing `estimate` be charged?
  double model_seconds(const WorkEstimate& estimate) const noexcept;

 private:
  DeviceProps props_;
  ThreadPool* pool_;
  std::atomic<bool> online_{true};
  mutable Mutex mutex_{LockRank::kDevice, "device.accounting"};
  double busy_s_ QKD_GUARDED_BY(mutex_) = 0.0;
  std::uint64_t launches_ QKD_GUARDED_BY(mutex_) = 0;
};

/// Standard device set used by benches and examples. The GPU/FPGA property
/// sheets approximate a mid-range discrete accelerator and a deep-pipelined
/// decoder core with datasheet-scale figures (throughput, memory bandwidth,
/// PCIe rate and latency); they are not calibrated against a particular
/// card, so modeled times rank placements rather than predict wall time.
DeviceProps cpu_scalar_props();
DeviceProps cpu_parallel_props(std::size_t threads);
DeviceProps gpu_sim_props();
DeviceProps fpga_sim_props();

}  // namespace qkdpp::hetero
