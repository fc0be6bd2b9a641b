// Shared post-processing parameters and engine construction options.
//
// PostprocessParams is the single knob set for one distillation chain -
// the engine and both peers of the two-party session consume the same
// struct. EngineOptions selects the device roster and the stage->device
// placement policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "hetero/device.hpp"
#include "hetero/device_set.hpp"
#include "privacy/pa_planner.hpp"
#include "protocol/messages.hpp"
#include "reconcile/cascade.hpp"
#include "reconcile/reconciler.hpp"

namespace qkdpp::engine {

/// Parameters of the post-processing chain proper (everything downstream of
/// raw detections). Identical for the engine and session entry points.
struct PostprocessParams {
  /// Fraction of sifted *signal* bits sacrificed to parameter estimation.
  double pe_fraction = 0.10;
  /// Abort threshold on the estimated QBER (BB84 hard limit is 11%).
  double qber_abort = 0.11;
  protocol::ReconcileMethod method = protocol::ReconcileMethod::kLdpc;
  reconcile::LdpcReconcilerConfig ldpc;
  /// 6 passes, not CascadeConfig's 4: the residual-error rate of 4 passes
  /// fails verification too often near the QBER abort threshold.
  reconcile::CascadeConfig cascade = {.passes = 6};
  privacy::SecurityParams security;
};

/// How the engine turns the stage x device cost matrix into a placement.
enum class PlacementPolicy : std::uint8_t {
  kOptimized = 0,  ///< exhaustive mapper (provably optimal under the model)
  kFixed = 1,      ///< every stage on options.fixed_device
};

/// Nominal per-block workload the mapper prices stages against. Defaults
/// approximate a metro-link 2^20-pulse block.
struct StageWorkload {
  std::size_t pulses = std::size_t{1} << 20;
  std::size_t sifted_bits = 40000;
  std::size_t key_bits = 30000;
  double qber = 0.02;
};

struct EngineOptions {
  /// Device roster; empty selects the standard four-kind set
  /// (cpu-scalar, cpu-parallel, gpu-sim, fpga-sim).
  std::vector<hetero::DeviceProps> devices;
  /// When set, the engine runs on this *shared* device set instead of
  /// building its own from `devices` and `threads`. Either way it commits
  /// its placement's per-device load to the set's ledger, and under
  /// kOptimized the placement is priced against the load other engines
  /// already committed - the arbitration path that lets many links share
  /// one physical machine (LinkOrchestrator). The kFixed baseline stays
  /// deliberately contention-blind but still commits the load it will
  /// really impose, so later kOptimized engines see it.
  std::shared_ptr<hetero::DeviceSet> shared_devices;
  PlacementPolicy policy = PlacementPolicy::kOptimized;
  /// Roster index every stage is pinned to under PlacementPolicy::kFixed.
  std::uint32_t fixed_device = 0;
  /// Host threads backing cpu-parallel kernels and the simulated
  /// accelerators (0 = hardware concurrency).
  std::size_t threads = 0;
  StageWorkload workload;

  /// Single cpu-scalar device (the seed pipelines' behaviour).
  static EngineOptions cpu_only();
  /// Standard four-device roster, optimized placement.
  static EngineOptions standard(std::size_t threads = 0);
  /// Standard roster with every stage pinned to `kind`.
  static EngineOptions pinned(hetero::DeviceKind kind,
                              std::size_t threads = 0);
};

}  // namespace qkdpp::engine
