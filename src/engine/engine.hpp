// PostprocessEngine: the public entry point of the library.
//
// Construction runs the stage->device mapping optimizer over the configured
// device roster (the paper's placement search), then every block
// (process_block) executes the five-stage chain with each stage on its
// assigned device. CPU devices charge measured wall-clock, the simulated
// accelerators charge modeled time, and the arithmetic is host-side and
// bit-exact on every placement, so device selection changes the clock, not
// the key. The two-party session (pipeline/session.hpp) runs the same stage
// primitives over a classical channel and ends with this engine's key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "engine/block.hpp"
#include "engine/params.hpp"
#include "engine/stage.hpp"
#include "hetero/device.hpp"
#include "hetero/device_set.hpp"
#include "hetero/mapper.hpp"
#include "hetero/trace.hpp"

namespace qkdpp::engine {

/// The placement the engine chose at construction.
struct Placement {
  std::vector<std::string> stage_names;
  std::vector<std::string> device_names;
  std::vector<std::uint32_t> device_of_stage;
  double predicted_items_per_s = 0.0;
  double bottleneck_load_s = 0.0;

  const std::string& device_of(std::size_t stage) const {
    return device_names[device_of_stage[stage]];
  }
};

/// Post-construction per-device accounting snapshot.
struct DeviceReport {
  std::string name;
  hetero::DeviceKind kind = hetero::DeviceKind::kCpuScalar;
  double busy_seconds = 0.0;
  std::uint64_t kernels_launched = 0;
};

class PostprocessEngine {
 public:
  explicit PostprocessEngine(PostprocessParams params,
                             EngineOptions options = EngineOptions::standard());
  ~PostprocessEngine();

  PostprocessEngine(const PostprocessEngine&) = delete;
  PostprocessEngine& operator=(const PostprocessEngine&) = delete;

  /// Snapshot of the current parameters (replan/adaptation may retune the
  /// reconciler mid-run, so this copies under the plan lock).
  PostprocessParams params() const;
  /// Snapshot of the current placement (replan swaps it mid-run).
  Placement placement() const;
  /// The stage x device cost matrix the current placement was chosen from.
  hetero::MappingProblem mapping_problem() const;
  std::vector<DeviceReport> device_report() const;

  /// Re-run the placement search for the current device roster: offline
  /// devices are priced infeasible, the set's base load is re-read (our
  /// own previous commitment excluded), per-device modeled costs are
  /// multiplied by the EWMA observed/predicted correction learned from
  /// completed blocks, and the stage workload is refreshed to `workload`.
  /// The old commitment is retracted and the new one committed. The swap
  /// happens under the plan lock: in-flight blocks finish on the placement
  /// they started with, later blocks use the new one. Returns the new
  /// placement.
  Placement replan(const StageWorkload& workload);
  /// Replan with the workload unchanged.
  Placement replan();

  /// Deterministically retune the reconciler to a windowed QBER estimate.
  /// Measured on this codebase (see ScenarioGate in service_dynamic_test):
  /// the LDPC family is the right choice on a quiet channel (one-way,
  /// accelerator-offloadable, FER ~0 below ~3% QBER at f_target 1.45), but
  /// mid-band its fixed
  /// efficiency target wastes ~0.25 h2(q) of key per bit versus Cascade
  /// (~1.2), and above ~8% its rate adaptation saturates and frames start
  /// dying wholesale - while Cascade converges all the way to the abort
  /// threshold. So the method switches to Cascade once the windowed QBER
  /// crosses the mid-band, with the pass count stepped up in the hot band,
  /// and back to LDPC when the channel calms down. Affects blocks started
  /// after the call; placement is untouched, but a method change flips
  /// reconcile's device feasibility (Cascade is host-only), so the caller
  /// should replan when this returns true.
  bool adapt_to_qber(double windowed_qber);

  /// Number of replan() calls so far.
  std::uint64_t replans() const;
  /// The EWMA observed-cost feedback accumulated from completed stages.
  /// The mutable overload lets a caller seed observations (tests, or a
  /// controller importing costs measured out-of-band); process_block feeds
  /// it automatically.
  const hetero::StageCostModel& cost_model() const noexcept {
    return cost_model_;
  }
  hetero::StageCostModel& cost_model() noexcept { return cost_model_; }

  /// Run one block end to end, synchronously. Aborted blocks return
  /// success=false with the stage's reason in abort_reason (expected
  /// behaviour on hot channels, not an exception).
  BlockOutcome process_block(const BlockInput& input, std::uint64_t block_id,
                             Xoshiro256& rng);

 private:
  void build_problem_locked() QKD_REQUIRES(plan_mutex_);
  void solve_and_commit_locked() QKD_REQUIRES(plan_mutex_);

  /// Construction writes it freely (no concurrent readers exist yet);
  /// afterwards every access goes through plan_mutex_ (adapt_to_qber
  /// mutates method/cascade settings while blocks snapshot).
  PostprocessParams params_ QKD_GUARDED_BY(plan_mutex_);
  EngineOptions options_;
  /// The roster the stages run on: options.shared_devices, or a set built
  /// from options.devices and options.threads that only this engine uses.
  std::shared_ptr<hetero::DeviceSet> devices_;
  std::vector<std::unique_ptr<StageExecutor>> executors_;
  /// Guards placement_/problem_/raw_model_/params_/committed_by_this_:
  /// process_block snapshots under it, replan()/adapt_to_qber() swap under
  /// it, so re-planning never drains or stalls in-flight blocks. Held
  /// across DeviceSet commit/uncommit (rank above the ledger), released
  /// before any kernel runs.
  mutable Mutex plan_mutex_{LockRank::kEnginePlan, "engine.plan"};
  /// EWMA-corrected costs (mapper input).
  hetero::MappingProblem problem_ QKD_GUARDED_BY(plan_mutex_);
  /// Uncorrected model costs, same shape as problem_: observed stage times
  /// are ratioed against these so the EWMA correction converges instead of
  /// compounding through its own previous value.
  std::vector<std::vector<double>> raw_model_ QKD_GUARDED_BY(plan_mutex_);
  Placement placement_ QKD_GUARDED_BY(plan_mutex_);
  /// Per-device load this engine currently has committed to devices_.
  std::vector<double> committed_by_this_ QKD_GUARDED_BY(plan_mutex_);
  hetero::StageCostModel cost_model_{kStageCount};
  std::uint64_t replan_count_ QKD_GUARDED_BY(plan_mutex_) = 0;
};

}  // namespace qkdpp::engine
