#include "engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace qkdpp::engine {

EngineOptions EngineOptions::cpu_only() {
  EngineOptions options;
  options.devices = {hetero::cpu_scalar_props()};
  options.policy = PlacementPolicy::kFixed;
  options.fixed_device = 0;
  return options;
}

EngineOptions EngineOptions::standard(std::size_t threads) {
  EngineOptions options;
  options.threads = threads;
  return options;
}

EngineOptions EngineOptions::pinned(hetero::DeviceKind kind,
                                    std::size_t threads) {
  EngineOptions options = standard(threads);
  options.policy = PlacementPolicy::kFixed;
  options.fixed_device = static_cast<std::uint32_t>(kind);
  return options;
}

namespace {

double& timing_of(StageTimings& timings, StageKind kind) {
  switch (kind) {
    case StageKind::kSift: return timings.sift;
    case StageKind::kEstimate: return timings.estimate;
    case StageKind::kReconcile: return timings.reconcile;
    case StageKind::kVerify: return timings.verify;
    case StageKind::kAmplify: return timings.amplify;
  }
  return timings.sift;  // unreachable
}

}  // namespace

PostprocessEngine::PostprocessEngine(PostprocessParams params,
                                     EngineOptions options)
    : params_(std::move(params)), options_(std::move(options)) {
  QKDPP_REQUIRE(params_.pe_fraction > 0 && params_.pe_fraction < 1,
                "pe fraction outside (0,1)");
  QKDPP_REQUIRE(params_.qber_abort > 0 && params_.qber_abort <= 0.5,
                "qber abort threshold outside (0,0.5]");
  // Without a shared set the engine builds its own from the options, so
  // the stages always run on (and commit their load to) one DeviceSet.
  devices_ = options_.shared_devices
                 ? options_.shared_devices
                 : std::make_shared<hetero::DeviceSet>(options_.devices,
                                                       options_.threads);
  QKDPP_REQUIRE(devices_->size() > 0, "device set is empty");
  if (options_.policy == PlacementPolicy::kFixed &&
      options_.fixed_device >= devices_->size()) {
    throw_error(ErrorCode::kConfig, "fixed device index outside roster");
  }
  executors_ = make_stage_executors(params_);
  MutexLock lock(plan_mutex_);
  build_problem_locked();
  solve_and_commit_locked();
}

PostprocessEngine::~PostprocessEngine() {
  // The ledger records the load of *live* placements (replan() already
  // swaps rather than accumulates): a torn-down engine must not leave
  // phantom load steering the surviving links away from idle hardware.
  if (!committed_by_this_.empty()) {
    try {
      devices_->uncommit_loads(committed_by_this_);
    } catch (...) {
      // Length mismatch is impossible (sized from the same roster); never
      // let a bookkeeping error escape a destructor.
    }
  }
}

void PostprocessEngine::build_problem_locked() {
  problem_ = hetero::MappingProblem{};
  raw_model_.clear();
  for (const auto& executor : executors_) {
    problem_.stage_names.emplace_back(executor->name());
  }
  for (std::size_t d = 0; d < devices_->size(); ++d) {
    problem_.device_names.push_back(devices_->device(d).name());
  }
  for (std::size_t s = 0; s < executors_.size(); ++s) {
    const auto& executor = executors_[s];
    // Observed-cost feedback: scale every device's modeled cost for this
    // stage by the EWMA observed/predicted ratio (1.0 until blocks ran).
    const double correction = cost_model_.correction(s);
    std::vector<double> row, raw_row;
    row.reserve(devices_->size());
    raw_row.reserve(devices_->size());
    for (std::size_t d = 0; d < devices_->size(); ++d) {
      const hetero::Device& device = devices_->device(d);
      const double modeled = device.model_seconds(
          executor->work_model(options_.workload, device.kind()));
      raw_row.push_back(modeled);
      const bool feasible =
          executor->feasible_on(device.kind()) && device.online();
      if (!feasible && options_.policy != PlacementPolicy::kFixed) {
        row.push_back(hetero::kInfeasible);
        continue;
      }
      // Infeasible cells are still priced under kFixed: pinning overrides
      // the feasibility mask (the compute runs host-side regardless), which
      // is what makes the cross-device golden test possible.
      row.push_back(modeled * correction);
    }
    problem_.seconds_per_item.push_back(std::move(row));
    raw_model_.push_back(std::move(raw_row));
  }
}

void PostprocessEngine::solve_and_commit_locked() {
  // Arbitrate against the load other engines' placements already committed
  // to each device - excluding whatever this engine's previous placement
  // committed (retracted below).
  std::vector<double> base_load = devices_->committed_loads();
  for (std::size_t d = 0;
       d < base_load.size() && d < committed_by_this_.size(); ++d) {
    base_load[d] = std::max(0.0, base_load[d] - committed_by_this_[d]);
  }

  hetero::MappingResult result;
  switch (options_.policy) {
    case PlacementPolicy::kOptimized:
      result = hetero::optimize_mapping(problem_, base_load);
      break;
    case PlacementPolicy::kFixed:
      result = hetero::fixed_mapping(problem_, options_.fixed_device);
      break;
  }
  placement_.stage_names = problem_.stage_names;
  placement_.device_names = problem_.device_names;
  placement_.device_of_stage = result.device_of_stage;
  placement_.predicted_items_per_s = result.throughput_items_per_s;
  placement_.bottleneck_load_s = result.bottleneck_load_s;

  std::vector<double> committed(devices_->size(), 0.0);
  for (std::size_t s = 0; s < placement_.device_of_stage.size(); ++s) {
    const std::uint32_t d = placement_.device_of_stage[s];
    committed[d] += problem_.seconds_per_item[s][d];
  }
  if (!committed_by_this_.empty()) {
    devices_->uncommit_loads(committed_by_this_);
  }
  devices_->commit_loads(committed);
  committed_by_this_ = std::move(committed);
}

PostprocessParams PostprocessEngine::params() const {
  MutexLock lock(plan_mutex_);
  return params_;
}

Placement PostprocessEngine::placement() const {
  MutexLock lock(plan_mutex_);
  return placement_;
}

hetero::MappingProblem PostprocessEngine::mapping_problem() const {
  MutexLock lock(plan_mutex_);
  return problem_;
}

Placement PostprocessEngine::replan(const StageWorkload& workload) {
  MutexLock lock(plan_mutex_);
  options_.workload = workload;
  build_problem_locked();
  solve_and_commit_locked();
  ++replan_count_;
  return placement_;
}

Placement PostprocessEngine::replan() { return replan(options_.workload); }

bool PostprocessEngine::adapt_to_qber(double windowed_qber) {
  MutexLock lock(plan_mutex_);
  const protocol::ReconcileMethod before = params_.method;
  // Mid-band crossover measured on this code: by ~3.5% QBER Cascade's
  // realized efficiency (~1.2) beats the LDPC frames' f_target (1.45) by
  // enough to dominate the net key, and above ~8% the LDPC rate adaptation
  // saturates (syndrome budget pinned) while Cascade still converges at
  // the abort threshold. A quiet channel goes back to LDPC: one-way,
  // accelerator-offloadable, FER ~0 there.
  params_.method = windowed_qber >= 0.035 ? protocol::ReconcileMethod::kCascade
                                          : protocol::ReconcileMethod::kLdpc;
  // Extra passes in the hot band are cheap insurance: late passes use huge
  // blocks, so their parity leakage is a fraction of a percent of the key.
  params_.cascade.passes = windowed_qber < 0.06 ? 6 : 8;
  return params_.method != before;
}

std::uint64_t PostprocessEngine::replans() const {
  MutexLock lock(plan_mutex_);
  return replan_count_;
}

std::vector<DeviceReport> PostprocessEngine::device_report() const {
  std::vector<DeviceReport> reports;
  reports.reserve(devices_->size());
  for (std::size_t d = 0; d < devices_->size(); ++d) {
    const hetero::Device& device = devices_->device(d);
    reports.push_back({device.name(), device.kind(), device.busy_seconds(),
                       device.kernels_launched()});
  }
  return reports;
}

BlockOutcome PostprocessEngine::process_block(const BlockInput& input,
                                              std::uint64_t block_id,
                                              Xoshiro256& rng) {
  BlockState state;
  state.input = &input;
  state.block_id = block_id;
  state.outcome.block_id = block_id;
  state.outcome.pulses = static_cast<std::size_t>(input.report.n_pulses);
  state.outcome.detections = input.report.detected_idx.size();

  // Snapshot the plan: replan()/adapt_to_qber() may swap placement and
  // retune parameters concurrently, and this block must run end to end on
  // one consistent view (the no-drain contract: in-flight blocks finish on
  // the plan they started with).
  std::vector<std::uint32_t> assignment;
  std::vector<double> predicted;
  PostprocessParams params_snapshot;
  {
    MutexLock lock(plan_mutex_);
    assignment = placement_.device_of_stage;
    params_snapshot = params_;
    predicted.reserve(assignment.size());
    for (std::size_t s = 0; s < assignment.size(); ++s) {
      predicted.push_back(raw_model_[s][assignment[s]]);
    }
  }

  // Rewind this thread's scratch arena: per-stage short-lived allocations
  // for the whole block borrow from it and die together here.
  BlockArena& arena = thread_arena();
  arena.reset();

  ExecutionContext ctx;
  ctx.params = &params_snapshot;
  ctx.rng = &rng;
  ctx.ledger = &state.ledger;
  ctx.arena = &arena;

  for (std::size_t s = 0; s < executors_.size(); ++s) {
    ctx.device = &devices_->device(assignment[s]);
    if (!ctx.device->online()) {
      // Hot-removed device still in this block's placement: the kernel has
      // nowhere to run. Expected under a static policy during an outage;
      // an adaptive caller replans and stops coming here.
      state.outcome.abort_reason = kAbortDeviceOffline;
      break;
    }
    ctx.pool = ctx.device->pool();
    const double charged = executors_[s]->run(state, ctx);
    timing_of(state.outcome.timings, executors_[s]->kind()) = charged;
    cost_model_.observe(s, predicted[s], charged);
    if (state.aborted()) break;
  }
  state.outcome.leak_ec_bits = state.ledger.ec_bits;
  return state.outcome;
}

}  // namespace qkdpp::engine
