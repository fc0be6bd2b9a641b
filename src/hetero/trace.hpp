// Stage cost feedback: observed stage executions folded back into the
// mapper's cost model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.hpp"

namespace qkdpp::hetero {

/// EWMA feedback from observed stage executions into the mapper's cost
/// model. The mapper prices stages from WorkEstimate models; reality
/// drifts (QBER moves the decoder's iteration count, pool contention moves
/// CPU wall-clock), so each completed stage reports the seconds the model
/// predicted for its device alongside the seconds actually charged. The
/// exponentially weighted ratio observed/predicted is the per-stage
/// correction replan() multiplies into every device's modeled cost - the
/// standard assumption that mispricing is workload-scale, not
/// device-specific. Thread-safe.
class StageCostModel {
 public:
  /// `alpha` is the EWMA weight of the newest sample (0 < alpha <= 1).
  explicit StageCostModel(std::size_t stages, double alpha = 0.25);

  std::size_t stages() const noexcept { return stage_count_; }

  /// Record one completed stage execution. Samples with a non-positive
  /// predicted cost are dropped (no ratio to learn from).
  void observe(std::size_t stage, double predicted_s, double observed_s);

  /// Multiplicative correction for `stage`'s modeled cost; 1.0 until the
  /// first sample arrives.
  double correction(std::size_t stage) const;

  /// EWMA of the observed seconds per item for `stage` (0 until sampled).
  double observed_seconds(std::size_t stage) const;

  std::uint64_t samples(std::size_t stage) const;

 private:
  std::size_t stage_count_;
  double alpha_;
  mutable Mutex mutex_{LockRank::kTrace, "trace.cost_model"};
  /// EWMA of observed / predicted.
  std::vector<double> ratio_ QKD_GUARDED_BY(mutex_);
  /// EWMA of observed seconds.
  std::vector<double> observed_ QKD_GUARDED_BY(mutex_);
  std::vector<std::uint64_t> samples_ QKD_GUARDED_BY(mutex_);
};

}  // namespace qkdpp::hetero
