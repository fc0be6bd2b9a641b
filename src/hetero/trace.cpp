#include "hetero/trace.hpp"

#include <algorithm>

namespace qkdpp::hetero {

StageCostModel::StageCostModel(std::size_t stages, double alpha)
    : stage_count_(stages),
      alpha_(std::clamp(alpha, 1e-3, 1.0)),
      ratio_(stages, 1.0),
      observed_(stages, 0.0),
      samples_(stages, 0) {}

void StageCostModel::observe(std::size_t stage, double predicted_s,
                             double observed_s) {
  if (stage >= stage_count_ || predicted_s <= 0.0 || observed_s < 0.0) return;
  const double sample_ratio = observed_s / predicted_s;
  MutexLock lock(mutex_);
  if (samples_[stage] == 0) {
    ratio_[stage] = sample_ratio;
    observed_[stage] = observed_s;
  } else {
    ratio_[stage] += alpha_ * (sample_ratio - ratio_[stage]);
    observed_[stage] += alpha_ * (observed_s - observed_[stage]);
  }
  ++samples_[stage];
}

double StageCostModel::correction(std::size_t stage) const {
  if (stage >= stage_count_) return 1.0;
  MutexLock lock(mutex_);
  return samples_[stage] ? ratio_[stage] : 1.0;
}

double StageCostModel::observed_seconds(std::size_t stage) const {
  if (stage >= stage_count_) return 0.0;
  MutexLock lock(mutex_);
  return observed_[stage];
}

std::uint64_t StageCostModel::samples(std::size_t stage) const {
  if (stage >= stage_count_) return 0;
  MutexLock lock(mutex_);
  return samples_[stage];
}

}  // namespace qkdpp::hetero
