#include "reconcile/ldpc_decoder.hpp"

#include <algorithm>
#include <cmath>

namespace qkdpp::reconcile {

float bsc_llr(double qber) noexcept {
  const double q = std::clamp(qber, 1e-9, 0.5 - 1e-9);
  return static_cast<float>(std::log((1.0 - q) / q));
}

}  // namespace qkdpp::reconcile
