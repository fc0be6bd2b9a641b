// Steady-clock stopwatch for the wall-clock time the runtime measures:
// CPU devices' charged time, block timings and link throughput.
#pragma once

#include <chrono>

namespace qkdpp {

/// Monotonic stopwatch; returns elapsed seconds.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(clock::now()) {}
  void reset() noexcept { start_ = clock::now(); }
  double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace qkdpp
