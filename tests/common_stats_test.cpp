// Stopwatch tests.
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace qkdpp {
namespace {

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  const double t1 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  sw.reset();
  EXPECT_LE(sw.seconds(), t1 + 1.0);
}

}  // namespace
}  // namespace qkdpp
