// StageCostModel tests: EWMA tracking of drifting observations and
// thread-safety under concurrent observers.
#include "hetero/trace.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace qkdpp::hetero {
namespace {

TEST(StageCostModel, EwmaTracksDriftingObservations) {
  StageCostModel model(2, 0.25);
  // Stage 0 starts at the modeled cost, then drifts to 4x: the EWMA must
  // move toward the new ratio monotonically without overshooting it.
  model.observe(0, 1.0, 1.0);
  double previous = model.correction(0);
  for (int i = 0; i < 24; ++i) {
    model.observe(0, 1.0, 4.0);
    const double current = model.correction(0);
    EXPECT_GE(current, previous - 1e-12);
    EXPECT_LE(current, 4.0 + 1e-12);
    previous = current;
  }
  EXPECT_NEAR(model.correction(0), 4.0, 0.01);
}

TEST(StageCostModel, ThreadSafeUnderConcurrentObservers) {
  StageCostModel model(4, 0.5);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&model, t] {
      for (int i = 0; i < 1000; ++i) {
        model.observe(static_cast<std::size_t>(t), 1.0, 2.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(model.samples(s), 1000u);
    EXPECT_NEAR(model.correction(s), 2.0, 1e-9);
  }
}

}  // namespace
}  // namespace qkdpp::hetero
