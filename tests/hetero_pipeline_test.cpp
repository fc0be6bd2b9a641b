// Mapper tests: mapping optimality against brute-force expectations,
// infeasible cells, shape validation.
#include "hetero/mapper.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace qkdpp::hetero {
namespace {

MappingProblem three_by_three() {
  MappingProblem problem;
  problem.stage_names = {"s0", "s1", "s2"};
  problem.device_names = {"d0", "d1", "d2"};
  problem.seconds_per_item = {
      {1.0, 4.0, 9.0},
      {2.0, 1.0, 8.0},
      {9.0, 9.0, 1.0},
  };
  return problem;
}

TEST(Mapper, FindsDiagonalOptimum) {
  const auto result = optimize_mapping(three_by_three());
  EXPECT_EQ(result.device_of_stage,
            (std::vector<std::uint32_t>{0, 1, 2}));
  // Diagonal placement: every device carries exactly one unit of load.
  EXPECT_NEAR(result.bottleneck_load_s, 1.0, 1e-12);
  EXPECT_NEAR(result.throughput_items_per_s, 1.0, 1e-12);
}

TEST(Mapper, SharingModelSumsLoads) {
  MappingProblem problem;
  problem.stage_names = {"a", "b"};
  problem.device_names = {"fast", "slow"};
  // Both stages are individually fastest on "fast", but sharing it (load
  // 2.0) loses to splitting (bottleneck 1.5).
  problem.seconds_per_item = {{1.0, 1.5}, {1.0, 1.5}};
  const auto greedy = greedy_mapping(problem);
  EXPECT_EQ(greedy.device_of_stage, (std::vector<std::uint32_t>{0, 0}));
  EXPECT_NEAR(greedy.bottleneck_load_s, 2.0, 1e-12);

  const auto best = optimize_mapping(problem);
  EXPECT_NEAR(best.bottleneck_load_s, 1.5, 1e-12);
  EXPECT_NE(best.device_of_stage[0], best.device_of_stage[1]);
}

TEST(Mapper, OptimumNeverWorseThanBaselines) {
  const auto problem = three_by_three();
  const auto best = optimize_mapping(problem);
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_LE(best.bottleneck_load_s,
              fixed_mapping(problem, d).bottleneck_load_s + 1e-12);
  }
  EXPECT_LE(best.bottleneck_load_s,
            greedy_mapping(problem).bottleneck_load_s + 1e-12);
}

TEST(Mapper, RespectsInfeasibleCells) {
  MappingProblem problem;
  problem.stage_names = {"a", "b"};
  problem.device_names = {"d0", "d1"};
  problem.seconds_per_item = {{kInfeasible, 2.0}, {1.0, 1.0}};
  const auto best = optimize_mapping(problem);
  EXPECT_EQ(best.device_of_stage[0], 1u);
}

TEST(Mapper, AllInfeasibleStageRejected) {
  MappingProblem problem;
  problem.stage_names = {"a"};
  problem.device_names = {"d0"};
  problem.seconds_per_item = {{kInfeasible}};
  EXPECT_THROW(optimize_mapping(problem), Error);
}

TEST(Mapper, ShapeErrorsRejected) {
  MappingProblem problem;
  problem.stage_names = {"a", "b"};
  problem.device_names = {"d0"};
  problem.seconds_per_item = {{1.0}};  // missing a row
  EXPECT_THROW(optimize_mapping(problem), Error);
  EXPECT_THROW(evaluate_mapping(three_by_three(), {0, 1}), Error);
  EXPECT_THROW(evaluate_mapping(three_by_three(), {0, 1, 9}), Error);
  EXPECT_THROW(fixed_mapping(three_by_three(), 9), Error);
}

TEST(Mapper, EvaluateReportsBottleneckDevice) {
  const auto result = evaluate_mapping(three_by_three(), {0, 0, 2});
  EXPECT_NEAR(result.bottleneck_load_s, 3.0, 1e-12);  // d0: 1.0 + 2.0
  EXPECT_EQ(result.bottleneck_device, 0u);
}

TEST(Mapper, SixStagesFourDevicesTractable) {
  // The real pipeline size: 4^6 = 4096 assignments, must be instant.
  MappingProblem problem;
  problem.stage_names = {"sift", "pe", "recon", "verify", "pa", "auth"};
  problem.device_names = {"cpu", "cpu-par", "gpu", "fpga"};
  problem.seconds_per_item.assign(6, std::vector<double>(4, 1.0));
  problem.seconds_per_item[2] = {8.0, 3.0, 0.5, 1.0};  // recon loves gpu
  problem.seconds_per_item[4] = {4.0, 2.0, 0.6, 2.0};  // pa too
  const auto best = optimize_mapping(problem);
  EXPECT_GT(best.throughput_items_per_s, 0.0);
  // recon and pa should not both sit on the gpu with everything else
  // unless that is actually optimal - just assert optimality vs greedy.
  EXPECT_LE(best.bottleneck_load_s,
            greedy_mapping(problem).bottleneck_load_s + 1e-12);
}

}  // namespace
}  // namespace qkdpp::hetero
