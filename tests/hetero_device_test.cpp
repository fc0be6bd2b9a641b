// Device model tests: charging rules (wall clock vs model time), the
// roofline and transfer terms, accounting across kernels.
#include "hetero/device.hpp"

#include <gtest/gtest.h>

namespace qkdpp::hetero {
namespace {

TEST(Device, KindNamesStable) {
  EXPECT_STREQ(to_string(DeviceKind::kCpuScalar), "cpu-scalar");
  EXPECT_STREQ(to_string(DeviceKind::kGpuSim), "gpu-sim");
}

TEST(Device, CpuChargesWallClock) {
  Device cpu(cpu_scalar_props());
  const double charged = cpu.execute([]() -> WorkEstimate {
    volatile double sink = 0;
    for (int i = 0; i < 200000; ++i) sink = sink + i * 0.5;
    return {1e9, 0, 0};  // deliberately absurd estimate: must be ignored
  });
  EXPECT_GT(charged, 0.0);
  EXPECT_LT(charged, 1.0);  // definitely not 1e9/3e9 = 0.33s of model time
  EXPECT_NEAR(cpu.busy_seconds(), charged, 1e-12);
  EXPECT_EQ(cpu.kernels_launched(), 1u);
}

TEST(Device, GpuSimChargesModelTime) {
  Device gpu(gpu_sim_props());
  const WorkEstimate estimate{4e9, 0, 0};  // 4e9 ops at 4000 Gops = 1 ms
  const double modeled = gpu.model_seconds(estimate);
  EXPECT_NEAR(modeled, 1e-3 + gpu.props().launch_latency_s, 1e-6);
  const double charged = gpu.execute([&]() -> WorkEstimate {
    return estimate;  // no real work: charged must still be model time
  });
  EXPECT_NEAR(charged, modeled, 1e-12);
}

TEST(Device, ModelRooflineTakesMax) {
  Device gpu(gpu_sim_props());
  // Memory-bound: 450 GB/s, 4.5e9 bytes = 10 ms >> compute term.
  const double t = gpu.model_seconds({1e6, 4.5e9, 0});
  EXPECT_NEAR(t, 0.01, 1e-4);
}

TEST(Device, ModelChargesTransfers) {
  Device gpu(gpu_sim_props());
  const double base = gpu.model_seconds({0, 0, 0});
  const double with_transfer = gpu.model_seconds({0, 0, 12e9});  // 1 s PCIe
  EXPECT_NEAR(with_transfer - base, 1.0 + 2 * gpu.props().transfer_latency_s,
              1e-6);
}

TEST(Device, BusyAccumulatesAcrossKernels) {
  Device gpu(gpu_sim_props());
  gpu.execute([] { return WorkEstimate{4e9, 0, 0}; });
  gpu.execute([] { return WorkEstimate{4e9, 0, 0}; });
  EXPECT_NEAR(gpu.busy_seconds(), 2 * (1e-3 + gpu.props().launch_latency_s),
              1e-9);
  EXPECT_EQ(gpu.kernels_launched(), 2u);
}

}  // namespace
}  // namespace qkdpp::hetero
