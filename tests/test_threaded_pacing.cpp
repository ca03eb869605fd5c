// Tests for the ThreadedExecutor's optional link pacing (time_dilation):
// the knob that makes the functional backend emulate interconnect timing
// in scaled wall time, used when eyeballing overlap on real threads.

#include <gtest/gtest.h>

#include <chrono>

#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"

namespace hs {
namespace {

TEST(ThreadedPacing, DilationSlowsTransfersProportionally) {
  // Dilation 100x: the copy then sleeps 100x the link's modeled time, a
  // floor host load cannot lower (4 MiB over PCIe: ~67 ms of wall time).
  constexpr std::size_t kBytes = 4 << 20;
  constexpr double kDilation = 100.0;
  RuntimeConfig config;
  config.platform = PlatformDesc::host_plus_cards(2, 1, 4);
  ThreadedExecutorConfig exec;
  exec.time_dilation = kDilation;
  Runtime rt(config, std::make_unique<ThreadedExecutor>(exec));
  std::vector<std::byte> data(kBytes);
  const BufferId id = rt.buffer_create(data.data(), kBytes);
  rt.buffer_instantiate(id, DomainId{1});
  const StreamId s = rt.stream_create(DomainId{1}, CpuMask::first_n(2));
  const auto t0 = std::chrono::steady_clock::now();
  (void)rt.enqueue_transfer(s, data.data(), kBytes, XferDir::src_to_sink);
  rt.synchronize();
  const double paced =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(paced,
            kDilation * rt.link_for(DomainId{1}).transfer_seconds(kBytes));
}

TEST(ThreadedPacing, DataStillArrivesIntact) {
  RuntimeConfig config;
  config.platform = PlatformDesc::host_plus_cards(2, 1, 4);
  ThreadedExecutorConfig exec;
  exec.time_dilation = 10.0;
  Runtime rt(config, std::make_unique<ThreadedExecutor>(exec));
  std::vector<double> data(1024, 3.5);
  const BufferId id =
      rt.buffer_create(data.data(), data.size() * sizeof(double));
  rt.buffer_instantiate(id, DomainId{1});
  const StreamId s = rt.stream_create(DomainId{1}, CpuMask::first_n(2));
  (void)rt.enqueue_transfer(s, data.data(), data.size() * sizeof(double),
                            XferDir::src_to_sink);
  ComputePayload task;
  task.body = [&data](TaskContext& ctx) {
    double* local = ctx.translate(data.data(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      local[i] += 1.0;
    }
  };
  const OperandRef ops[] = {
      {data.data(), data.size() * sizeof(double), Access::inout}};
  (void)rt.enqueue_compute(s, std::move(task), ops);
  (void)rt.enqueue_transfer(s, data.data(), data.size() * sizeof(double),
                            XferDir::sink_to_src);
  rt.synchronize();
  EXPECT_DOUBLE_EQ(data[512], 4.5);
}

TEST(ThreadedPacing, ConfigValidation) {
  EXPECT_THROW(
      (void)ThreadedExecutor(
          ThreadedExecutorConfig{.max_workers_per_domain = 0}),
      Error);
  EXPECT_THROW(
      (void)ThreadedExecutor(ThreadedExecutorConfig{.transfer_workers = 0}),
      Error);
}

}  // namespace
}  // namespace hs
