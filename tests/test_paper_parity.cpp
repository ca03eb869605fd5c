// Paper-parity regression tests.
//
// EXPERIMENTS.md documents which orderings, ratios and crossovers of the
// paper's evaluation this repository reproduces. These tests pin the
// headline claims at reduced problem sizes, so a calibration or
// scheduler change that silently breaks the reproduction fails CI
// instead of being discovered by rereading bench output. The last test
// pins the output surfaces those numbers are read from: every runtime
// counter reaches bench JSON and hsinfo.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "apps/cholesky.hpp"
#include "apps/lu.hpp"
#include "apps/matmul.hpp"
#include "apps/rtm.hpp"
#include "apps/supernode.hpp"
#include "baselines/auto_offload.hpp"
#include "baselines/magma_like.hpp"
#include "baselines/omp_offload.hpp"
#include "bench_util.hpp"
#include "hsblas/kernels.hpp"
#include "ompss/ompss.hpp"

namespace hs::parity {
namespace {

using bench::sim_runtime;

double matmul_gflops(const sim::SimPlatform& platform, std::size_t n,
                     std::size_t host_streams,
                     std::vector<double> weights = {}) {
  auto rt = sim_runtime(platform);
  apps::TiledMatrix a = apps::TiledMatrix::phantom(n, n / 15);
  apps::TiledMatrix b = apps::TiledMatrix::phantom(n, n / 15);
  apps::TiledMatrix c = apps::TiledMatrix::phantom(n, n / 15);
  apps::MatmulConfig config;
  config.streams_per_device = 4;
  config.host_streams = host_streams;
  config.domain_weights = std::move(weights);
  return run_matmul(*rt, config, a, b, c).gflops;
}

// Fig 6: full curve ordering at N=16000.
TEST(Fig6Parity, CurveOrderingMatchesPaper) {
  const double hsw2 = matmul_gflops(sim::hsw_plus_knc(2), 15000, 2);
  const double ivb2_lb =
      matmul_gflops(sim::ivb_plus_knc(2), 15000, 2, {0.48, 1.0, 1.0});
  const double hsw1 = matmul_gflops(sim::hsw_plus_knc(1), 15000, 2);
  const double ivb2_nolb = matmul_gflops(sim::ivb_plus_knc(2), 15000, 2);
  const double ivb1_lb =
      matmul_gflops(sim::ivb_plus_knc(1), 15000, 2, {0.48, 1.0});
  const double knc1 = matmul_gflops(sim::hsw_plus_knc(1), 15000, 0);

  // Paper order: HSW+2KNC > IVB+2KNC(lb) > HSW+1KNC > IVB+2KNC(no lb)
  //            > IVB+1KNC(lb) > 1KNC.
  EXPECT_GT(hsw2, ivb2_lb);
  EXPECT_GT(ivb2_lb, hsw1);
  EXPECT_GT(hsw1, ivb2_nolb);
  // IVB+2KNC(no lb) and IVB+1KNC(lb) are within ~2% of each other in the
  // paper (1192 vs 1165); assert proximity rather than a fragile order.
  EXPECT_NEAR(ivb2_nolb / ivb1_lb, 1.0, 0.15);
  EXPECT_GT(ivb1_lb, knc1);
  // Load balancing on IVB+2KNC worth >1.3x (paper: 1.58x).
  EXPECT_GT(ivb2_lb / ivb2_nolb, 1.3);
}

// Fig 6 anchors: the calibrated endpoints stay near the paper's numbers.
TEST(Fig6Parity, CalibrationAnchorsHold) {
  const double knc = matmul_gflops(sim::hsw_plus_knc(1), 24000, 0);
  EXPECT_NEAR(knc, 982.0, 982.0 * 0.10);  // paper 982
  const double hsw2 = matmul_gflops(sim::hsw_plus_knc(2), 24000, 2);
  EXPECT_NEAR(hsw2, 2599.0, 2599.0 * 0.10);  // paper 2599
}

// Fig 7: implementation ordering per platform at N=16000.
TEST(Fig7Parity, HstrBeatsAoBeatsMagma) {
  const std::size_t n = 16000;
  const sim::SimPlatform platform = sim::hsw_plus_knc(2);
  double hstr = 0.0;
  double ao = 0.0;
  double magma = 0.0;
  {
    auto rt = sim_runtime(platform);
    apps::TiledMatrix a = apps::TiledMatrix::phantom(n, n / 16);
    apps::CholeskyConfig config;
    config.streams_per_device = 4;
    config.host_streams = 2;
    hstr = run_cholesky(*rt, config, a).gflops;
  }
  {
    auto rt = sim_runtime(platform);
    apps::TiledMatrix a = apps::TiledMatrix::phantom(n, n / 16);
    ao = baselines::mkl_ao_cholesky(*rt, baselines::AutoOffloadConfig{}, a)
             .gflops;
  }
  {
    auto rt = sim_runtime(platform);
    blas::Matrix a = blas::Matrix::phantom(n, n);
    magma = baselines::magma_cholesky(
                *rt, baselines::MagmaConfig{.nb = n / 12}, a)
                .gflops;
  }
  EXPECT_GT(hstr, ao);    // paper: hStreams ~10% over MKL AO
  EXPECT_GT(ao, magma);   // paper: AO over MAGMA
  EXPECT_GT(hstr / ao, 1.02);
  EXPECT_LT(hstr / ao, 1.35);
}

// §VI: KNC's untiled DPOTRF overtakes HSW's only near N=20000.
TEST(Fig7Parity, NativeDpotrfCrossover) {
  const auto hsw = sim::hsw_model();
  const auto knc = sim::knc_model();
  auto rate = [](const sim::DeviceModel& m, std::size_t n) {
    const double flops = static_cast<double>(n) * static_cast<double>(n) *
                         static_cast<double>(n) / 3.0;
    return m.task_gflops("dpotrf", flops, m.total_threads);
  };
  EXPECT_GT(rate(hsw, 12000), rate(knc, 12000));
  EXPECT_LT(rate(hsw, 32000), rate(knc, 32000));
}

// §VI OmpSs-vs-CUDA backend: the 1.45x claim holds within a band.
TEST(OmpssParity, BackendAdvantageInBand) {
  double times[2] = {0.0, 0.0};
  for (const ompss::BackendStyle backend :
       {ompss::BackendStyle::hstreams, ompss::BackendStyle::cuda_streams}) {
    auto rt = sim_runtime(sim::hsw_plus_knc(1), /*transfer_pool=*/false);
    ompss::OmpssConfig config;
    config.backend = backend;
    config.streams_per_device = 4;
    ompss::OmpssRuntime omp(*rt, config);
    constexpr std::size_t kN = 4096;
    constexpr std::size_t kTile = 2048;
    apps::TiledMatrix a = apps::TiledMatrix::phantom(kN, kTile);
    apps::TiledMatrix b = apps::TiledMatrix::phantom(kN, kTile);
    apps::TiledMatrix c = apps::TiledMatrix::phantom(kN, kTile);
    for (apps::TiledMatrix* m : {&a, &b, &c}) {
      for (std::size_t j = 0; j < m->col_tiles(); ++j) {
        for (std::size_t i = 0; i < m->row_tiles(); ++i) {
          omp.register_region(m->tile_ptr(i, j), m->tile_bytes(i, j));
        }
      }
    }
    const double t0 = rt->now();
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::size_t k = 0; k < 2; ++k) {
        for (std::size_t i = 0; i < 2; ++i) {
          omp.task("dgemm", blas::gemm_flops(kTile, kTile, kTile),
                   [](TaskContext&) {},
                   {{a.tile_ptr(i, k), a.tile_bytes(i, k), Access::in},
                    {b.tile_ptr(k, p), b.tile_bytes(k, p), Access::in},
                    {c.tile_ptr(i, p), c.tile_bytes(i, p),
                     k == 0 ? Access::out : Access::inout}});
        }
      }
    }
    omp.fetch_all();
    times[backend == ompss::BackendStyle::hstreams ? 0 : 1] = rt->now() - t0;
  }
  const double advantage = times[1] / times[0];
  EXPECT_GT(advantage, 1.15);  // paper: 1.45x
  EXPECT_LT(advantage, 2.0);
}

// §VI RTM: pipelined beats sync offload; offload beats the host baseline
// for 2 ranks; tuning helps KNC more than the host.
TEST(RtmParity, SchemeOrderingAndTuningSensitivity) {
  auto run = [](apps::RtmScheme scheme, bool optimized) {
    auto rt = sim_runtime(sim::hsw_plus_knc(2));
    apps::RtmConfig config;
    config.nx = 300;
    config.ny = 300;
    config.nz = 160;
    config.steps = 20;
    config.ranks = 2;
    config.scheme = scheme;
    config.optimized_kernel = optimized;
    return run_rtm(*rt, config).seconds;
  };
  const double host = run(apps::RtmScheme::host_only, true);
  const double sync = run(apps::RtmScheme::sync_offload, true);
  const double pipe = run(apps::RtmScheme::pipelined, true);
  EXPECT_LT(pipe, sync);
  EXPECT_LT(sync, host);
  const double gain = (sync - pipe) / sync;
  EXPECT_GT(gain, 0.02);  // paper band 3-10%
  EXPECT_LT(gain, 0.25);

  const double host_naive = run(apps::RtmScheme::host_only, false);
  const double pipe_naive = run(apps::RtmScheme::pipelined, false);
  // Tuning benefits KNC more: the naive speedup is smaller.
  EXPECT_LT(host_naive / pipe_naive, host / pipe);
}

// Fig 9: relative supernode runtimes (KNC ~ HSW, IVB ~ 2x HSW).
TEST(Fig9Parity, RelativeRuntimes) {
  auto run = [](const sim::SimPlatform& platform, DomainId target,
                std::size_t streams, std::size_t threads) {
    auto rt = sim_runtime(platform);
    apps::TiledMatrix a = apps::TiledMatrix::phantom(7680, 768);
    apps::SupernodeConfig config;
    config.target = target;
    config.streams = streams;
    config.threads_per_stream = threads;
    return factor_supernode(*rt, config, a).seconds;
  };
  const double knc = run(sim::hsw_plus_knc(1), DomainId{1}, 4, 60);
  const double hsw = run(sim::hsw_only(), kHostDomain, 3, 9);
  const double ivb = run(sim::ivb_only(), kHostDomain, 3, 7);
  EXPECT_NEAR(knc / hsw, 2.35 / 2.24, 0.30);
  EXPECT_NEAR(ivb / hsw, 4.27 / 2.24, 0.45);
}

// §VI LU: host-native wins small, hybrid wins large (crossover ~4-8K).
TEST(LuParity, CrossoverNearPaperClaim) {
  auto gflops = [](std::size_t n, bool offload) {
    auto rt = sim_runtime(sim::hsw_plus_knc(2));
    blas::Matrix a = blas::Matrix::phantom(n, n);
    std::vector<std::size_t> pivots;
    apps::LuConfig config;
    config.nb = std::max<std::size_t>(512, n / 12);
    config.offload = offload;
    return apps::run_lu(*rt, config, a, pivots).gflops;
  };
  EXPECT_GT(gflops(3000, false), gflops(3000, true));
  EXPECT_GT(gflops(16000, true), gflops(16000, false));
}

// Fig 3: clBLAS-class OpenCL is an order of magnitude off.
TEST(Fig3Parity, OpenClKernelClassRemainsCatastrophic) {
  const auto knc = sim::knc_model();
  const double tuned = knc.task_gflops("dgemm", 2e12, 240);
  const double opencl = knc.task_gflops("opencl_gemm", 2e12, 240);
  EXPECT_GT(tuned / opencl, 20.0);  // paper: 916 vs 35
}

// Every row of core/counters.hpp reaches the bench JSON counters (per
// tenant too, for the `tenant` rows) and hsinfo's report, with no
// per-counter code on either surface.
TEST(CounterSurfaces, EveryCounterReachesBenchJsonAndHsinfo) {
  report::counters().clear();
  {
    auto rt = sim_runtime(sim::hsw_plus_knc(1));
    (void)rt->tenant_register();
  }
  const auto& noted = report::counters();
  for_each_counter(RuntimeStats{}, [&noted](const char* name, std::uint64_t) {
    EXPECT_TRUE(noted.contains(name)) << name;
  });
  for_each_counter(TenantStatsSlice{},
                   [&noted](const char* name, std::uint64_t) {
                     EXPECT_TRUE(noted.contains(std::string("tenant1_") + name))
                         << name;
                   });
  report::counters().clear();

  FILE* pipe = popen(HS_HSINFO_PATH, "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char chunk[4096];
  while (const std::size_t n = std::fread(chunk, 1, sizeof chunk, pipe)) {
    out.append(chunk, n);
  }
  ASSERT_EQ(pclose(pipe), 0);
  for_each_counter(RuntimeStats{}, [&out](const char* name, std::uint64_t) {
    EXPECT_NE(out.find("\n  " + std::string(name) + " "), std::string::npos)
        << name;
  });
}

}  // namespace
}  // namespace hs::parity
