// Out-of-core execution under device-memory budgets (the MemoryGovernor,
// DESIGN.md "Out-of-core eviction").
//
// The claims checked here:
//  * an over-budget instantiation evicts an idle incarnation instead of
//    throwing, and a spilled operand transparently re-uploads on demand;
//  * a dirty spill writes its device-newer ranges home bit-identically
//    before the incarnation is dropped (clean spills write nothing);
//  * Runtime::buffer_deinstantiate refuses to silently discard
//    device-newer bytes (Errc::data_loss) unless discard_dirty is set —
//    sync_home first keeps them;
//  * operands of in-flight actions are pinned and never chosen as
//    victims, under real concurrent load on the threaded backend;
//  * a randomized spill/refetch workload produces bit-identical host
//    bytes to the same workload under an ample budget, on both backends,
//    with the coherence oracle byte-checking every elision;
//  * Cholesky (tile_buffers) and matmul complete bit-identically at
//    ~3x a card's memory budget on both backends, and dispatches park
//    (dispatch_parks) only when the budget is tight;
//  * the service layer refunds a tenant's device-resident quota at
//    eviction, re-charges at refetch, and vetoes a refetch that would
//    breach the quota.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/matmul.hpp"
#include "apps/tiled_matrix.hpp"
#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs {
namespace {

enum class Backend { threaded, simulated };

/// Runtime with every card's DDR budget capped at `card_ddr_bytes`.
std::unique_ptr<Runtime> make_runtime(Backend backend, std::size_t cards,
                                      std::size_t card_ddr_bytes,
                                      CoherenceConfig coherence = {}) {
  RuntimeConfig config;
  config.coherence = coherence;
  if (backend == Backend::threaded) {
    PlatformDesc platform = PlatformDesc::host_plus_cards(4, cards, 4);
    for (std::size_t d = 1; d < platform.domains.size(); ++d) {
      platform.domains[d].memory_bytes = {{MemKind::ddr, card_ddr_bytes}};
    }
    config.platform = std::move(platform);
    return std::make_unique<Runtime>(config,
                                     std::make_unique<ThreadedExecutor>());
  }
  sim::SimPlatform platform = sim::hsw_plus_knc(cards);
  for (std::size_t d = 1; d < platform.desc.domains.size(); ++d) {
    platform.desc.domains[d].memory_bytes = {{MemKind::ddr, card_ddr_bytes}};
  }
  config.platform = platform.desc;
  config.device_link = platform.link;
  return std::make_unique<Runtime>(
      config, std::make_unique<sim::SimExecutor>(platform, true));
}

constexpr std::size_t kDoubles = 1024;
constexpr std::size_t kBytes = kDoubles * sizeof(double);

ComputePayload double_in_place(double* ptr, std::size_t count) {
  ComputePayload work;
  work.body = [ptr, count](TaskContext& ctx) {
    double* local = ctx.translate(ptr, count);
    for (std::size_t i = 0; i < count; ++i) {
      local[i] *= 2.0;
    }
  };
  return work;
}

// ---- Eviction instead of throw, demand refetch ------------------------------

TEST(OutOfCore, EvictsInsteadOfThrowingAndRefetchesOnDemand) {
  for (const Backend backend : {Backend::threaded, Backend::simulated}) {
    auto rt = make_runtime(backend, 1, kBytes);  // budget = one buffer
    const DomainId card{1};
    std::vector<double> a(kDoubles);
    std::vector<double> b(kDoubles);
    std::iota(a.begin(), a.end(), 0.0);
    const BufferId ba = rt->buffer_create(a.data(), kBytes);
    const BufferId bb = rt->buffer_create(b.data(), kBytes);
    const StreamId s = rt->stream_create(card, CpuMask::first_n(2));

    rt->buffer_instantiate(ba, card);
    (void)rt->enqueue_transfer(s, a.data(), kBytes, XferDir::src_to_sink);
    rt->synchronize();

    // Over budget: ba is idle and clean (host has every byte), so it is
    // dropped for free — no writeback, no exception.
    rt->buffer_instantiate(bb, card);
    EXPECT_EQ(rt->stats().evictions, 1u);
    EXPECT_EQ(rt->stats().spill_bytes_written, 0u);
    EXPECT_EQ(rt->stats().spill_bytes_dropped_clean, kBytes);

    // Compute on the spilled ba: dispatch re-admits it (evicting bb) and
    // restores the read window from the host copy before the body runs.
    const OperandRef ops[] = {{a.data(), kBytes, Access::inout}};
    (void)rt->enqueue_compute(s, double_in_place(a.data(), kDoubles), ops);
    (void)rt->enqueue_transfer(s, a.data(), kBytes, XferDir::sink_to_src);
    rt->synchronize();
    EXPECT_GE(rt->stats().refetches, 1u);
    EXPECT_EQ(rt->stats().evictions, 2u);
    for (std::size_t i = 0; i < kDoubles; ++i) {
      ASSERT_EQ(a[i], 2.0 * static_cast<double>(i)) << "i=" << i;
    }
  }
}

// ---- Dirty spills write back bit-identically --------------------------------

TEST(OutOfCore, DirtySpillWritesDeviceNewerBytesHome) {
  auto rt = make_runtime(Backend::threaded, 1, kBytes);
  const DomainId card{1};
  std::vector<double> a(kDoubles);
  std::vector<double> b(kDoubles);
  std::iota(a.begin(), a.end(), 0.0);
  const BufferId ba = rt->buffer_create(a.data(), kBytes);
  const BufferId bb = rt->buffer_create(b.data(), kBytes);
  const StreamId s = rt->stream_create(card, CpuMask::first_n(2));

  const OperandRef ops[] = {{a.data(), kBytes, Access::inout}};
  rt->buffer_instantiate(ba, card);
  (void)rt->enqueue_transfer(s, a.data(), kBytes, XferDir::src_to_sink);
  (void)rt->enqueue_compute(s, double_in_place(a.data(), kDoubles), ops);
  rt->synchronize();
  // No download happened: the doubled values exist only on the card.
  EXPECT_EQ(a[7], 7.0);

  // Evicting the dirty incarnation syncs its device-newer ranges home
  // first, bit-identically (doubling is exact), then drops it.
  rt->buffer_instantiate(bb, card);
  EXPECT_EQ(rt->stats().evictions, 1u);
  EXPECT_EQ(rt->stats().spill_bytes_written, kBytes);
  for (std::size_t i = 0; i < kDoubles; ++i) {
    ASSERT_EQ(a[i], 2.0 * static_cast<double>(i)) << "i=" << i;
  }
  (void)ba;
}

// ---- buffer_deinstantiate refuses silent data loss --------------------------

TEST(OutOfCore, DeinstantiateWithDirtyBytesFailsWithDataLoss) {
  auto rt = make_runtime(Backend::threaded, 1, std::size_t{1} << 20);
  const DomainId card{1};
  std::vector<double> a(kDoubles);
  std::iota(a.begin(), a.end(), 0.0);
  const BufferId ba = rt->buffer_create(a.data(), kBytes);
  const StreamId s = rt->stream_create(card, CpuMask::first_n(2));

  const OperandRef ops[] = {{a.data(), kBytes, Access::inout}};
  rt->buffer_instantiate(ba, card);
  (void)rt->enqueue_transfer(s, a.data(), kBytes, XferDir::src_to_sink);
  (void)rt->enqueue_compute(s, double_in_place(a.data(), kDoubles), ops);
  rt->synchronize();

  // The card holds the only copy of the doubled values: dropping the
  // incarnation would silently lose them. This used to succeed.
  try {
    rt->buffer_deinstantiate(ba, card);
    FAIL() << "deinstantiate with device-newer bytes must fail";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::data_loss);
  }

  // sync_home pulls the dirty ranges back; then the drop is clean.
  EXPECT_TRUE(static_cast<bool>(rt->sync_home(ba)));
  rt->buffer_deinstantiate(ba, card);
  EXPECT_EQ(a[7], 14.0);

  // discard_dirty is the explicit escape hatch: the second doubling
  // happens on the card and is deliberately thrown away.
  rt->buffer_instantiate(ba, card);
  (void)rt->enqueue_transfer(s, a.data(), kBytes, XferDir::src_to_sink);
  (void)rt->enqueue_compute(s, double_in_place(a.data(), kDoubles), ops);
  rt->synchronize();
  rt->buffer_deinstantiate(ba, card, /*discard_dirty=*/true);
  EXPECT_EQ(a[7], 14.0);
}

// ---- Pinned operands are never victims --------------------------------------

TEST(OutOfCore, PinnedOperandsSurviveConcurrentEvictionPressure) {
  constexpr std::size_t kBufs = 8;
  constexpr std::size_t kSmallDoubles = 512;
  constexpr std::size_t kSmallBytes = kSmallDoubles * sizeof(double);
  // Budget fits two of the eight buffers: every dispatch evicts, while
  // both streams keep their in-flight operands pinned.
  auto rt = make_runtime(Backend::threaded, 1, 2 * kSmallBytes);
  const DomainId card{1};

  std::vector<std::vector<double>> data(kBufs,
                                        std::vector<double>(kSmallDoubles));
  StreamId streams[2] = {rt->stream_create(card, CpuMask::first_n(2)),
                         rt->stream_create(card, CpuMask::first_n(2))};
  for (std::size_t b = 0; b < kBufs; ++b) {
    const BufferId id = rt->buffer_create(data[b].data(), kSmallBytes);
    // Registration itself overcommits: instantiating the third buffer
    // already evicts the first, so six of eight start out spilled.
    rt->buffer_instantiate(id, card);
  }

  // Each buffer is driven by one fixed stream so its increments are
  // FIFO-ordered; the two streams race each other's evictions.
  std::size_t counts[kBufs] = {};
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t b = rng.bounded(kBufs);
    double* ptr = data[b].data();
    ComputePayload work;
    work.body = [ptr](TaskContext& ctx) {
      double* local = ctx.translate(ptr, kSmallDoubles);
      for (std::size_t i = 0; i < kSmallDoubles; ++i) {
        local[i] += 1.0;
      }
    };
    const OperandRef ops[] = {{ptr, kSmallBytes, Access::inout}};
    (void)rt->enqueue_compute(streams[b % 2], std::move(work), ops);
    ++counts[b];
  }
  rt->synchronize();
  for (std::size_t b = 0; b < kBufs; ++b) {
    (void)rt->enqueue_transfer(streams[b % 2], data[b].data(), kSmallBytes,
                               XferDir::sink_to_src);
  }
  rt->synchronize();

  EXPECT_GT(rt->stats().evictions, 0u);
  EXPECT_GT(rt->stats().refetches, 0u);
  for (std::size_t b = 0; b < kBufs; ++b) {
    for (std::size_t i = 0; i < kSmallDoubles; ++i) {
      ASSERT_EQ(data[b][i], static_cast<double>(counts[b]))
          << "buffer " << b << " element " << i;
    }
  }
}

// ---- Randomized spill/refetch fuzz ------------------------------------------

constexpr std::size_t kFuzzBlocks = 8;
constexpr std::size_t kFuzzBlockDoubles = 128;
constexpr std::size_t kFuzzBlockBytes = kFuzzBlockDoubles * sizeof(double);

struct OomFuzzOutcome {
  std::vector<double> host;
  RuntimeStats stats;
};

/// Seeded random uploads/downloads/d2d copies/computes/host writes over
/// eight per-block buffers shared by two cards. The sequence depends only
/// on the seed, never on the budget, so a tight-budget run replays the
/// exact same workload as an ample one — spills and refetches must be
/// invisible. Race discipline follows test_coherence_fuzz: distinct
/// blocks per round, one stream per card, synchronize between rounds.
///
/// Value discipline: the host incarnation aliases user memory, so it is
/// also the spill backing store — a dirty eviction legitimately rewrites
/// host bytes with the device's newer values at a budget-dependent time.
/// Any op that reads a *stale* copy (an upload while a device copy is
/// newer, a download from a card another card has since overtaken) would
/// therefore observe budget-dependent bytes. The fuzz tracks which
/// locations hold the newest value per block (`current`, index 0 = host)
/// and only lets ops read current copies — the same rule a coherent
/// workload follows — so every byte the workload reads is
/// budget-invariant even though spill traffic underneath is not.
OomFuzzOutcome run_oom_fuzz(Backend backend, std::size_t card_budget,
                            std::uint64_t seed) {
  CoherenceConfig coherence;
  coherence.elide = true;
  coherence.oracle = true;  // byte-check every elision against the spills
  auto rt = make_runtime(backend, 2, card_budget, coherence);

  OomFuzzOutcome out;
  out.host.resize(kFuzzBlocks * kFuzzBlockDoubles);
  for (std::size_t i = 0; i < out.host.size(); ++i) {
    out.host[i] = 0.25 * static_cast<double>(seed % 89) +
                  0.5 * static_cast<double>(i);
  }
  for (std::size_t b = 0; b < kFuzzBlocks; ++b) {
    const BufferId id = rt->buffer_create(
        out.host.data() + b * kFuzzBlockDoubles, kFuzzBlockBytes);
    rt->buffer_instantiate(id, DomainId{1});
    rt->buffer_instantiate(id, DomainId{2});
  }
  StreamId streams[2] = {rt->stream_create(DomainId{1}, CpuMask::first_n(2)),
                         rt->stream_create(DomainId{2}, CpuMask::first_n(2))};

  bool defined[kFuzzBlocks][3] = {};  // a device incarnation was written
  bool current[kFuzzBlocks][3] = {};  // location holds the newest value
  for (std::size_t b = 0; b < kFuzzBlocks; ++b) {
    defined[b][0] = true;
    current[b][0] = true;
  }

  Rng rng(seed);
  std::vector<std::size_t> order(kFuzzBlocks);
  std::iota(order.begin(), order.end(), 0);
  for (int round = 0; round < 20; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    const std::size_t picks = 1 + rng.bounded(3);
    for (std::size_t p = 0; p < picks; ++p) {
      const std::size_t block = order[p];
      double* ptr = out.host.data() + block * kFuzzBlockDoubles;
      const std::uint32_t card = 1 + static_cast<std::uint32_t>(rng.bounded(2));
      const StreamId s = streams[card - 1];
      const std::size_t op_count = 1 + rng.bounded(3);
      for (std::size_t o = 0; o < op_count; ++o) {
        switch (rng.bounded(6)) {
          case 0:
          case 1:  // upload — reads host, so host must be current
            if (current[block][0]) {
              (void)rt->enqueue_transfer(s, ptr, kFuzzBlockBytes,
                                         XferDir::src_to_sink);
              defined[block][card] = true;
              current[block][card] = true;
            }
            break;
          case 2:  // download — reads the card, so the card must be current
            if (defined[block][card] && current[block][card]) {
              (void)rt->enqueue_transfer(s, ptr, kFuzzBlockBytes,
                                         XferDir::sink_to_src);
              current[block][0] = true;
            }
            break;
          case 3: {  // device->device pull from a current other card
            const std::uint32_t peer = 3 - card;
            if (defined[block][peer] && current[block][peer]) {
              (void)rt->enqueue_transfer_from(s, ptr, kFuzzBlockBytes,
                                              DomainId{peer});
              defined[block][card] = true;
              current[block][card] = true;
              // Two-hop staging leaves the host hop holding the same
              // newest bytes (or elides because it already did).
              current[block][0] = true;
            }
            break;
          }
          case 4:  // device compute (exactly representable constants)
            if (defined[block][card] && current[block][card]) {
              ComputePayload work;
              work.body = [ptr](TaskContext& ctx) {
                double* local = ctx.translate(ptr, kFuzzBlockDoubles);
                for (std::size_t i = 0; i < kFuzzBlockDoubles; ++i) {
                  local[i] = local[i] * 1.0009765625 + 0.5;
                }
              };
              const OperandRef ops[] = {
                  {ptr, kFuzzBlockBytes, Access::inout}};
              (void)rt->enqueue_compute(s, std::move(work), ops);
              // The computing card is now the sole holder of the newest
              // value; host and the other card are stale.
              current[block][0] = false;
              current[block][1] = false;
              current[block][2] = false;
              current[block][card] = true;
            }
            break;
          case 5:  // direct host write; only as a block's opening op.
            // Overwrite, never read-modify-write: a dirty eviction
            // legitimately syncs device-newer bytes into the host copy,
            // so host *reads* observe budget-dependent intermediate
            // values — only the written bytes must be budget-invariant.
            if (o == 0) {
              for (std::size_t i = 0; i < kFuzzBlockDoubles; ++i) {
                ptr[i] = static_cast<double>(round) +
                         0.125 * static_cast<double>(i);
              }
              rt->note_host_write(ptr, kFuzzBlockBytes);
              // Device copies are invalid now; a fresh upload is needed
              // before the next device op — the same rule real coherence
              // enforces.
              defined[block][1] = false;
              defined[block][2] = false;
              current[block][0] = true;
              current[block][1] = false;
              current[block][2] = false;
            }
            break;
        }
      }
    }
    rt->synchronize();
  }

  // Final readback sweep: for each block, download from the first card
  // that holds the newest value (blocks whose newest copy already lives
  // on the host need nothing). Blocks are disjoint host ranges, so the
  // two streams can drain concurrently.
  for (std::size_t b = 0; b < kFuzzBlocks; ++b) {
    for (std::uint32_t c = 1; c <= 2; ++c) {
      if (defined[b][c] && current[b][c]) {
        (void)rt->enqueue_transfer(streams[c - 1],
                                   out.host.data() + b * kFuzzBlockDoubles,
                                   kFuzzBlockBytes, XferDir::sink_to_src);
        break;
      }
    }
  }
  rt->synchronize();
  out.stats = rt->stats();
  return out;
}

TEST(OutOfCore, RandomSpillRefetchIsInvisibleOnBothBackends) {
  for (const Backend backend : {Backend::simulated, Backend::threaded}) {
    for (const std::uint64_t seed : {5ull, 23ull}) {
      // Three of eight blocks fit per card: heavy spill/refetch churn.
      const OomFuzzOutcome tight =
          run_oom_fuzz(backend, 3 * kFuzzBlockBytes, seed);
      const OomFuzzOutcome ample =
          run_oom_fuzz(backend, std::size_t{1} << 20, seed);
      EXPECT_EQ(tight.host, ample.host)
          << "backend " << (backend == Backend::threaded ? "threaded" : "sim")
          << " seed " << seed;
      EXPECT_GT(tight.stats.evictions, 0u);
      EXPECT_GT(tight.stats.refetches, 0u);
      EXPECT_EQ(ample.stats.evictions, 0u);
    }
  }
}

// ---- Over-budget apps complete bit-identically ------------------------------

TEST(OutOfCore, CholeskyCompletesAtThreeTimesTheBudget) {
  constexpr std::size_t n = 192;
  constexpr std::size_t tile = 32;
  // 6x6 tiles; the 21 lower-triangle tile buffers total 172032 bytes.
  constexpr std::size_t triangle_bytes =
      21 * tile * tile * sizeof(double);
  for (const Backend backend : {Backend::threaded, Backend::simulated}) {
    auto run = [&](std::size_t budget) {
      auto rt = make_runtime(backend, 1, budget);
      Rng rng(7);
      blas::Matrix dense(n, n);
      dense.make_spd(rng);
      apps::TiledMatrix a = apps::TiledMatrix::from_dense(dense, tile);
      apps::CholeskyConfig config;
      config.streams_per_device = 2;
      config.host_streams = 1;
      config.tile_buffers = true;
      (void)apps::run_cholesky(*rt, config, a);
      return std::pair{std::vector<double>(a.data(), a.data() + n * n),
                       rt->stats()};
    };
    const auto [tight, tight_stats] = run(triangle_bytes / 3);
    const auto [ample, ample_stats] = run(std::size_t{1} << 30);
    EXPECT_EQ(tight, ample)
        << (backend == Backend::threaded ? "threaded" : "sim");
    EXPECT_GT(tight_stats.evictions, 0u);
    EXPECT_EQ(ample_stats.evictions, 0u);
    // Dispatches park only behind other actions' pins, never with room
    // to spare; the sim schedule is deterministic and parks.
    EXPECT_EQ(ample_stats.dispatch_parks, 0u);
    if (backend == Backend::simulated) {
      EXPECT_GT(tight_stats.dispatch_parks, 0u);
    }
  }
}

TEST(OutOfCore, MatmulCompletesAtThreeTimesTheBudget) {
  constexpr std::size_t n = 128;
  constexpr std::size_t tile = 32;
  constexpr std::size_t matrix_bytes = n * n * sizeof(double);
  for (const Backend backend : {Backend::threaded, Backend::simulated}) {
    auto run = [&](std::size_t budget) {
      auto rt = make_runtime(backend, 1, budget);
      Rng rng(3);
      blas::Matrix da(n, n);
      blas::Matrix db(n, n);
      da.randomize(rng);
      db.randomize(rng);
      apps::TiledMatrix a = apps::TiledMatrix::from_dense(da, tile);
      apps::TiledMatrix b = apps::TiledMatrix::from_dense(db, tile);
      apps::TiledMatrix c = apps::TiledMatrix::square(n, tile);
      apps::MatmulConfig config;
      config.streams_per_device = 2;
      config.host_streams = 0;  // pure offload: everything on the card
      (void)apps::run_matmul(*rt, config, a, b, c);
      return std::pair{std::vector<double>(c.data(), c.data() + n * n),
                       rt->stats()};
    };
    // A broadcast + B + C panels = 3 matrices on one card; the budget
    // holds one.
    const auto [tight, tight_stats] = run(matrix_bytes);
    const auto [ample, ample_stats] = run(std::size_t{1} << 30);
    EXPECT_EQ(tight, ample)
        << (backend == Backend::threaded ? "threaded" : "sim");
    EXPECT_GT(tight_stats.evictions, 0u);
    EXPECT_EQ(ample_stats.evictions, 0u);
  }
}

// ---- Service-layer quota accounting -----------------------------------------

TEST(OutOfCore, ServiceRefundsEvictionsAndRechargesRefetches) {
  auto rt = make_runtime(Backend::threaded, 1, kBytes);  // one buffer fits
  service::Service svc(*rt);
  const std::uint32_t tenant = svc.tenant_create(
      {.name = "t1", .max_device_resident_bytes = 4 * kBytes});
  auto session = svc.open_session(tenant);
  const DomainId card{1};

  std::vector<double> a(kDoubles, 1.0);
  std::vector<double> b(kDoubles, 2.0);
  (void)session->buffer_create("a", a.data(), kBytes, {});
  (void)session->buffer_create("b", b.data(), kBytes, {});

  session->buffer_instantiate("a", card);
  EXPECT_EQ(svc.tenant_stats(tenant).device_resident_bytes, kBytes);
  // The runtime evicts a to admit b; the service refunds a's charge, so
  // the quota keeps tracking what is actually resident.
  session->buffer_instantiate("b", card);
  EXPECT_EQ(rt->stats().evictions, 1u);
  EXPECT_EQ(svc.tenant_stats(tenant).device_resident_bytes, kBytes);

  // Demand refetch of a (evicting b) re-charges a and refunds b.
  const StreamId s = session->stream_create(card, CpuMask::first_n(2), {});
  const OperandRef ops[] = {{a.data(), kBytes, Access::inout}};
  (void)session->enqueue_compute(s, double_in_place(a.data(), kDoubles), ops);
  session->synchronize();
  EXPECT_EQ(svc.tenant_stats(tenant).device_resident_bytes, kBytes);

  // Deinstantiating the spilled b refunds nothing (its refund already
  // happened at eviction) — the old code would have silently clamped an
  // over-refund here.
  session->buffer_deinstantiate("b", card);
  EXPECT_EQ(svc.tenant_stats(tenant).device_resident_bytes, kBytes);

  session->close();
  EXPECT_EQ(svc.tenant_stats(tenant).device_resident_bytes, 0u);
}

TEST(OutOfCore, ServiceVetoesRefetchOverQuota) {
  // Runtime budget holds two 8 KiB buffers; tenant t1's quota holds one
  // plus a 4 KiB extra.
  auto rt = make_runtime(Backend::threaded, 1, 2 * kBytes);
  service::Service svc(*rt);
  const DomainId card{1};
  const std::uint32_t t1 = svc.tenant_create(
      {.name = "t1", .max_device_resident_bytes = kBytes});
  const std::uint32_t t2 = svc.tenant_create(
      {.name = "t2", .max_device_resident_bytes = 2 * kBytes});
  auto s1 = svc.open_session(t1);
  auto s2 = svc.open_session(t2);

  std::vector<double> a(kDoubles, 1.0);
  std::vector<double> c(kDoubles / 2, 3.0);
  std::vector<double> x(kDoubles, 4.0);
  std::vector<double> y(kDoubles, 5.0);
  (void)s1->buffer_create("a", a.data(), kBytes, {});
  (void)s1->buffer_create("c", c.data(), kBytes / 2, {});
  (void)s2->buffer_create("x", x.data(), kBytes, {});
  (void)s2->buffer_create("y", y.data(), kBytes, {});

  s1->buffer_instantiate("a", card);  // t1 charged 8 KiB
  s2->buffer_instantiate("x", card);  // card full: a + x
  s2->buffer_instantiate("y", card);  // evicts LRU a -> t1 refunded to 0
  EXPECT_EQ(svc.tenant_stats(t1).device_resident_bytes, 0u);
  EXPECT_EQ(svc.tenant_stats(t2).device_resident_bytes, 2 * kBytes);

  s1->buffer_instantiate("c", card);  // evicts x; t1 charged 4 KiB
  EXPECT_EQ(svc.tenant_stats(t1).device_resident_bytes, kBytes / 2);

  // Refetching a needs an 8 KiB re-charge on top of c's 4 KiB — over
  // t1's 8 KiB quota. The service vetoes; the compute fails with
  // quota_exceeded instead of sneaking the tenant back over its limit.
  const StreamId stream = s1->stream_create(card, CpuMask::first_n(2), {});
  const OperandRef ops[] = {{a.data(), kBytes, Access::inout}};
  (void)s1->enqueue_compute(stream, double_in_place(a.data(), kDoubles), ops);
  try {
    s1->synchronize();
    FAIL() << "refetch over quota must fail the action";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::quota_exceeded);
  }
  EXPECT_EQ(svc.tenant_stats(t1).device_resident_bytes, kBytes / 2);
  EXPECT_EQ(a[7], 1.0);  // the body never ran

  s1->close();
  s2->close();
  EXPECT_EQ(svc.tenant_stats(t1).device_resident_bytes, 0u);
  EXPECT_EQ(svc.tenant_stats(t2).device_resident_bytes, 0u);
}

}  // namespace
}  // namespace hs
