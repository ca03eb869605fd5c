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
//  * residency admission at dispatch is all or nothing: an action whose
//    operands do not fit beside other actions' pins parks without
//    evicting or pinning anything, one whose own operands can never fit
//    fails at once with Errc::resource_exhausted, and with eviction off
//    an over-budget dispatch fails instead of parking;
//  * Cholesky (tile_buffers) and matmul complete bit-identically at
//    ~3x a card's memory budget on both backends, and dispatches park
//    (dispatch_parks) only when the budget is tight; every park costs
//    exactly one more dispatch attempt;
//  * a retried transfer still pays its out-of-core refetch time in sim;
//  * the service layer refunds a tenant's device-resident quota at
//    eviction, re-charges at refetch, and vetoes a refetch that would
//    breach the quota; a woken action failed by that veto does not
//    strand the parked action its wakeup held back, and the veto takes
//    back only the admissions no other in-flight action has pinned.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/matmul.hpp"
#include "apps/tiled_matrix.hpp"
#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "graph/capture.hpp"
#include "graph/replay.hpp"
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
                                      CoherenceConfig coherence = {},
                                      bool eviction = true) {
  RuntimeConfig config;
  config.coherence = coherence;
  config.eviction = eviction;
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

/// dst[i] += src[i] on the sink incarnations.
ComputePayload add_into(double* dst, const double* src, std::size_t count) {
  ComputePayload work;
  work.body = [dst, src, count](TaskContext& ctx) {
    double* d = ctx.translate(dst, count);
    const double* s = ctx.translate(src, count);
    for (std::size_t i = 0; i < count; ++i) {
      d[i] += s[i];
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

// ---- Parking contract: all-or-nothing residency at dispatch -----------------

TEST(OutOfCore, ParkedDispatchEvictsNothingAndHoldsNoPins) {
  // Budget of three buffers. The sim completes nothing until the host
  // waits, so a dispatched action holds its pins until synchronize.
  auto rt = make_runtime(Backend::simulated, 1, 3 * kBytes);
  const DomainId card{1};
  enum : std::size_t { Z, W, X, Y, V, kCount };
  std::vector<std::vector<double>> host(kCount, std::vector<double>(kDoubles));
  std::vector<BufferId> ids;
  for (std::size_t b = 0; b < kCount; ++b) {
    for (std::size_t i = 0; i < kDoubles; ++i) {
      host[b][i] = 1000.0 * static_cast<double>(b) + static_cast<double>(i);
    }
    ids.push_back(rt->buffer_create(host[b].data(), kBytes));
  }
  const std::vector<std::vector<double>> before = host;
  const StreamId s1 = rt->stream_create(card, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(card, CpuMask::first_n(2));
  // Instantiating Y spills the least recently used Z (clean: host has it).
  for (const std::size_t b : {Z, W, X, Y}) {
    rt->buffer_instantiate(ids[b], card);
    (void)rt->enqueue_transfer(s1, host[b].data(), kBytes,
                               XferDir::src_to_sink);
    rt->synchronize();
  }
  ASSERT_EQ(rt->stats().evictions, 1u);

  // x += y pins X and Y.
  const OperandRef xy[] = {{host[X].data(), kBytes, Access::inout},
                           {host[Y].data(), kBytes, Access::in}};
  (void)rt->enqueue_compute(s1, add_into(host[X].data(), host[Y].data(),
                                         kDoubles),
                            xy);
  // z += w needs the spilled Z and the resident W: two buffers beside two
  // pinned ones in a budget of three. It parks, and evicts nothing.
  const OperandRef zw[] = {{host[Z].data(), kBytes, Access::inout},
                           {host[W].data(), kBytes, Access::in}};
  (void)rt->enqueue_compute(s2, add_into(host[Z].data(), host[W].data(),
                                         kDoubles),
                            zw);
  EXPECT_EQ(rt->stats().dispatch_parks, 1u);
  EXPECT_EQ(rt->stats().evictions, 1u);
  // The parked action pins nothing: W is still a victim for V.
  rt->buffer_instantiate(ids[V], card);
  EXPECT_EQ(rt->stats().evictions, 2u);

  rt->synchronize();
  (void)rt->enqueue_transfer(s1, host[X].data(), kBytes,
                             XferDir::sink_to_src);
  (void)rt->enqueue_transfer(s2, host[Z].data(), kBytes,
                             XferDir::sink_to_src);
  rt->synchronize();
  for (std::size_t i = 0; i < kDoubles; ++i) {
    ASSERT_EQ(host[X][i], before[X][i] + before[Y][i]) << "i=" << i;
    ASSERT_EQ(host[Z][i], before[Z][i] + before[W][i]) << "i=" << i;
  }
  const RuntimeStats stats = rt->stats();
  EXPECT_EQ(stats.dispatch_parks, 1u);
  EXPECT_EQ(stats.dispatch_attempts,
            stats.computes_enqueued + stats.transfers_enqueued +
                stats.syncs_enqueued + stats.dispatch_parks);
}

TEST(OutOfCore, OperandsThatCanNeverFitFailAtOnceOnBothBackends) {
  for (const Backend backend : {Backend::simulated, Backend::threaded}) {
    const char* name = backend == Backend::threaded ? "threaded" : "sim";
    // Budget of two buffers; one action needs three.
    auto rt = make_runtime(backend, 1, 2 * kBytes);
    const DomainId card{1};
    std::vector<std::vector<double>> host(4,
                                          std::vector<double>(kDoubles, 1.0));
    for (auto& h : host) {
      rt->buffer_instantiate(rt->buffer_create(h.data(), kBytes), card);
    }
    const StreamId s1 = rt->stream_create(card, CpuMask::first_n(2));
    const StreamId s2 = rt->stream_create(card, CpuMask::first_n(2));

    // Another action holds a pin while the oversized one dispatches: on
    // sim until the host waits, on threads until `release` is set (the
    // sim runs bodies at dispatch, so there it must not wait).
    std::atomic<bool> release{backend == Backend::simulated};
    ComputePayload hold;
    hold.body = [&release](TaskContext&) {
      while (!release.load()) {
        std::this_thread::yield();
      }
    };
    const OperandRef held[] = {{host[3].data(), kBytes, Access::in}};
    (void)rt->enqueue_compute(s1, std::move(hold), held);
    ComputePayload never;
    never.body = [](TaskContext&) { ADD_FAILURE() << "body must not run"; };
    const OperandRef three[] = {{host[0].data(), kBytes, Access::inout},
                                {host[1].data(), kBytes, Access::in},
                                {host[2].data(), kBytes, Access::in}};
    (void)rt->enqueue_compute(s2, std::move(never), three);
    release.store(true);

    const Status status = rt->synchronize(60.0);
    EXPECT_EQ(status.code(), Errc::resource_exhausted) << name;
    const RuntimeStats stats = rt->stats();
    EXPECT_EQ(stats.dispatch_parks, 0u) << name;
    EXPECT_EQ(stats.actions_failed, 1u) << name;
    EXPECT_EQ(stats.actions_completed + stats.actions_failed +
                  stats.actions_cancelled,
              stats.computes_enqueued + stats.transfers_enqueued +
                  stats.syncs_enqueued)
        << name;
  }
}

TEST(OutOfCore, EvictionDisabledFailsOverBudgetDispatchWithoutParking) {
  auto rt = make_runtime(Backend::simulated, 1, 2 * kBytes, {},
                         /*eviction=*/false);
  const DomainId card{1};
  std::vector<std::vector<double>> host(3, std::vector<double>(kDoubles, 1.0));
  for (auto& h : host) {
    (void)rt->buffer_create(h.data(), kBytes);
  }
  // The first two fill the budget; the third has no room.
  rt->buffer_instantiate(BufferId{0}, card);
  rt->buffer_instantiate(BufferId{1}, card);
  const StreamId s1 = rt->stream_create(card, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(card, CpuMask::first_n(2));
  // Capture skips the enqueue-time instantiation check, so the replayed
  // compute reaches dispatch with its operand absent.
  const StreamId captured[] = {s2};
  graph::GraphCapture capture(*rt, captured);
  const OperandRef third[] = {{host[2].data(), kBytes, Access::inout}};
  (void)rt->enqueue_compute(s2, double_in_place(host[2].data(), kDoubles),
                            third);
  graph::GraphExec exec(*rt, capture.finish());

  // Both resident buffers stay pinned until the host waits. The replayed
  // compute would fit once they drain, but only by evicting one of them.
  const OperandRef both[] = {{host[0].data(), kBytes, Access::inout},
                             {host[1].data(), kBytes, Access::in}};
  (void)rt->enqueue_compute(s1, add_into(host[0].data(), host[1].data(),
                                         kDoubles),
                            both);
  (void)exec.launch();
  EXPECT_EQ(rt->stats().dispatch_parks, 0u);
  EXPECT_EQ(rt->stats().actions_failed, 1u);
  EXPECT_EQ(rt->synchronize(60.0).code(), Errc::resource_exhausted);
  EXPECT_EQ(rt->stats().evictions, 0u);
}

// ---- Honest virtual time ----------------------------------------------------

TEST(OutOfCore, RetriedTransferStillPaysItsRefetch) {
  constexpr std::size_t kBig = std::size_t{64} << 20;
  // Virtual seconds of a d2h that must first refetch its evicted buffer,
  // with or without a transient fault on the d2h's first attempt.
  const auto d2h_seconds = [](bool fault) {
    sim::SimPlatform platform = sim::hsw_plus_knc(1);
    platform.desc.domains[1].memory_bytes = {
        {MemKind::ddr, std::size_t{96} << 20}};
    RuntimeConfig config;
    config.platform = platform.desc;
    config.device_link = platform.link;
    config.coherence.elide = false;  // the d2h must cross the link
    if (fault) {
      // The card's transfer 0 is the upload, transfer 1 the d2h.
      config.faults.schedule = {
          {DomainId{1}, 1, 0, FaultKind::transient_error}};
    }
    // Payloads off: the 64 MiB buffers are scheduled, never touched.
    Runtime rt(config, std::make_unique<sim::SimExecutor>(platform, false));
    const std::unique_ptr<std::byte[]> a(new std::byte[kBig]);
    const std::unique_ptr<std::byte[]> b(new std::byte[kBig]);
    const DomainId card{1};
    const BufferId ba = rt.buffer_create(a.get(), kBig);
    const BufferId bb = rt.buffer_create(b.get(), kBig);
    const StreamId s = rt.stream_create(card, CpuMask::first_n(2));
    rt.buffer_instantiate(ba, card);
    (void)rt.enqueue_transfer(s, a.get(), kBig, XferDir::src_to_sink);
    rt.synchronize();
    rt.buffer_instantiate(bb, card);  // evicts a; the host holds its bytes
    const double start = rt.now();
    (void)rt.enqueue_transfer(s, a.get(), kBig, XferDir::sink_to_src);
    rt.synchronize();
    EXPECT_EQ(rt.stats().refetches, 1u);
    EXPECT_EQ(rt.stats().transfers_retried, fault ? 1u : 0u);
    return rt.now() - start;
  };
  const double fault_free = d2h_seconds(false);
  const double faulted = d2h_seconds(true);
  // Whichever attempt runs pays the refetch upload before its own copy.
  EXPECT_GE(faulted, fault_free);
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
    // to spare; the sim schedule is deterministic and parks. Each park
    // is one more dispatch attempt: its wakeup.
    EXPECT_EQ(ample_stats.dispatch_parks, 0u);
    if (backend == Backend::simulated) {
      EXPECT_GT(tight_stats.dispatch_parks, 0u);
      EXPECT_EQ(tight_stats.dispatch_attempts,
                tight_stats.computes_enqueued +
                    tight_stats.transfers_enqueued +
                    tight_stats.syncs_enqueued + tight_stats.dispatch_parks);
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

TEST(OutOfCore, VetoedWakeupStrandsNoParkedAction) {
  for (const Backend backend : {Backend::simulated, Backend::threaded}) {
    const char* name = backend == Backend::threaded ? "threaded" : "sim";
    // Budget of two and a half buffers. t1's quota holds c plus half of a.
    auto rt = make_runtime(backend, 1, 2 * kBytes + kBytes / 2);
    service::Service svc(*rt);
    const DomainId card{1};
    const std::uint32_t t1 = svc.tenant_create(
        {.name = "t1", .max_device_resident_bytes = kBytes});
    const std::uint32_t t2 = svc.tenant_create(
        {.name = "t2", .max_device_resident_bytes = 4 * kBytes});
    auto s1 = svc.open_session(t1);
    auto s2 = svc.open_session(t2);

    std::vector<double> a(kDoubles, 1.0);
    std::vector<double> c(kDoubles / 2, 3.0);
    std::vector<double> x(kDoubles, 4.0);
    std::vector<double> y(kDoubles, 5.0);
    std::vector<double> z(kDoubles, 6.0);
    std::vector<double> w(kDoubles, 7.0);
    (void)s1->buffer_create("a", a.data(), kBytes, {});
    (void)s1->buffer_create("c", c.data(), kBytes / 2, {});
    (void)s2->buffer_create("x", x.data(), kBytes, {});
    (void)s2->buffer_create("y", y.data(), kBytes, {});
    (void)s2->buffer_create("z", z.data(), kBytes, {});
    (void)s2->buffer_create("w", w.data(), kBytes, {});
    // Each instantiation past the second spills the least recently used
    // buffer: z, w and a end up spilled, x and y resident.
    s2->buffer_instantiate("z", card);
    s2->buffer_instantiate("w", card);
    s1->buffer_instantiate("a", card);
    s2->buffer_instantiate("x", card);
    s2->buffer_instantiate("y", card);
    const StreamId sx = s2->stream_create(card, CpuMask::first_n(2), {});
    const StreamId sz = s2->stream_create(card, CpuMask::first_n(2), {});
    const StreamId sa = s1->stream_create(card, CpuMask::first_n(2), {});
    (void)s2->enqueue_transfer(sx, x.data(), kBytes, XferDir::src_to_sink);
    (void)s2->enqueue_transfer(sx, y.data(), kBytes, XferDir::src_to_sink);
    ASSERT_EQ(rt->synchronize(30.0).code(), Errc::ok) << name;
    ASSERT_EQ(rt->stats().evictions, 3u) << name;

    // x += y pins x and y until `release` is set (on sim, until the host
    // waits: the sim runs bodies at dispatch, so there it must not wait).
    std::atomic<bool> release{backend == Backend::simulated};
    ComputePayload hold = add_into(x.data(), y.data(), kDoubles);
    hold.body = [&release, add = std::move(hold.body)](TaskContext& ctx) {
      while (!release.load()) {
        std::this_thread::yield();
      }
      add(ctx);
    };
    const OperandRef xy[] = {{x.data(), kBytes, Access::inout},
                             {y.data(), kBytes, Access::in}};
    (void)s2->enqueue_compute(sx, std::move(hold), xy);
    // c fills the budget, more recently used than x and y.
    s1->buffer_instantiate("c", card);
    ASSERT_EQ(svc.tenant_stats(t1).device_resident_bytes, kBytes / 2) << name;

    // t1's a (one buffer) and t2's z += w (two) both park behind x and y.
    const OperandRef a_ops[] = {{a.data(), kBytes, Access::inout}};
    (void)s1->enqueue_compute(sa, double_in_place(a.data(), kDoubles), a_ops);
    const OperandRef zw[] = {{z.data(), kBytes, Access::inout},
                             {w.data(), kBytes, Access::in}};
    (void)s2->enqueue_compute(sz, add_into(z.data(), w.data(), kDoubles), zw);
    EXPECT_EQ(rt->stats().dispatch_parks, 2u) << name;

    // Once x and y release, the wake pass promises a's bytes to t1's
    // action and holds z += w back behind them. The service then vetoes
    // a's refetch (c plus a is over t1's quota), so the action fails
    // holding nothing, and its completion must wake z += w.
    release.store(true);
    EXPECT_EQ(rt->synchronize(30.0).code(), Errc::quota_exceeded) << name;
    EXPECT_EQ(svc.tenant_stats(t1).device_resident_bytes, kBytes / 2) << name;
    EXPECT_EQ(a[7], 1.0) << name;  // the vetoed body never ran
    (void)s2->enqueue_transfer(sz, z.data(), kBytes, XferDir::sink_to_src);
    (void)s2->enqueue_transfer(sx, x.data(), kBytes, XferDir::sink_to_src);
    ASSERT_EQ(rt->synchronize(30.0).code(), Errc::ok) << name;
    EXPECT_EQ(z[7], 13.0) << name;
    EXPECT_EQ(x[7], 9.0) << name;

    const RuntimeStats stats = rt->stats();
    EXPECT_EQ(stats.actions_failed, 1u) << name;
    EXPECT_EQ(stats.actions_completed + stats.actions_failed +
                  stats.actions_cancelled,
              stats.computes_enqueued + stats.transfers_enqueued +
                  stats.syncs_enqueued)
        << name;
    s1->close();
    s2->close();
  }
}

/// Vetoes the first refetch it is told of, but only once `pinned` is set,
/// so a test can slip another action in between a dispatch's admissions
/// and their announcement.
class VetoFirstRefetch final : public AdmissionHook {
 public:
  void before_admit(std::uint32_t, ActionType, std::size_t,
                    std::size_t) override {}
  void after_admit(std::uint32_t, ActionType) noexcept override {}
  void on_complete(std::uint32_t, ActionType, std::size_t) noexcept override {}
  void on_refetch(BufferId, DomainId, std::size_t) override {
    if (admitted.exchange(true)) {
      return;
    }
    while (!pinned.load()) {
      std::this_thread::yield();
    }
    throw Error(Errc::quota_exceeded, "refetch vetoed");
  }

  std::atomic<bool> admitted{false};
  std::atomic<bool> pinned{false};
};

TEST(OutOfCore, VetoKeepsAnAdmissionAnotherActionPinned) {
  VetoFirstRefetch hook;
  // Budget of three buffers; T and U end up spilled.
  auto rt = make_runtime(Backend::threaded, 1, 3 * kBytes);
  const DomainId card{1};
  enum : std::size_t { T, U, F1, F2, F3, kCount };
  std::vector<std::vector<double>> host(kCount, std::vector<double>(kDoubles));
  std::vector<BufferId> ids;
  for (std::size_t b = 0; b < kCount; ++b) {
    for (std::size_t i = 0; i < kDoubles; ++i) {
      host[b][i] = 1000.0 * static_cast<double>(b) + static_cast<double>(i);
    }
    ids.push_back(rt->buffer_create(host[b].data(), kBytes));
    rt->buffer_instantiate(ids[b], card);
  }
  ASSERT_EQ(rt->stats().evictions, 2u);
  const std::vector<std::vector<double>> before = host;
  const StreamId s1 = rt->stream_create(card, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(card, CpuMask::first_n(2));
  rt->set_admission_hook(&hook);

  // D1 on (F1, T, U) waits behind P on F1, so an executor thread
  // dispatches it when P completes: it admits T and U, then blocks in the
  // hook announcing T.
  std::atomic<bool> go{false};
  ComputePayload p;
  p.body = [&go](TaskContext&) {
    while (!go.load()) {
      std::this_thread::yield();
    }
  };
  const OperandRef f1[] = {{host[F1].data(), kBytes, Access::inout}};
  (void)rt->enqueue_compute(s1, std::move(p), f1);
  ComputePayload d1;
  d1.body = [](TaskContext&) { ADD_FAILURE() << "vetoed body must not run"; };
  const OperandRef d1_ops[] = {{host[F1].data(), kBytes, Access::in},
                               {host[T].data(), kBytes, Access::inout},
                               {host[U].data(), kBytes, Access::in}};
  (void)rt->enqueue_compute(s1, std::move(d1), d1_ops);
  go.store(true);
  while (!hook.admitted.load()) {
    std::this_thread::yield();
  }
  // D2 finds U resident and pins it. The veto of T must take T back out
  // but leave U resident for D2.
  const OperandRef u[] = {{host[U].data(), kBytes, Access::inout}};
  (void)rt->enqueue_compute(s2, double_in_place(host[U].data(), kDoubles), u);
  hook.pinned.store(true);
  EXPECT_EQ(rt->synchronize(30.0).code(), Errc::quota_exceeded);

  (void)rt->enqueue_transfer(s2, host[U].data(), kBytes, XferDir::sink_to_src);
  EXPECT_EQ(rt->synchronize(30.0).code(), Errc::ok);
  for (std::size_t i = 0; i < kDoubles; ++i) {
    ASSERT_EQ(host[U][i], 2.0 * before[U][i]) << "i=" << i;
  }
  EXPECT_EQ(host[T], before[T]);
  EXPECT_EQ(rt->stats().actions_failed, 1u);
  rt->set_admission_hook(nullptr);
}

}  // namespace
}  // namespace hs
