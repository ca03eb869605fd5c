// Fault-aware scheduling and tile-granular recovery.
//
//   * LinkHealth EWMA + hysteresis, Runtime::pick_healthy steering, and
//     the placement consumers (Cholesky row owners, logical domains).
//   * Deterministic fault identity: decisions are keyed by per-domain
//     enqueue order, so the canonical injector log matches exactly
//     between the threaded and simulated backends.
//   * Threaded retry requeue: a backing-off transfer must not
//     head-of-line block other domains' transfers through the copier.
//   * Dirty-range tracking: evacuation syncs device-newer ranges back
//     from a live source and fails loudly (Errc::data_loss) when the
//     only current copy died with its domain.
//   * mark_domain_lost claims each in-flight action exactly once, even
//     against concurrent completions.
//   * Partial re-execution: plan_recovery's closure, and the Cholesky
//     driver that re-runs only the lost subgraph after a device loss.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "apps/cholesky.hpp"
#include "apps/tiled_matrix.hpp"
#include "common/rng.hpp"
#include "core/buffer.hpp"
#include "core/logical_domain.hpp"
#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "graph/capture.hpp"
#include "graph/passes.hpp"
#include "graph/replay.hpp"
#include "hsblas/reference.hpp"
#include "interconnect/health.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs {
namespace {

std::unique_ptr<Runtime> make_runtime(bool simulated, std::size_t cards = 1,
                                      FaultPlan faults = {},
                                      RetryPolicy retry = {},
                                      ThreadedExecutorConfig texec = {},
                                      CoherenceConfig coherence = {}) {
  RuntimeConfig config;
  config.faults = std::move(faults);
  config.retry = retry;
  config.coherence = coherence;
  if (simulated) {
    const sim::SimPlatform platform = sim::hsw_plus_knc(cards);
    config.platform = platform.desc;
    return std::make_unique<Runtime>(
        config, std::make_unique<sim::SimExecutor>(platform, true));
  }
  config.platform = PlatformDesc::host_plus_cards(4, cards, 4);
  return std::make_unique<Runtime>(config,
                                   std::make_unique<ThreadedExecutor>(texec));
}

// The determinism/chaos tests below pump the same bytes repeatedly and
// need every enqueued transfer to actually hit the wire so the fault plan
// is consumed as written: no transfer elision. Device->device moves above
// 2 KiB go in 1 KiB chunks, so small buffers exercise the pipelined path.
const CoherenceConfig kOnTheWire{
    .elide = false, .pipeline_threshold = 2048, .pipeline_chunk = 1024};

class FaultRecovery : public ::testing::TestWithParam<bool> {};

// ---- LinkHealth -------------------------------------------------------------

TEST(LinkHealth, EwmaCrossesIntoDegradedWithHysteresis) {
  const HealthPolicy policy;  // alpha 0.25, degrade < 0.5, recover > 0.9
  LinkHealth h;
  EXPECT_FALSE(h.sample(0.0, policy));  // 0.75
  EXPECT_FALSE(h.sample(0.0, policy));  // 0.5625
  EXPECT_TRUE(h.sample(0.0, policy));   // 0.42 -> flips degraded
  EXPECT_TRUE(h.degraded);
  // The hysteresis band holds through a short clean streak; only a
  // sustained one recovers the link.
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(h.sample(1.0, policy));
    EXPECT_TRUE(h.degraded) << "recovered too early at clean sample " << i;
  }
  EXPECT_FALSE(h.sample(1.0, policy));  // 0.92 > 0.9
  EXPECT_FALSE(h.degraded);
}

TEST(LinkHealth, DeviceLossIsSticky) {
  const HealthPolicy policy;
  LinkHealth h;
  h.lose();
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.score, 0.0);
  for (int i = 0; i < 50; ++i) {
    (void)h.sample(1.0, policy);
  }
  EXPECT_TRUE(h.degraded);  // a lost device never recovers
}

// ---- Health tracking + steering through the runtime -------------------------

/// Transient storm on D1: attempts 0 and 1 of transfers 0..2 fault (the
/// third attempt succeeds, so the domain survives but its EWMA sinks).
FaultPlan d1_transient_storm() {
  FaultPlan plan;
  for (std::uint64_t t = 0; t < 3; ++t) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      plan.schedule.push_back(
          {DomainId{1}, t, attempt, FaultKind::transient_error});
    }
  }
  return plan;
}

/// Pushes three uploads through D1 so the storm above is consumed.
void degrade_d1(Runtime& rt, std::vector<double>& x) {
  const BufferId id =
      rt.buffer_create(x.data(), x.size() * sizeof(double));
  rt.buffer_instantiate(id, DomainId{1});
  const StreamId s = rt.stream_create(DomainId{1}, CpuMask::first_n(2));
  for (int i = 0; i < 3; ++i) {
    if (i > 0) {
      // Each upload must carry fresh bytes, or the coherence layer elides
      // the re-send and the storm's scheduled faults go unconsumed.
      rt.synchronize();
      x[0] += 1.0;
      rt.note_host_write(x.data(), sizeof(double));
    }
    (void)rt.enqueue_transfer(s, x.data(), x.size() * sizeof(double),
                              XferDir::src_to_sink);
  }
  rt.synchronize();
}

TEST_P(FaultRecovery, RetryStormDegradesLinkAndSteersPlacement) {
  auto rt = make_runtime(GetParam(), 2, d1_transient_storm());
  std::vector<double> x(64, 1.0);
  degrade_d1(*rt, x);

  EXPECT_TRUE(rt->link_degraded(DomainId{1}));
  EXPECT_FALSE(rt->link_degraded(DomainId{2}));
  const LinkHealth h1 = rt->link_health(DomainId{1});
  EXPECT_EQ(h1.retries, 6u);
  EXPECT_LT(h1.score, 0.5);
  EXPECT_GE(rt->stats().links_degraded, 1u);
  EXPECT_EQ(rt->stats().transfers_retried, 6u);
  EXPECT_TRUE(rt->domain_alive(DomainId{1}));  // degraded, not dead

  // pick_healthy prefers its first candidate while healthy ...
  const DomainId prefer_d2[] = {DomainId{2}, DomainId{1}};
  EXPECT_EQ(rt->pick_healthy(prefer_d2).value, 2u);
  const auto steered_before = rt->stats().placements_steered;
  // ... and steers off a degraded first choice.
  const DomainId prefer_d1[] = {DomainId{1}, DomainId{2}};
  EXPECT_EQ(rt->pick_healthy(prefer_d1).value, 2u);
  EXPECT_EQ(rt->stats().placements_steered, steered_before + 1);
}

TEST_P(FaultRecovery, DegradedCandidateIsStillUsableAsLastResort) {
  auto rt = make_runtime(GetParam(), 1, d1_transient_storm());
  std::vector<double> x(64, 1.0);
  degrade_d1(*rt, x);
  ASSERT_TRUE(rt->link_degraded(DomainId{1}));

  // Sole candidate: degraded beats nothing.
  const DomainId only_d1[] = {DomainId{1}};
  EXPECT_EQ(rt->pick_healthy(only_d1).value, 1u);

  // All candidates dead: that is an error, not a silent placement.
  rt->mark_domain_lost(DomainId{1});
  (void)rt->clear_pending_errors();
  EXPECT_THROW((void)rt->pick_healthy(only_d1), Error);
}

TEST_P(FaultRecovery, CholeskySteersRowsOffADegradedLink) {
  auto rt = make_runtime(GetParam(), 2, d1_transient_storm());
  std::vector<double> warmup(64, 1.0);
  degrade_d1(*rt, warmup);
  ASSERT_TRUE(rt->link_degraded(DomainId{1}));

  Rng rng(7);
  blas::Matrix dense(128, 128);
  dense.make_spd(rng);
  apps::TiledMatrix a = apps::TiledMatrix::from_dense(dense, 32);
  apps::CholeskyConfig config;
  config.streams_per_device = 2;
  config.host_streams = 2;

  const auto steered_before = rt->stats().placements_steered;
  (void)apps::run_cholesky(*rt, config, a);
  // The weighted round-robin would have handed rows to D1; the degraded
  // link steered them to healthy domains at placement time.
  EXPECT_GT(rt->stats().placements_steered, steered_before);

  const blas::Matrix recon =
      blas::ref::reconstruct_llt(a.to_dense().view());
  EXPECT_LT(blas::max_abs_diff(recon.view(), dense.view()), 1e-8 * 128);
}

TEST_P(FaultRecovery, LogicalDomainPickHealthySteers) {
  auto rt = make_runtime(GetParam(), 2, d1_transient_storm());
  std::vector<double> x(64, 1.0);
  degrade_d1(*rt, x);
  ASSERT_TRUE(rt->link_degraded(DomainId{1}));

  DomainPartitioner part(*rt);
  const LogicalDomainId on_d1 = part.define(DomainId{1}, CpuMask::first_n(2));
  const LogicalDomainId on_d2 = part.define(DomainId{2}, CpuMask::first_n(2));
  EXPECT_EQ(part.pick_healthy(on_d1).value, on_d2.value);
  EXPECT_EQ(part.pick_healthy(on_d2).value, on_d2.value);
}

// ---- Deterministic fault identity across backends ---------------------------

RuntimeStats pump_transfers(Runtime& rt, std::vector<InjectedFault>& log) {
  std::vector<std::vector<double>> data;
  std::vector<StreamId> streams;
  for (std::uint32_t d = 1; d < rt.domain_count(); ++d) {
    auto& x = data.emplace_back(128, 1.0);
    const BufferId id = rt.buffer_create(x.data(), 128 * sizeof(double));
    rt.buffer_instantiate(id, DomainId{d});
    streams.push_back(rt.stream_create(DomainId{d}, CpuMask::first_n(2)));
  }
  // Card 1 -> card 2 moves (the runtime needs two cards), all on card 2's
  // stream so their host staging rows are ordered: the whole 4 KiB
  // buffer, chunked under kOnTheWire, and its first 1 KiB in one piece.
  std::vector<double> peer_data(512, 2.0);
  const BufferId peer_buf =
      rt.buffer_create(peer_data.data(), peer_data.size() * sizeof(double));
  rt.buffer_instantiate(peer_buf, DomainId{1});
  rt.buffer_instantiate(peer_buf, DomainId{2});
  for (int iter = 0; iter < 6; ++iter) {
    for (std::size_t d = 0; d < streams.size(); ++d) {
      (void)rt.enqueue_transfer(streams[d], data[d].data(),
                                128 * sizeof(double), XferDir::src_to_sink);
      (void)rt.enqueue_transfer(streams[d], data[d].data(),
                                128 * sizeof(double), XferDir::sink_to_src);
    }
    (void)rt.enqueue_transfer_from(streams[1], peer_data.data(),
                                   512 * sizeof(double), DomainId{1});
    (void)rt.enqueue_transfer_from(streams[1], peer_data.data(),
                                   128 * sizeof(double), DomainId{1});
  }
  rt.synchronize();
  log = rt.fault_injector().canonical_log();
  return rt.stats();
}

TEST(FaultDeterminism, CanonicalLogMatchesAcrossBackends) {
  FaultPlan plan;
  plan.seed = 99;
  plan.p_transient = 0.2;
  plan.p_stall = 0.15;
  plan.stall_s = 200e-6;

  std::vector<InjectedFault> threaded_log;
  std::vector<InjectedFault> sim_log;
  auto threaded = make_runtime(false, 2, plan, {}, {}, kOnTheWire);
  const RuntimeStats ts = pump_transfers(*threaded, threaded_log);
  auto simulated = make_runtime(true, 2, plan, {}, {}, kOnTheWire);
  const RuntimeStats ss = pump_transfers(*simulated, sim_log);

  // Same plan + same workload -> the same transfers fault, with the same
  // kinds, on both backends. (The raw log order may permute under the
  // threaded copier pool; the canonical order must not.)
  ASSERT_TRUE(threaded->domain_alive(DomainId{1}) &&
              threaded->domain_alive(DomainId{2}));
  ASSERT_TRUE(simulated->domain_alive(DomainId{1}) &&
              simulated->domain_alive(DomainId{2}));
  EXPECT_GT(threaded_log.size(), 0u);
  EXPECT_EQ(threaded_log, sim_log);
  EXPECT_EQ(ts.faults_injected, ss.faults_injected);
  EXPECT_EQ(ts.transfers_retried, ss.transfers_retried);
  // The device->device moves went through the same decision, chunked.
  EXPECT_GT(ss.transfer_chunks, 0u);
  EXPECT_EQ(ts.transfer_chunks, ss.transfer_chunks);
}

TEST(FaultDeterminism, ThreadedRunsAreRepeatable) {
  FaultPlan plan;
  plan.seed = 424242;
  plan.p_transient = 0.12;
  std::vector<InjectedFault> first;
  std::vector<InjectedFault> second;
  (void)pump_transfers(*make_runtime(false, 2, plan, {}, {}, kOnTheWire),
                       first);
  (void)pump_transfers(*make_runtime(false, 2, plan, {}, {}, kOnTheWire),
                       second);
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
}

// ---- Threaded retry requeue (head-of-line blocking) -------------------------

TEST(ThreadedRetry, BackoffDoesNotHeadOfLineBlockOtherDomains) {
  // One copier serves both cards. D1's first transfer fails twice and
  // backs off 0.2 s per retry; D2's transfer must still complete almost
  // immediately, because the copier is requeued, not slept.
  FaultPlan plan;
  plan.schedule = {{DomainId{1}, 0, 0, FaultKind::transient_error},
                   {DomainId{1}, 0, 1, FaultKind::transient_error}};
  RetryPolicy retry;
  retry.base_backoff_s = 0.2;
  retry.multiplier = 1.0;
  ThreadedExecutorConfig texec;
  texec.transfer_workers = 1;
  auto rt = make_runtime(false, 2, plan, retry, texec);

  std::vector<double> x1(512, 1.0);
  std::vector<double> x2(512, 2.0);
  const BufferId b1 = rt->buffer_create(x1.data(), 512 * sizeof(double));
  const BufferId b2 = rt->buffer_create(x2.data(), 512 * sizeof(double));
  rt->buffer_instantiate(b1, DomainId{1});
  rt->buffer_instantiate(b2, DomainId{2});
  const StreamId s1 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(DomainId{2}, CpuMask::first_n(2));

  (void)rt->enqueue_transfer(s1, x1.data(), 512 * sizeof(double),
                             XferDir::src_to_sink);
  const auto d2_done = rt->enqueue_transfer(s2, x2.data(),
                                            512 * sizeof(double),
                                            XferDir::src_to_sink);
  // Well inside D1's 0.4 s of accumulated backoff: a sleeping copier
  // would time this wait out.
  const std::shared_ptr<EventState> evs[] = {d2_done};
  const Status st = rt->event_wait_host(evs, WaitMode::all, 0.1);
  EXPECT_TRUE(static_cast<bool>(st)) << st.message();

  rt->synchronize();  // D1's retries still complete...
  EXPECT_EQ(rt->stats().transfers_retried, 2u);
  EXPECT_TRUE(rt->domain_alive(DomainId{1}));  // ...successfully
}

// ---- Dirty-range tracking & evacuation --------------------------------------
// Dirty ranges are now derived from the validity intervals (dirty =
// valid(device) - valid(host)): device compute writes create dirtiness,
// device->host transfers clear it.

TEST(DirtyRanges, MarkMergesAndClearSplits) {
  std::vector<std::byte> mem(256);
  Buffer buf(BufferId{1}, mem.data(), mem.size(), BufferProps{});
  const DomainId d{1};
  buf.instantiate(d);
  EXPECT_FALSE(buf.dirty_in(d));

  using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;
  buf.note_compute_write(d, 0, 64);
  buf.note_compute_write(d, 64, 64);  // adjacent: merges
  EXPECT_EQ(buf.dirty_ranges(d), (Ranges{{0, 128}}));
  buf.note_transfer(d, kHostDomain, 32, 32);  // interior sync home: splits
  EXPECT_EQ(buf.dirty_ranges(d), (Ranges{{0, 32}, {64, 64}}));
  buf.note_compute_write(d, 16, 64);  // bridges the hole
  EXPECT_EQ(buf.dirty_ranges(d), (Ranges{{0, 128}}));
  buf.note_transfer(d, kHostDomain, 0, 256);
  EXPECT_FALSE(buf.dirty_in(d));

  buf.note_compute_write(d, 8, 8);
  buf.discard_dirty(d);
  EXPECT_FALSE(buf.dirty_in(d));
}

TEST(DirtyRanges, ValidityFollowsTransfersAndWrites) {
  std::vector<std::byte> mem(256);
  Buffer buf(BufferId{1}, mem.data(), mem.size(), BufferProps{});
  const DomainId d1{1};
  const DomainId d2{2};
  buf.instantiate(d1);
  buf.instantiate(d2);

  // Fresh device incarnations are entirely invalid; the host alias is
  // valid over the whole buffer.
  EXPECT_TRUE(buf.valid_over(kHostDomain, 0, 256));
  EXPECT_FALSE(buf.valid_over(d1, 0, 1));

  // Upload: the device copies the (valid) host range and becomes valid.
  buf.note_transfer(kHostDomain, d1, 0, 128);
  EXPECT_TRUE(buf.valid_over(d1, 0, 128));
  EXPECT_FALSE(buf.valid_over(d1, 0, 129));
  EXPECT_FALSE(buf.dirty_in(d1));  // agrees with host: not dirty

  // A device write invalidates every other incarnation over the range.
  buf.note_compute_write(d1, 32, 32);
  EXPECT_TRUE(buf.valid_over(d1, 0, 128));
  EXPECT_FALSE(buf.valid_over(kHostDomain, 32, 32));
  EXPECT_TRUE(buf.valid_over(kHostDomain, 64, 192));

  // Transferring from a partially-valid source propagates only the valid
  // part: d2 copies d1's bytes over [16, 48) but d1 itself is the logical
  // owner only where valid — here everywhere, so d2 becomes valid there.
  buf.note_transfer(d1, d2, 16, 32);
  EXPECT_TRUE(buf.valid_over(d2, 16, 32));

  // A host write invalidates both devices over the range.
  buf.note_compute_write(kHostDomain, 0, 256);
  EXPECT_FALSE(buf.valid_over(d1, 0, 1));
  EXPECT_FALSE(buf.valid_over(d2, 16, 1));
  EXPECT_FALSE(buf.dirty_in(d1));

  // A failed body loses its own validity only.
  buf.note_transfer(kHostDomain, d1, 0, 64);
  buf.note_write_garbage(d1, 0, 16);
  EXPECT_FALSE(buf.valid_over(d1, 0, 16));
  EXPECT_TRUE(buf.valid_over(d1, 16, 48));
  EXPECT_TRUE(buf.valid_over(kHostDomain, 0, 256));
}

TEST_P(FaultRecovery, EvacuateSyncsDirtyRangesBackFromLiveSource) {
  auto rt = make_runtime(GetParam(), 2);
  std::vector<double> x(64, 1.0);
  const BufferId id = rt->buffer_create(x.data(), 64 * sizeof(double));
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const OperandRef ops[] = {{x.data(), 64 * sizeof(double), Access::inout}};

  (void)rt->enqueue_transfer(s, x.data(), 64 * sizeof(double),
                             XferDir::src_to_sink);
  ComputePayload work;
  work.body = [&x](TaskContext& ctx) {
    double* local = ctx.translate(x.data(), 64);
    for (int i = 0; i < 64; ++i) {
      local[i] *= 2.0;
    }
  };
  (void)rt->enqueue_compute(s, std::move(work), ops);
  rt->synchronize();
  // No sink_to_src transfer ran: the device holds the only current copy.
  EXPECT_DOUBLE_EQ(x[7], 1.0);

  // Evacuating the *live* domain syncs the newer device ranges home
  // instead of silently resurrecting the stale host bytes.
  const Status st = rt->evacuate(id, DomainId{1}, kHostDomain);
  ASSERT_TRUE(static_cast<bool>(st)) << st.message();
  EXPECT_DOUBLE_EQ(x[7], 2.0);
}

TEST_P(FaultRecovery, EvacuateFailsLoudlyWhenOnlyCopyDiedWithDomain) {
  auto rt = make_runtime(GetParam(), 2);
  std::vector<double> x(64, 1.0);
  const BufferId id = rt->buffer_create(x.data(), 64 * sizeof(double));
  rt->buffer_instantiate(id, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const OperandRef ops[] = {{x.data(), 64 * sizeof(double), Access::inout}};

  (void)rt->enqueue_transfer(s, x.data(), 64 * sizeof(double),
                             XferDir::src_to_sink);
  ComputePayload work;
  work.body = [&x](TaskContext& ctx) {
    double* local = ctx.translate(x.data(), 64);
    for (int i = 0; i < 64; ++i) {
      local[i] *= 2.0;
    }
  };
  (void)rt->enqueue_compute(s, std::move(work), ops);
  rt->synchronize();

  rt->mark_domain_lost(DomainId{1});
  (void)rt->clear_pending_errors();

  // The doubled values existed only on the dead card: refusing is the
  // only honest answer.
  const Status st = rt->evacuate(id, DomainId{1}, kHostDomain);
  ASSERT_FALSE(static_cast<bool>(st));
  EXPECT_EQ(st.code(), Errc::data_loss);

  // An explicit discard acknowledges the loss and completes, keeping the
  // (stale) host copy as the new truth.
  const Status discarded =
      rt->evacuate(id, DomainId{1}, kHostDomain, /*discard_dirty=*/true);
  ASSERT_TRUE(static_cast<bool>(discarded)) << discarded.message();
  EXPECT_DOUBLE_EQ(x[7], 1.0);
}

// ---- Exactly-once claiming under concurrent domain loss ---------------------

TEST(DomainLossStress, ThreadedConcurrentLossClaimsEachActionOnce) {
  for (int round = 0; round < 6; ++round) {
    auto rt = make_runtime(false, 2);
    std::vector<double> x1(256, 1.0);
    std::vector<double> x2(256, 1.0);
    const BufferId b1 = rt->buffer_create(x1.data(), 256 * sizeof(double));
    const BufferId b2 = rt->buffer_create(x2.data(), 256 * sizeof(double));
    rt->buffer_instantiate(b1, DomainId{1});
    rt->buffer_instantiate(b2, DomainId{2});
    const StreamId s1 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
    const StreamId s2 = rt->stream_create(DomainId{2}, CpuMask::first_n(2));

    // Race the killer thread against a stream of enqueues + completions.
    std::thread killer([&rt, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      rt->mark_domain_lost(DomainId{1});
    });

    std::uint64_t enqueued = 0;
    for (int iter = 0; iter < 32; ++iter) {
      for (const auto& [s, x] : {std::pair{s1, &x1}, std::pair{s2, &x2}}) {
        try {
          (void)rt->enqueue_transfer(s, x->data(), 256 * sizeof(double),
                                     XferDir::src_to_sink);
          ++enqueued;
          ComputePayload work;
          double* base = x->data();
          work.body = [base](TaskContext& ctx) {
            double* local = ctx.translate(base, 256);
            local[0] += 1.0;
          };
          const OperandRef ops[] = {
              {base, 256 * sizeof(double), Access::inout}};
          (void)rt->enqueue_compute(s, std::move(work), ops);
          ++enqueued;
        } catch (const Error&) {
          // Domain died under the enqueue; nothing was admitted.
        }
      }
    }
    killer.join();

    bool drained = false;
    for (int i = 0; i < 64 && !drained; ++i) {
      drained = static_cast<bool>(rt->synchronize(1.0));
    }
    ASSERT_TRUE(drained);
    (void)rt->clear_pending_errors();

    // Every admitted action resolved through exactly one claim:
    // completed, failed (device loss / thrown body), or cancelled.
    const RuntimeStats st = rt->stats();
    EXPECT_EQ(st.actions_completed + st.actions_failed + st.actions_cancelled,
              enqueued)
        << "round " << round;
    EXPECT_EQ(st.domains_lost, 1u);
    EXPECT_FALSE(rt->domain_alive(DomainId{1}));
    EXPECT_TRUE(rt->domain_alive(DomainId{2}));
  }
}

TEST(DomainLossStress, SimulatedChaosClaimsEachActionOnce) {
  FaultPlan plan;
  plan.seed = 31337;
  plan.p_transient = 0.1;
  plan.p_stall = 0.1;
  plan.schedule = {{DomainId{1}, 9, 0, FaultKind::device_loss}};
  auto rt = make_runtime(true, 2, plan, {}, {}, kOnTheWire);

  std::vector<double> x1(256, 1.0);
  std::vector<double> x2(256, 1.0);
  const BufferId b1 = rt->buffer_create(x1.data(), 256 * sizeof(double));
  const BufferId b2 = rt->buffer_create(x2.data(), 256 * sizeof(double));
  rt->buffer_instantiate(b1, DomainId{1});
  rt->buffer_instantiate(b2, DomainId{2});
  const StreamId s1 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(DomainId{2}, CpuMask::first_n(2));

  std::uint64_t enqueued = 0;
  for (int iter = 0; iter < 16; ++iter) {
    for (const auto& [s, x] : {std::pair{s1, &x1}, std::pair{s2, &x2}}) {
      try {
        (void)rt->enqueue_transfer(s, x->data(), 256 * sizeof(double),
                                   XferDir::src_to_sink);
        ++enqueued;
        (void)rt->enqueue_transfer(s, x->data(), 256 * sizeof(double),
                                   XferDir::sink_to_src);
        ++enqueued;
      } catch (const Error&) {
      }
    }
  }
  bool drained = false;
  for (int i = 0; i < 64 && !drained; ++i) {
    drained = static_cast<bool>(rt->synchronize(1.0));
  }
  ASSERT_TRUE(drained);
  (void)rt->clear_pending_errors();

  const RuntimeStats st = rt->stats();
  EXPECT_EQ(st.actions_completed + st.actions_failed + st.actions_cancelled,
            enqueued);
  EXPECT_EQ(st.domains_lost, 1u);
  EXPECT_FALSE(rt->domain_alive(DomainId{1}));
  EXPECT_TRUE(rt->domain_alive(DomainId{2}));
}

TEST_P(FaultRecovery, DeviceToDeviceFromALostPeerFailsWithDeviceLost) {
  auto rt = make_runtime(GetParam(), 2, {}, {}, {}, kOnTheWire);
  std::vector<double> x(256, 1.0);
  const BufferId id = rt->buffer_create(x.data(), x.size() * sizeof(double));
  rt->buffer_instantiate(id, DomainId{1});
  rt->buffer_instantiate(id, DomainId{2});
  const StreamId s2 = rt->stream_create(DomainId{2}, CpuMask::first_n(2));
  rt->mark_domain_lost(DomainId{1});
  (void)rt->clear_pending_errors();  // the loss itself

  // The sink is alive, so the move is admitted; its bytes died with the
  // peer, so the attempt fails the action instead of running.
  (void)rt->enqueue_transfer(s2, x.data(), x.size() * sizeof(double),
                             XferDir::src_to_sink);
  (void)rt->enqueue_transfer_from(s2, x.data(), x.size() * sizeof(double),
                                  DomainId{1});
  const Status st = rt->synchronize(5.0);
  EXPECT_EQ(st.code(), Errc::device_lost);
  EXPECT_NE(st.message().find("source (peer) domain lost"), std::string::npos)
      << st.message();
  EXPECT_FALSE(rt->has_pending_error());

  const RuntimeStats stats = rt->stats();
  EXPECT_EQ(stats.actions_failed, 1u);
  EXPECT_EQ(stats.actions_completed + stats.actions_failed +
                stats.actions_cancelled,
            stats.transfers_enqueued);
  EXPECT_TRUE(rt->domain_alive(DomainId{2}));
}

// ---- plan_recovery closure --------------------------------------------------

TEST_P(FaultRecovery, RecoveryClosureFollowsEdgesAndCoWriters) {
  auto rt = make_runtime(GetParam());
  std::vector<double> x(16, 1.0);
  const BufferId buf = rt->buffer_create(x.data(), 16 * sizeof(double));
  rt->buffer_instantiate(buf, DomainId{1});
  const StreamId s = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId streams[] = {s};

  auto writer = [&x](std::size_t offset, std::size_t len) {
    ComputePayload task;
    task.body = [](TaskContext&) {};
    (void)x;
    (void)offset;
    (void)len;
    return task;
  };
  const OperandRef range_a[] = {{x.data(), 8 * sizeof(double), Access::inout}};
  const OperandRef range_b[] = {
      {x.data() + 8, 8 * sizeof(double), Access::inout}};

  graph::GraphBuilder b(*rt, streams);
  // 0: upload A   1: compute A   2: compute B   3: compute A   4: A home
  (void)b.transfer(s, x.data(), 8 * sizeof(double), XferDir::src_to_sink);
  (void)b.compute(s, writer(0, 8), range_a);
  (void)b.compute(s, writer(8, 8), range_b);
  (void)b.compute(s, writer(0, 8), range_a);
  (void)b.transfer(s, x.data(), 8 * sizeof(double), XferDir::sink_to_src);
  const graph::TaskGraph graph = b.finish();
  ASSERT_EQ(graph.size(), 5u);

  // Losing node 3 pulls: its successor (4), and A's other writers (the
  // upload 0 and compute 1) via the co-writer rule — but never the
  // untouched range-B compute (2).
  const graph::RecoveryPlan plan = graph::plan_recovery(
      graph, [](std::uint32_t node) { return node == 3; });
  EXPECT_EQ(plan.rerun, (std::vector<std::uint32_t>{0, 1, 3, 4}));
  ASSERT_EQ(plan.restore.size(), 1u);
  EXPECT_EQ(plan.restore[0].offset, 0u);
  EXPECT_EQ(plan.restore[0].length, 8 * sizeof(double));

  // Losing the range-B compute touches nothing in A's history.
  const graph::RecoveryPlan plan_b = graph::plan_recovery(
      graph, [](std::uint32_t node) { return node == 2; });
  EXPECT_EQ(plan_b.rerun, (std::vector<std::uint32_t>{2}));

  // Nothing lost, nothing to do.
  const graph::RecoveryPlan none =
      graph::plan_recovery(graph, [](std::uint32_t) { return false; });
  EXPECT_TRUE(none.rerun.empty());
  EXPECT_TRUE(none.restore.empty());
}

// ---- Cholesky tile-granular recovery ----------------------------------------

TEST_P(FaultRecovery, CholeskyPartialRecoveryReExecutesOnlyLostSubgraph) {
  // Card 2 drops off the bus on its 7th transfer — mid-factorization,
  // after step 0's broadcasts landed and step 1 is under way.
  FaultPlan plan;
  plan.schedule = {{DomainId{2}, 6, 0, FaultKind::device_loss}};
  auto rt = make_runtime(GetParam(), 2, plan);

  Rng rng(42);
  blas::Matrix dense(128, 128);
  dense.make_spd(rng);
  const blas::Matrix original = dense;
  apps::TiledMatrix a = apps::TiledMatrix::from_dense(dense, 32);

  apps::CholeskyConfig config;
  config.streams_per_device = 2;
  config.host_streams = 2;
  config.recover_from_device_loss = true;
  config.partial_recovery = true;
  const apps::CholeskyStats stats = apps::run_cholesky(*rt, config, a);

  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_FALSE(rt->domain_alive(DomainId{2}));
  EXPECT_TRUE(rt->domain_alive(DomainId{1}));

  // The headline: only the lost subgraph re-ran, not the whole graph.
  EXPECT_GT(stats.recomputed_actions, 0u);
  EXPECT_LT(stats.recomputed_actions, stats.graph_actions);
  EXPECT_EQ(rt->stats().partial_recoveries, 1u);
  EXPECT_EQ(rt->stats().actions_reexecuted, stats.recomputed_actions);

  // Numerics: identical to a fault-free run of the same driver, and a
  // valid factorization of the original matrix.
  auto clean_rt = make_runtime(GetParam(), 2);
  apps::TiledMatrix b = apps::TiledMatrix::from_dense(original, 32);
  (void)apps::run_cholesky(*clean_rt, config, b);
  EXPECT_EQ(blas::max_abs_diff(a.to_dense().view(), b.to_dense().view()),
            0.0);
  const blas::Matrix recon =
      blas::ref::reconstruct_llt(a.to_dense().view());
  EXPECT_LT(blas::max_abs_diff(recon.view(), original.view()), 1e-8 * 128);
}

TEST_P(FaultRecovery, CholeskyPartialRecoverySurvivesLossDuringUploads) {
  // The very first transfer to card 2 kills it: the lost subgraph is the
  // card's whole share, re-homed onto the survivor.
  FaultPlan plan;
  plan.schedule = {{DomainId{2}, 0, 0, FaultKind::device_loss}};
  auto rt = make_runtime(GetParam(), 2, plan);

  Rng rng(5);
  blas::Matrix dense(128, 128);
  dense.make_spd(rng);
  const blas::Matrix original = dense;
  apps::TiledMatrix a = apps::TiledMatrix::from_dense(dense, 32);

  apps::CholeskyConfig config;
  config.streams_per_device = 2;
  config.host_streams = 2;
  config.recover_from_device_loss = true;
  config.partial_recovery = true;
  const apps::CholeskyStats stats = apps::run_cholesky(*rt, config, a);

  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.recomputed_actions, 0u);
  const blas::Matrix recon =
      blas::ref::reconstruct_llt(a.to_dense().view());
  EXPECT_LT(blas::max_abs_diff(recon.view(), original.view()), 1e-8 * 128);
}

INSTANTIATE_TEST_SUITE_P(Backends, FaultRecovery,
                         ::testing::Values(false, true),
                         [](const auto& param_info) {
                           return param_info.param ? std::string("Simulated")
                                                   : std::string("Threaded");
                         });

}  // namespace
}  // namespace hs
