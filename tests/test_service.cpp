// Tests for the multi-tenant service layer (service/): the GateCore
// weighted-DRR scheduler, the FairGate blocking wrapper, tenant quotas
// (fail-fast and blocking), session lifecycle and isolation, per-tenant
// stats slices, and session-scoped graph capture/replay.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/matmul.hpp"
#include "core/threaded_executor.hpp"
#include "hsblas/reference.hpp"
#include "core/trace.hpp"
#include "graph/replay.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs::service {
namespace {

std::unique_ptr<Runtime> sim_runtime(std::size_t cards = 1) {
  const sim::SimPlatform platform = sim::hsw_plus_knc(cards);
  RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  return std::make_unique<Runtime>(
      config, std::make_unique<sim::SimExecutor>(platform, true));
}

std::unique_ptr<Runtime> threaded_runtime() {
  RuntimeConfig config;
  config.platform = PlatformDesc::host_plus_cards(4, 1, 8);
  return std::make_unique<Runtime>(config,
                                   std::make_unique<ThreadedExecutor>());
}

ComputePayload nop() {
  ComputePayload payload;
  payload.kernel = "nop";
  payload.body = [](TaskContext&) {};
  return payload;
}

// --- GateCore --------------------------------------------------------------

TEST(GateCore, FifoGrantsInArrivalOrder) {
  GateCore core(FairPolicy::fifo);
  core.add_tenant(1, 1);
  core.add_tenant(2, 1);
  core.push(2, 10, 1);
  core.push(1, 11, 5);
  core.push(2, 12, 1);
  for (const std::uint64_t expect : {10u, 11u, 12u}) {
    const auto g = core.pop();
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->ticket, expect);
  }
  EXPECT_FALSE(core.pop().has_value());
}

TEST(GateCore, WeightedSharesUnderBacklog) {
  GateCore core(FairPolicy::weighted_drr, 2);
  core.add_tenant(1, 2);
  core.add_tenant(2, 1);
  std::uint64_t ticket = 1;
  for (int i = 0; i < 300; ++i) {
    core.push(1, ticket++, 1);
    core.push(2, ticket++, 1);
  }
  std::size_t grants[3] = {0, 0, 0};
  for (int i = 0; i < 300; ++i) {
    const auto g = core.pop();
    ASSERT_TRUE(g.has_value());
    ++grants[g->tenant];
  }
  // Both stay backlogged throughout, so grants split 2:1 by weight.
  EXPECT_EQ(grants[1], 200u);
  EXPECT_EQ(grants[2], 100u);
}

TEST(GateCore, StarvationBoundHoldsForExpensiveTicket) {
  // Victim's head ticket costs 12; quantum*weight = 2 per visit, so it
  // is granted after at most ceil(12/2) = 6 visits. Between visits the
  // aggressor (weight 1) serves at most quantum*1 + 0 = 2 cost units, so
  // the victim's grant arrives within 6 rounds regardless of how deep
  // the aggressor's backlog is.
  GateCore core(FairPolicy::weighted_drr, 2);
  core.add_tenant(1, 1);
  core.add_tenant(2, 1);
  std::uint64_t ticket = 100;
  for (int i = 0; i < 10000; ++i) {
    core.push(2, ticket++, 1);  // effectively unbounded backlog
  }
  core.push(1, 7, 12);
  std::size_t pops_until_victim = 0;
  for (;;) {
    const auto g = core.pop();
    ASSERT_TRUE(g.has_value());
    ++pops_until_victim;
    if (g->tenant == 1) {
      break;
    }
    ASSERT_LE(pops_until_victim, 6u * 2u + 1u)
        << "victim starved past the ceil(c/(q*w)) visit bound";
  }
  EXPECT_LE(pops_until_victim, 13u);
}

TEST(GateCore, IdleTenantEarnsNoCredit) {
  GateCore core(FairPolicy::weighted_drr, 2);
  core.add_tenant(1, 1);
  core.add_tenant(2, 1);
  // Tenant 1 drains fully (leaves the ring), tenant 2 keeps a backlog.
  core.push(1, 1, 1);
  std::uint64_t ticket = 10;
  for (int i = 0; i < 50; ++i) {
    core.push(2, ticket++, 1);
  }
  ASSERT_EQ(core.pop()->ticket, 1u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(core.pop()->tenant, 2u);
  }
  // On return, tenant 1 starts from zero deficit: one visit's quantum
  // covers cost 2, not an accumulated burst of its idle rounds.
  core.push(1, 2, 2);
  std::size_t before_grant = 0;
  for (;;) {
    const auto g = core.pop();
    ASSERT_TRUE(g.has_value());
    if (g->tenant == 1) {
      EXPECT_EQ(g->ticket, 2u);
      break;
    }
    ++before_grant;
    ASSERT_LE(before_grant, 2u);  // at most the aggressor's current visit
  }
}

TEST(GateCore, DeterministicGrantSequence) {
  const auto run = [] {
    GateCore core(FairPolicy::weighted_drr, 3);
    core.add_tenant(1, 2);
    core.add_tenant(2, 1);
    core.add_tenant(3, 1);
    std::uint64_t ticket = 1;
    for (int i = 0; i < 40; ++i) {
      core.push(1 + static_cast<std::uint32_t>(i % 3), ticket++,
                static_cast<std::uint64_t>(1 + i % 5));
    }
    std::vector<std::uint64_t> grants;
    while (const auto g = core.pop()) {
      grants.push_back(g->ticket);
    }
    return grants;
  };
  EXPECT_EQ(run(), run());
}

// --- FairGate (threaded) ---------------------------------------------------

TEST(FairGate, ConcurrentAcquireReleaseDoesNotDeadlockOrLeak) {
  FairGate gate(FairPolicy::weighted_drr, 4, 2);
  gate.add_tenant(1, 2);
  gate.add_tenant(2, 1);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      const std::uint32_t tenant = static_cast<std::uint32_t>(1 + t % 2);
      for (int i = 0; i < 200; ++i) {
        gate.acquire(tenant, static_cast<std::uint64_t>(1 + i % 3));
        const int now = in_flight.fetch_add(1) + 1;
        int prev = max_seen.load();
        while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
        }
        in_flight.fetch_sub(1);
        gate.release();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_LE(max_seen.load(), 2);  // permit bound held under contention
}

// --- Quotas ----------------------------------------------------------------

TEST(ServiceQuota, StreamQuotaIsFailFastAndReleasedOnDestroy) {
  auto rt = sim_runtime();
  Service svc(*rt);
  svc.tenant_create({.name = "t", .max_streams = 2});
  auto session = svc.open_session("t");
  const StreamId a = session->stream_create(DomainId{1}, CpuMask::first_n(2));
  (void)session->stream_create(DomainId{1}, CpuMask::first_n(2));
  try {
    (void)session->stream_create(DomainId{1}, CpuMask::first_n(2));
    FAIL() << "third stream must exceed max_streams=2";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::quota_exceeded);
  }
  EXPECT_EQ(svc.tenant_stats(svc.tenant_id("t")).quota_rejections, 1u);
  session->stream_destroy(a);
  EXPECT_NO_THROW(
      (void)session->stream_create(DomainId{1}, CpuMask::first_n(2)));
  session->close();
  EXPECT_EQ(svc.tenant_stats(svc.tenant_id("t")).streams_in_use, 0u);
}

TEST(ServiceQuota, BytesInFlightFailFastRejectsAndRecovers) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create(
      {.name = "t", .max_bytes_in_flight = 8 * 1024,
       .quota_mode = QuotaMode::fail});
  auto session = svc.open_session(t);
  const StreamId s = session->stream_create(DomainId{1}, CpuMask::first_n(2));
  std::vector<double> data(2048, 1.0);  // 16 KiB
  session->buffer_create("x", data.data(), data.size() * sizeof(double));
  session->buffer_instantiate("x", DomainId{1});
  (void)session->enqueue_transfer(s, data.data(), 8 * 1024,
                                  XferDir::src_to_sink);
  try {
    (void)session->enqueue_transfer(s, &data[1024], 8 * 1024,
                                    XferDir::src_to_sink);
    FAIL() << "second in-flight transfer must breach the 8 KiB quota";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::quota_exceeded);
  }
  session->synchronize();  // first transfer drains, budget returns
  EXPECT_NO_THROW((void)session->enqueue_transfer(s, &data[1024], 8 * 1024,
                                                  XferDir::src_to_sink));
  session->close();
  const TenantStats stats = svc.tenant_stats(t);
  EXPECT_EQ(stats.quota_rejections, 1u);
  EXPECT_EQ(stats.bytes_in_flight, 0u);
}

class ServiceQuotaBlocking : public ::testing::TestWithParam<bool> {};

TEST_P(ServiceQuotaBlocking, BlockingModeStallsUntilDrain) {
  // Parametrized over executors: the sim backend proves the blocking
  // wait is safe on a single-threaded executor (Executor::wait pumps
  // virtual time on the calling thread), the threaded backend proves it
  // under real concurrency.
  auto rt = GetParam() ? sim_runtime() : threaded_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create(
      {.name = "t", .max_bytes_in_flight = 8 * 1024,
       .quota_mode = QuotaMode::block});
  auto session = svc.open_session(t);
  const StreamId s = session->stream_create(DomainId{1}, CpuMask::first_n(2));
  std::vector<double> data(4096, 1.0);
  session->buffer_create("x", data.data(), data.size() * sizeof(double));
  session->buffer_instantiate("x", DomainId{1});
  for (std::size_t i = 0; i < 4; ++i) {
    (void)session->enqueue_transfer(s, &data[1024 * i], 8 * 1024,
                                    XferDir::src_to_sink);
  }
  session->synchronize();
  const TenantStats stats = svc.tenant_stats(t);
  if (GetParam()) {
    // Sim's virtual clock only advances inside the blocking wait, so the
    // second enqueue is guaranteed to stall. On the threaded backend a
    // small transfer can complete before the next enqueue arrives, making
    // the stall count timing-dependent — there we only assert that
    // blocking mode never rejects and the budget drains.
    EXPECT_GE(stats.quota_stalls, 1u);
  }
  EXPECT_EQ(stats.quota_rejections, 0u);
  EXPECT_EQ(stats.bytes_in_flight, 0u);
  session->close();
}

INSTANTIATE_TEST_SUITE_P(Executors, ServiceQuotaBlocking,
                         ::testing::Values(true, false));

TEST(ServiceQuota, OversizedTransferFailsEvenInBlockingMode) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create(
      {.name = "t", .max_bytes_in_flight = 4 * 1024,
       .quota_mode = QuotaMode::block});
  auto session = svc.open_session(t);
  const StreamId s = session->stream_create(DomainId{1}, CpuMask::first_n(2));
  std::vector<double> data(1024, 1.0);
  session->buffer_create("x", data.data(), data.size() * sizeof(double));
  session->buffer_instantiate("x", DomainId{1});
  // 8 KiB can never fit a 4 KiB budget: blocking would wait forever.
  try {
    (void)session->enqueue_transfer(s, data.data(), 8 * 1024,
                                    XferDir::src_to_sink);
    FAIL() << "transfer larger than the whole quota must fail";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::quota_exceeded);
  }
  session->close();
}

TEST(ServiceQuota, DeviceResidencyQuotaGatesInstantiation) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create(
      {.name = "t", .max_device_resident_bytes = 8 * 1024});
  auto session = svc.open_session(t);
  std::vector<double> a(1024), b(1024);
  session->buffer_create("a", a.data(), 8 * 1024);
  session->buffer_create("b", b.data(), 8 * 1024);
  session->buffer_instantiate("a", DomainId{1});
  try {
    session->buffer_instantiate("b", DomainId{1});
    FAIL() << "second 8 KiB incarnation must exceed the 8 KiB quota";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::quota_exceeded);
  }
  session->buffer_deinstantiate("a", DomainId{1});
  EXPECT_NO_THROW(session->buffer_instantiate("b", DomainId{1}));
  EXPECT_EQ(svc.tenant_stats(t).device_resident_bytes, 8u * 1024u);
  session->close();
  EXPECT_EQ(svc.tenant_stats(t).device_resident_bytes, 0u);
}

// --- Sessions --------------------------------------------------------------

TEST(Session, CrossTenantNamespaceAndStreamIsolation) {
  auto rt = sim_runtime();
  Service svc(*rt);
  svc.tenant_create({.name = "alice"});
  svc.tenant_create({.name = "bob"});
  auto alice = svc.open_session("alice");
  auto bob = svc.open_session("bob");

  std::vector<double> av(512), bv(512);
  // The same name in two sessions maps to two distinct buffers.
  const BufferId ab = alice->buffer_create("x", av.data(), 4096);
  const BufferId bb = bob->buffer_create("x", bv.data(), 4096);
  EXPECT_NE(ab, bb);
  EXPECT_FALSE(alice->has_buffer("y"));

  const StreamId as = alice->stream_create(DomainId{1}, CpuMask::first_n(2));
  // Bob cannot enqueue into (or destroy) Alice's stream.
  try {
    (void)bob->enqueue_compute(as, nop(), {});
    FAIL() << "cross-session enqueue must be rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::not_found);
  }
  EXPECT_THROW(bob->stream_destroy(as), Error);
  EXPECT_THROW((void)bob->buffer(std::string_view("y")), Error);
  alice->close();
  bob->close();
}

TEST(Session, TeardownDrainsInFlightWork) {
  auto rt = threaded_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create({.name = "t"});
  auto session = svc.open_session(t);
  const StreamId s = session->stream_create(DomainId{1}, CpuMask::first_n(2));
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    ComputePayload payload;
    payload.kernel = "sleepy";
    payload.body = [&ran](TaskContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      ran.fetch_add(1);
    };
    (void)session->enqueue_compute(s, std::move(payload), {});
  }
  session->close();  // must drain all eight, then destroy the stream
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(svc.tenant_stats(t).streams_in_use, 0u);
  EXPECT_EQ(svc.tenant_stats(t).sessions_closed, 1u);
  EXPECT_EQ(rt->stream_count(), 0u);
}

TEST(Session, AbortCancelsParkedWork) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create({.name = "t"});
  auto session = svc.open_session(t);
  const StreamId s = session->stream_create(DomainId{1}, CpuMask::first_n(2));
  auto never = std::make_shared<EventState>();
  (void)session->enqueue_event_wait(s, never);
  (void)session->enqueue_compute(s, nop(), {});
  (void)session->enqueue_compute(s, nop(), {});
  EXPECT_EQ(session->abort(), 3u);  // parked wait + the two behind it
  EXPECT_EQ(rt->stream_count(), 0u);
  EXPECT_EQ(rt->stats().actions_cancelled, 3u);
}

TEST(Session, CloseIsIdempotentAndDestructorCloses) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create({.name = "t"});
  {
    auto session = svc.open_session(t);
    (void)session->stream_create(DomainId{1}, CpuMask::first_n(2));
    session->close();
    session->close();  // no-op
    EXPECT_EQ(svc.tenant_stats(t).sessions_closed, 1u);
  }
  {
    auto session = svc.open_session(t);
    (void)session->stream_create(DomainId{1}, CpuMask::first_n(2));
    // Destructor alone must drain and release.
  }
  EXPECT_EQ(svc.tenant_stats(t).sessions_closed, 2u);
  EXPECT_EQ(svc.tenant_stats(t).streams_in_use, 0u);
}

// --- Stats slices ----------------------------------------------------------

TEST(TenantStats, SlicesSumToGlobalTotals) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t1 = svc.tenant_create({.name = "one"});
  const std::uint32_t t2 = svc.tenant_create({.name = "two"});
  auto s1 = svc.open_session(t1);
  auto s2 = svc.open_session(t2);
  std::vector<double> d1(2048), d2(2048);
  for (auto* pair : {&s1, &s2}) {
    auto& session = *pair;
    auto& data = session == s1 ? d1 : d2;
    const StreamId s =
        session->stream_create(DomainId{1}, CpuMask::first_n(2));
    session->buffer_create("x", data.data(), data.size() * sizeof(double));
    session->buffer_instantiate("x", DomainId{1});
    const OperandRef op{data.data(), 4096, Access::inout};
    for (int i = 0; i < 3; ++i) {
      (void)session->enqueue_transfer(s, data.data(), 4096,
                                      XferDir::src_to_sink);
      (void)session->enqueue_compute(s, nop(),
                                     std::span<const OperandRef>(&op, 1));
      (void)session->enqueue_signal(s);
    }
    session->synchronize();
  }
  // Every per-tenant row of the counter table, summed over the slices,
  // equals its global total.
  std::map<std::string, std::uint64_t> sum;
  for (const std::uint32_t t : {t1, t2}) {
    for_each_counter(rt->tenant_slice(t),
                     [&sum](const char* name, std::uint64_t value) {
                       sum[name] += value;
                     });
  }
  for_each_counter(rt->stats(), [&sum](const char* name, std::uint64_t value) {
    if (const auto it = sum.find(name); it != sum.end()) {
      EXPECT_EQ(it->second, value) << name;
    }
  });
  EXPECT_EQ(sum["computes_enqueued"], 6u);
  s1->close();
  s2->close();
}

TEST(TenantStats, TraceRecordsCarryTenantAndSession) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create({.name = "traced"});
  auto session = svc.open_session(t);
  TraceRecorder trace;
  rt->set_trace(&trace);
  const StreamId s = session->stream_create(DomainId{1}, CpuMask::first_n(2));
  (void)session->enqueue_compute(s, nop(), {});
  session->synchronize();
  rt->set_trace(nullptr);
  std::ostringstream os;
  trace.write_chrome_trace(os);
  EXPECT_NE(os.str().find("\"tenant\":1"), std::string::npos);
  EXPECT_NE(os.str().find("\"session\":" + std::to_string(session->id())),
            std::string::npos);
  session->close();
}

// --- Capture / replay ------------------------------------------------------

TEST(SessionCapture, ReplayedActionsAreTaggedAndCounted) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create({.name = "t"});
  auto session = svc.open_session(t);
  const StreamId s = session->stream_create(DomainId{1}, CpuMask::first_n(2));
  std::vector<double> data(1024, 1.0);
  session->buffer_create("x", data.data(), data.size() * sizeof(double));
  session->buffer_instantiate("x", DomainId{1});
  const OperandRef op{data.data(), 4096, Access::inout};

  auto capture = session->begin_capture();
  (void)session->enqueue_transfer(s, data.data(), 4096, XferDir::src_to_sink);
  (void)session->enqueue_compute(s, nop(), std::span<const OperandRef>(&op, 1));
  graph::TaskGraph graph = capture->finish();

  const TenantStatsSlice before = rt->tenant_slice(t);
  graph::GraphExec exec(*rt, std::move(graph));
  (void)exec.launch();
  rt->synchronize();
  const TenantStatsSlice after = rt->tenant_slice(t);
  EXPECT_EQ(after.computes_enqueued - before.computes_enqueued, 1u);
  EXPECT_EQ(after.transfers_enqueued - before.transfers_enqueued, 1u);
  session->close();
}

TEST(SessionCapture, LaunchOnLostDomainChargesNoBytesInFlight) {
  // A launch refused for a lost domain must gate none of its transfers:
  // a gated transfer that is never admitted never completes, so nothing
  // would refund its bytes-in-flight charge. The card node comes first,
  // so every host node behind it is one the refusal strands.
  for (const bool simulated : {true, false}) {
    auto rt = simulated ? sim_runtime() : threaded_runtime();
    Service svc(*rt);
    const std::uint32_t t = svc.tenant_create({.name = "t"});
    auto session = svc.open_session(t);
    const StreamId host =
        session->stream_create(kHostDomain, CpuMask::first_n(1));
    const StreamId card =
        session->stream_create(DomainId{1}, CpuMask::first_n(2));
    std::vector<double> data(1024, 1.0);
    session->buffer_create("x", data.data(), data.size() * sizeof(double));
    session->buffer_instantiate("x", DomainId{1});

    auto capture = session->begin_capture();
    (void)session->enqueue_transfer(card, data.data(), 4096,
                                    XferDir::src_to_sink);
    (void)session->enqueue_transfer(host, data.data(), 4096,
                                    XferDir::src_to_sink);
    (void)session->enqueue_transfer(host, data.data() + 512, 4096,
                                    XferDir::src_to_sink);
    graph::GraphExec exec(*rt, capture->finish());

    rt->mark_domain_lost(DomainId{1});
    try {
      (void)exec.launch();
      ADD_FAILURE() << "expected device_lost";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::device_lost);
    }
    EXPECT_EQ(svc.tenant_stats(t).bytes_in_flight, 0u);
    EXPECT_EQ(rt->synchronize(5.0).code(), Errc::device_lost);
    session->close();
  }
}

TEST(SessionCapture, LaunchRefusedByQuotaRefundsEarlierRecords) {
  // The third transfer of the launch breaks the byte quota: the launch is
  // refused whole, and the two transfers gated before the refusal get
  // their charges back. A blocking quota refuses too: the bytes in the
  // way are the launch's own, which cannot drain before it admits.
  for (const QuotaMode mode : {QuotaMode::fail, QuotaMode::block}) {
    SCOPED_TRACE(mode == QuotaMode::fail ? "fail" : "block");
    auto rt = sim_runtime();
    Service svc(*rt);
    const std::uint32_t t = svc.tenant_create(
        {.name = "t", .max_bytes_in_flight = 8192, .quota_mode = mode});
    auto session = svc.open_session(t);
    const StreamId s =
        session->stream_create(DomainId{1}, CpuMask::first_n(2));
    std::vector<double> data(4096, 1.0);
    session->buffer_create("x", data.data(), data.size() * sizeof(double));
    session->buffer_instantiate("x", DomainId{1});
    auto capture = session->begin_capture();
    for (std::size_t i = 0; i < 3; ++i) {
      (void)session->enqueue_transfer(s, data.data() + 512 * i, 4096,
                                      XferDir::src_to_sink);
    }
    graph::GraphExec exec(*rt, capture->finish());
    try {
      (void)exec.launch();
      ADD_FAILURE() << "expected quota_exceeded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), Errc::quota_exceeded);
    }
    EXPECT_EQ(svc.tenant_stats(t).bytes_in_flight, 0u);
    EXPECT_EQ(rt->stats().transfers_enqueued, 0u);
    session->close();
  }
}

TEST(SessionCapture, CannotCaptureAnotherSessionsStreams) {
  auto rt = sim_runtime();
  Service svc(*rt);
  svc.tenant_create({.name = "a"});
  svc.tenant_create({.name = "b"});
  auto sa = svc.open_session("a");
  auto sb = svc.open_session("b");
  const StreamId bs = sb->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId streams[] = {bs};
  EXPECT_THROW((void)sa->begin_capture(streams), Error);
  sa->close();
  sb->close();
}

// --- Weighted-fair admission through a real runtime ------------------------

TEST(FairAdmission, GatedEnqueuesRunAndReleasePermits) {
  // End-to-end smoke on the threaded executor: two tenants flood the
  // gate concurrently; everything admits, completes, and reconciles —
  // i.e. no permit leaks (a leak would wedge the final enqueues).
  auto rt = threaded_runtime();
  Service svc(*rt, ServiceConfig{.quantum = 2, .permits = 1});
  const std::uint32_t heavy = svc.tenant_create({.name = "heavy", .weight = 2});
  const std::uint32_t light = svc.tenant_create({.name = "light", .weight = 1});
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> enqueued{0};
  for (const std::uint32_t tenant : {heavy, light}) {
    threads.emplace_back([&svc, &enqueued, tenant] {
      auto session = svc.open_session(tenant);
      const StreamId s =
          session->stream_create(DomainId{1}, CpuMask::first_n(2));
      for (int i = 0; i < 100; ++i) {
        (void)session->enqueue_compute(s, nop(), {});
        enqueued.fetch_add(1);
      }
      session->synchronize();
      session->close();
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(enqueued.load(), 200u);
  EXPECT_EQ(rt->stats().actions_completed, rt->stats().computes_enqueued);
  EXPECT_GE(svc.tenant_stats(heavy).gate_passes, 100u);
  EXPECT_GE(svc.tenant_stats(light).gate_passes, 100u);
}

// --- Apps as session clients ------------------------------------------------

TEST(AppsAsClients, MatmulRunsUnderATenantAndIsAttributed) {
  auto rt = sim_runtime();
  Service svc(*rt);
  const std::uint32_t t = svc.tenant_create({.name = "hpc"});
  auto session = svc.open_session(t);
  Rng rng(77);
  blas::Matrix da(128, 128), db(128, 128);
  da.randomize(rng);
  db.randomize(rng);
  apps::TiledMatrix a = apps::TiledMatrix::from_dense(da, 64);
  apps::TiledMatrix b = apps::TiledMatrix::from_dense(db, 64);
  apps::TiledMatrix c = apps::TiledMatrix::square(128, 64);
  const apps::MatmulConfig config = session->bound(
      apps::MatmulConfig{.streams_per_device = 2, .host_streams = 0});
  EXPECT_EQ(config.tenant, t);
  EXPECT_EQ(config.session, session->id());
  (void)apps::run_matmul(*rt, config, a, b, c);
  const TenantStatsSlice slice = rt->tenant_slice(t);
  EXPECT_GT(slice.computes_enqueued, 0u);
  EXPECT_EQ(slice.computes_enqueued, rt->stats().computes_enqueued);
  EXPECT_EQ(slice.actions_completed, rt->stats().actions_completed);
  session->close();
}

}  // namespace
}  // namespace hs::service
