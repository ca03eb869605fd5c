// Multi-tenant service mode: isolation under flood, and a session soak.
//
// Experiment A (deterministic, the CI acceptance gate): drives the
// GateCore scheduler directly in logical service slots — one slot serves
// one cost unit — so the isolation numbers are exact and reproducible,
// not a wall-clock race. A victim tenant (weight 3, the latency-
// sensitive principal) submits a small burst of admissions every few
// slots; an aggressor tenant (weight 1) floods 10x the victim's total
// up front. Victim latency = grant slot - submit slot + 1. The
// acceptance target: under weighted-DRR the victim's p99 latency shifts
// < 2x versus running alone, while under the FIFO baseline (the gate-off
// arrival order) the same flood shifts it by orders of magnitude.
//
// Experiment B (wall clock, informational + reconciliation gate): a
// threaded-executor soak running many concurrent mixed-workload sessions
// across three tenants through a real Service — per-enqueue wall
// latencies (p50/p99 per tenant), fail-fast quota rejections on the
// background tenant, and the sum-of-slices == global-totals
// reconciliation check that gates in CI.
//
// HS_BENCH_QUICK=1 shrinks both experiments for CI smoke runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/json_report.hpp"
#include "core/threaded_executor.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace hs::bench {
namespace {

bool quick_mode() {
  const char* v = std::getenv("HS_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::uint64_t percentile(std::vector<std::uint64_t> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t idx = std::min(
      values.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(values.size())));
  return values[idx];
}

// --- Experiment A: deterministic gate-slot isolation ------------------------

struct SlotResult {
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t victim_tickets = 0;
};

/// Serves the gate one cost unit per slot. The victim (tenant 1) submits
/// `burst` unit-cost tickets every `period` slots, `bursts` times; when
/// `flood` is true the aggressor (tenant 2) pre-loads 10x the victim's
/// total at slot 0 — the worst case for FIFO, where every victim ticket
/// queues behind the whole remaining flood.
SlotResult run_slots(service::FairPolicy policy, bool flood,
                     std::size_t bursts) {
  constexpr std::size_t kBurst = 4;
  constexpr std::size_t kPeriod = 8;
  service::GateCore core(policy, /*quantum=*/2);
  core.add_tenant(1, /*weight=*/3);  // victim: latency-sensitive QoS class
  core.add_tenant(2, /*weight=*/1);  // aggressor: bulk class

  std::uint64_t next_ticket = 1;
  std::map<std::uint64_t, std::uint64_t> victim_submit_slot;
  std::vector<std::uint64_t> latencies;

  const std::uint64_t victim_total = bursts * kBurst;
  if (flood) {
    for (std::uint64_t i = 0; i < 10 * victim_total; ++i) {
      core.push(2, next_ticket++, 1);
    }
  }
  std::uint64_t slot = 0;
  std::size_t submitted_bursts = 0;
  while (latencies.size() < victim_total) {
    if (slot % kPeriod == 0 && submitted_bursts < bursts) {
      ++submitted_bursts;
      for (std::size_t i = 0; i < kBurst; ++i) {
        victim_submit_slot[next_ticket] = slot;
        core.push(1, next_ticket++, 1);
      }
    }
    if (const auto grant = core.pop(); grant && grant->tenant == 1) {
      latencies.push_back(slot - victim_submit_slot[grant->ticket] + 1);
    }
    ++slot;
  }
  SlotResult r;
  r.p50 = percentile(latencies, 0.50);
  r.p99 = percentile(latencies, 0.99);
  r.victim_tickets = latencies.size();
  return r;
}

void isolation_table(bool quick) {
  const std::size_t bursts = quick ? 250 : 2500;
  const SlotResult alone =
      run_slots(service::FairPolicy::weighted_drr, false, bursts);
  const SlotResult wdrr =
      run_slots(service::FairPolicy::weighted_drr, true, bursts);
  const SlotResult fifo =
      run_slots(service::FairPolicy::fifo, true, bursts);

  const auto shift_x100 = [&](std::uint64_t p99) {
    return alone.p99 == 0 ? 0 : (100 * p99) / alone.p99;
  };

  Table table("Multi-tenant isolation: victim enqueue latency under a 10x "
              "aggressor flood (deterministic gate slots)");
  table.header({"policy", "aggressor", "victim p50", "victim p99",
                "p99 shift"});
  table.row({"weighted_drr", "none", std::to_string(alone.p50),
             std::to_string(alone.p99), "1.0x"});
  table.row({"weighted_drr", "10x flood", std::to_string(wdrr.p50),
             std::to_string(wdrr.p99),
             fmt(static_cast<double>(shift_x100(wdrr.p99)) / 100.0, 2) + "x"});
  table.row({"fifo (unfair)", "10x flood", std::to_string(fifo.p50),
             std::to_string(fifo.p99),
             fmt(static_cast<double>(shift_x100(fifo.p99)) / 100.0, 2) + "x"});
  table.print();

  report::note_counter("isolation_victim_tickets", alone.victim_tickets);
  report::note_counter("isolation_p99_alone_slots", alone.p99);
  report::note_counter("isolation_p99_wdrr_slots", wdrr.p99);
  report::note_counter("isolation_p99_fifo_slots", fifo.p99);
  report::note_counter("isolation_wdrr_shift_x100", shift_x100(wdrr.p99));
  report::note_counter("isolation_fifo_shift_x100", shift_x100(fifo.p99));
  report::note_counter("isolation_wdrr_under_2x",
                       shift_x100(wdrr.p99) < 200 ? 1 : 0);
  report::note_counter("isolation_fifo_exceeds_2x",
                       shift_x100(fifo.p99) >= 200 ? 1 : 0);
  std::puts("acceptance: weighted-DRR holds the victim's p99 shift under "
            "2x; the FIFO baseline does not.");
}

// --- Experiment B: threaded session soak ------------------------------------

struct TenantLat {
  std::mutex mu;
  std::vector<std::uint64_t> ns;
};

void soak(bool quick) {
  using clock = std::chrono::steady_clock;
  const std::size_t sessions = quick ? 96 : 2048;
  const std::size_t workers =
      std::min<std::size_t>(16, std::max(4u, std::thread::hardware_concurrency()));

  RuntimeConfig config;
  config.platform = PlatformDesc::host_plus_cards(4, 2, 8);
  Runtime runtime(config, std::make_unique<ThreadedExecutor>());
  service::Service svc(runtime, service::ServiceConfig{});

  const std::uint32_t interactive = svc.tenant_create(
      {.name = "interactive", .weight = 4});
  const std::uint32_t batch = svc.tenant_create({.name = "batch", .weight = 2});
  // Background gets a deliberately tight in-flight byte quota in
  // fail-fast mode so the soak exercises the rejection path under load.
  const std::uint32_t background = svc.tenant_create(
      {.name = "background",
       .weight = 1,
       .max_bytes_in_flight = 64 * 1024,
       .quota_mode = service::QuotaMode::fail});
  const std::uint32_t tenants[] = {interactive, batch, background};

  TenantLat lat[3];
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> enqueues{0};

  const auto worker = [&] {
    std::vector<std::vector<std::uint64_t>> local(3);
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= sessions) {
        break;
      }
      const std::size_t klass = i % 3;
      auto session = svc.open_session(tenants[klass]);
      const StreamId stream =
          session->stream_create(DomainId{1}, CpuMask::first_n(4));
      // Mixed workloads: interactive = small and chatty, batch = fewer
      // but larger transfers, background = bulk pushes against its quota.
      const std::size_t bytes =
          klass == 0 ? 4 * 1024 : (klass == 1 ? 64 * 1024 : 32 * 1024);
      const std::size_t rounds = klass == 0 ? 4 : (klass == 1 ? 2 : 6);
      std::vector<double> data(bytes / sizeof(double), 1.0);
      session->buffer_create("x", data.data(), bytes);
      session->buffer_instantiate("x", DomainId{1});
      const OperandRef op{data.data(), bytes, Access::inout};
      for (std::size_t r = 0; r < rounds; ++r) {
        const auto timed = [&](auto&& enqueue) {
          const auto t0 = clock::now();
          try {
            enqueue();
            enqueues.fetch_add(1, std::memory_order_relaxed);
          } catch (const Error& e) {
            if (e.code() != Errc::quota_exceeded) {
              throw;
            }
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
          local[klass].push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  clock::now() - t0)
                  .count()));
        };
        timed([&] {
          (void)session->enqueue_transfer(stream, data.data(), bytes,
                                          XferDir::src_to_sink);
        });
        timed([&] {
          ComputePayload payload;
          payload.kernel = "nop";
          payload.body = [](TaskContext&) {};
          (void)session->enqueue_compute(stream, std::move(payload),
                                         std::span<const OperandRef>(&op, 1));
        });
        timed([&] {
          (void)session->enqueue_transfer(stream, data.data(), bytes,
                                          XferDir::sink_to_src);
        });
      }
      session->synchronize();
      session->close();
    }
    for (std::size_t k = 0; k < 3; ++k) {
      const std::scoped_lock lock(lat[k].mu);
      lat[k].ns.insert(lat[k].ns.end(), local[k].begin(), local[k].end());
    }
  };

  const auto t0 = clock::now();
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) {
    t.join();
  }
  runtime.synchronize();
  const double wall_s = std::chrono::duration<double>(clock::now() - t0).count();

  Table table("Multi-tenant soak: per-enqueue wall latency by tenant (" +
              std::to_string(sessions) + " sessions, " +
              std::to_string(workers) + " workers, threaded executor)");
  table.header({"tenant", "enqueues", "p50 us", "p99 us"});
  const char* names[] = {"interactive", "batch", "background"};
  for (std::size_t k = 0; k < 3; ++k) {
    table.row({names[k], std::to_string(lat[k].ns.size()),
               fmt(static_cast<double>(percentile(lat[k].ns, 0.50)) / 1e3, 1),
               fmt(static_cast<double>(percentile(lat[k].ns, 0.99)) / 1e3, 1)});
    report::note_counter(std::string("soak_") + names[k] + "_p99_ns",
                         percentile(lat[k].ns, 0.99));
  }
  table.print();

  // Reconciliation: every stream in this runtime is session-bound, so
  // each per-tenant row summed over the slices must equal its total.
  std::map<std::string, std::uint64_t> sum;
  for (std::uint32_t t = 1; t <= runtime.tenant_count(); ++t) {
    for_each_counter(runtime.tenant_slice(t),
                     [&sum](const char* name, std::uint64_t value) {
                       sum[name] += value;
                     });
  }
  bool reconciled = !sum.empty();
  for_each_counter(runtime.stats(),
                   [&](const char* name, std::uint64_t value) {
                     const auto it = sum.find(name);
                     if (it != sum.end() && it->second != value) {
                       reconciled = false;
                     }
                   });

  std::uint64_t gate_waits = 0;
  for (const std::uint32_t t : tenants) {
    gate_waits += svc.tenant_stats(t).gate_waits;
  }
  report::note_counter("soak_sessions", sessions);
  report::note_counter("soak_enqueues", enqueues.load());
  report::note_counter("soak_quota_rejections", rejected.load());
  report::note_counter("soak_gate_waits", gate_waits);
  report::note_counter("soak_reconcile_ok", reconciled ? 1 : 0);
  report::note_counter("soak_wall_ms",
                       static_cast<std::uint64_t>(wall_s * 1e3));
  std::printf("soak: %zu sessions in %.2fs; %llu enqueues, %llu quota "
              "rejections; slices %s totals\n",
              sessions, wall_s,
              static_cast<unsigned long long>(enqueues.load()),
              static_cast<unsigned long long>(rejected.load()),
              reconciled ? "reconcile with" : "DO NOT reconcile with");
  require(reconciled, "per-tenant slices must sum to the global counters",
          Errc::internal);
}

}  // namespace
}  // namespace hs::bench

int main() {
  const bool quick = hs::bench::quick_mode();
  hs::bench::isolation_table(quick);
  hs::bench::soak(quick);
  hs::report::write_json("multitenant");
  return 0;
}
