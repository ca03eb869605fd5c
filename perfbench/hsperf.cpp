// hsperf: the repository benchmark program.
//
// Runs one named workload through public entry points only
// (apps::run_cholesky, apps::run_cg_graph, service::Service and Session,
// Runtime::stats / set_trace / tenant_slice), times those calls from
// here, checks the outputs, and prints one JSON object as the last line
// of standard output:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 prints the per-layer split from a separate traced run, plus
// the untraced twins it needs (trace overhead, ample-budget residency
// cost). Workload parameters live in this file, not in options or
// environment variables. README.md next to this file defines every
// metric.
//
// Usage: hsperf --workload chol_hetero|chol_ooc|cg_service --seed N
//               --seconds S --trace 0|1 [--size full|tiny]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cg.hpp"
#include "apps/cholesky.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/runtime.hpp"
#include "core/threaded_executor.hpp"
#include "hsblas/reference.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs::perf {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups timed per batch; setup_s is the median sample. The Cholesky
/// workloads take a batch before every repetition, so one slow moment of
/// the machine cannot set setup_s.
constexpr std::size_t kSetupBatch = 8;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile: with n samples, q = 0.9 leaves n/10 above it.
double quantile(std::vector<double> values, double q) {
  require(!values.empty(), "quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Times `kSetupBatch` set-ups by `make` (the result is destroyed
/// untimed) and appends them to `samples`.
template <class Make>
void sample_setup(std::vector<double>& samples, Make make) {
  for (std::size_t i = 0; i < kSetupBatch; ++i) {
    const double t0 = wall_now();
    const auto built = make();
    samples.push_back(wall_now() - t0);
  }
}

double median_of(const std::vector<double>& values) {
  return median(std::span<const double>(values));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t enqueued(const RuntimeStats& s) {
  return s.computes_enqueued + s.transfers_enqueued + s.syncs_enqueued;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Run-wide tally behind "attempted", "failed" and "correct". Failed
/// actions, cancelled actions, quota rejections and failed output checks
/// all count as failures.
class Ledger {
 public:
  void check(bool ok, const std::string& what) {
    if (ok) {
      return;
    }
    const std::scoped_lock lock(mu_);
    ++failed_;
    checks_failed_.push_back(what);
  }
  /// Counts one runtime's actions, after it drained: every enqueued
  /// action must have completed (failed and cancelled ones included).
  void account(const RuntimeStats& s, const std::string& who) {
    check(s.actions_completed + s.actions_failed + s.actions_cancelled ==
              enqueued(s),
          who + ": completed + failed + cancelled == enqueued");
    const std::scoped_lock lock(mu_);
    attempted_ += enqueued(s);
    failed_ += s.actions_failed + s.actions_cancelled;
  }
  void add_failed(std::uint64_t n) {
    const std::scoped_lock lock(mu_);
    failed_ += n;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return checks_failed_.empty(); }
  [[nodiscard]] const std::vector<std::string>& checks_failed() const {
    return checks_failed_;
  }

 private:
  std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> checks_failed_;
};

// --- Per-layer inputs ---------------------------------------------------

/// What the trace of one run says about where time went, on the
/// executor's clock (virtual in simulation, wall on the threaded backend).
struct TraceSplit {
  std::vector<double> wait_us;  ///< dispatch - enqueue, every action
  /// Per stream, the union of its compute dispatch -> complete spans,
  /// summed over streams. A stream runs one task at a time and starts
  /// the next as soon as one ends, so this is its busy time.
  double compute_s = 0.0;
  /// Per domain, the union of its transfer spans (link time with a
  /// transfer in flight), summed over domains.
  double transfer_s = 0.0;
  std::map<std::uint32_t, double> compute_by_domain;
  double flops = 0.0;
  double refetch_bytes = 0.0;
};

using Spans = std::vector<std::pair<double, double>>;

/// Length of the union of [begin, end) intervals.
double union_length(Spans spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  double reach = -1e300;
  for (const auto& [begin, end] : spans) {
    const double from = std::max(begin, reach);
    if (end > from) {
      total += end - from;
    }
    reach = std::max(reach, end);
  }
  return total;
}

TraceSplit split_trace(const TraceRecorder& trace) {
  TraceSplit out;
  std::map<std::uint32_t, Spans> compute_by_stream;
  std::map<std::uint32_t, std::uint32_t> stream_domain;
  std::map<std::uint32_t, Spans> transfer_by_domain;
  for (const TraceRecorder::Record& r : trace.records()) {
    out.wait_us.push_back((r.dispatch_s - r.enqueue_s) * 1e6);
    if (r.type == ActionType::compute) {
      compute_by_stream[r.stream.value].emplace_back(r.dispatch_s,
                                                     r.complete_s);
      stream_domain[r.stream.value] = r.domain.value;
      out.flops += r.flops;
    } else if (r.type == ActionType::transfer) {
      transfer_by_domain[r.domain.value].emplace_back(r.dispatch_s,
                                                      r.complete_s);
    }
  }
  for (const auto& [stream, spans] : compute_by_stream) {
    const double busy = union_length(spans);
    out.compute_s += busy;
    out.compute_by_domain[stream_domain[stream]] += busy;
  }
  for (const auto& [domain, spans] : transfer_by_domain) {
    out.transfer_s += union_length(spans);
  }
  for (const TraceRecorder::OocEvent& e : trace.ooc_events()) {
    if (e.kind == "refetch") {
      out.refetch_bytes += static_cast<double>(e.bytes);
    }
  }
  return out;
}

/// Everything the per-layer report reads. Fields a workload does not
/// exercise stay zero.
struct LayerInputs {
  RuntimeStats stats;
  std::size_t pool_misses = 0;
  TraceSplit trace;
  bool threaded = false;
  service::TenantStats tenants;  ///< summed over the workload's tenants
  std::vector<double> enqueue_us;
  double trace_overhead_s = 0.0;
  double residency_host_s = 0.0;
  double residency_stall_virtual_ms = 0.0;
  double sim_host_us_per_action = 0.0;
  double sim_virtual_ms = 0.0;
  double solve_p90_ms = 0.0;
  double bulk_ops_per_s = 0.0;
  double op_fail_ratio = 0.0;
};

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const RuntimeStats& s = in.stats;
  const TraceSplit& t = in.trace;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto pct = [](const std::vector<double>& v, double q) {
    return v.empty() ? 0.0 : quantile(v, q);
  };
  const auto share = [&t](std::uint32_t domain) {
    const auto it = t.compute_by_domain.find(domain);
    return it == t.compute_by_domain.end() ? 0.0
                                           : ratio(it->second, t.compute_s);
  };
  const double actions = d(enqueued(s));
  const double moved =
      d(s.transfers_enqueued - s.transfers_elided - s.transfers_aliased_away);
  return {
      {"service.gate_passes", d(in.tenants.gate_passes), "count"},
      {"service.gate_waits", d(in.tenants.gate_waits), "count"},
      {"service.quota_stalls", d(in.tenants.quota_stalls), "count"},
      {"service.enqueue_us_p50", pct(in.enqueue_us, 0.50), "us"},
      {"service.enqueue_us_p99", pct(in.enqueue_us, 0.99), "us"},
      {"admission.dep_scan_steps_per_action",
       ratio(d(s.dep_scan_steps), actions), "steps/action"},
      {"admission.dep_index_hits_per_action",
       ratio(d(s.dep_index_hits), actions), "hits/action"},
      {"admission.lock_contention", d(s.lock_shard_contention), "count"},
      {"core.ooo_dispatch_ratio",
       ratio(d(s.ooo_dispatches), d(s.actions_completed)), "ratio"},
      {"deps.wait_p50", pct(t.wait_us, 0.50), "exec_us"},
      {"deps.wait_p99", pct(t.wait_us, 0.99), "exec_us"},
      {"residency.evictions", d(s.evictions), "count"},
      {"residency.refetches", d(s.refetches), "count"},
      {"residency.refetch_per_eviction",
       ratio(d(s.refetches), d(s.evictions)), "ratio"},
      {"residency.spill_mib_written", d(s.spill_bytes_written) / kMiB, "MiB"},
      {"residency.clean_mib_dropped", d(s.spill_bytes_dropped_clean) / kMiB,
       "MiB"},
      {"residency.refetch_mib", t.refetch_bytes / kMiB, "MiB"},
      {"residency.host_s", in.residency_host_s, "s"},
      {"residency.stall_virtual_ms", in.residency_stall_virtual_ms,
       "virtual_ms"},
      {"coherence.transfers_elided", d(s.transfers_elided), "count"},
      {"coherence.mib_elided", d(s.bytes_elided) / kMiB, "MiB"},
      {"coherence.elided_ratio",
       ratio(d(s.transfers_elided), d(s.transfers_enqueued)), "ratio"},
      {"graph.replays", d(s.graph_replays), "count"},
      {"graph.deps_reused_per_replay",
       ratio(d(s.deps_reused), d(s.graph_replays)), "edges/replay"},
      {"exec.compute_ms", t.compute_s * 1e3, "exec_ms"},
      {"exec.transfer_ms", t.transfer_s * 1e3, "exec_ms"},
      {"exec.busy_share.host", share(0), "share"},
      {"exec.busy_share.card1", share(1), "share"},
      {"exec.busy_share.card2", share(2), "share"},
      {"kernel.gflops", in.threaded ? ratio(t.flops, t.compute_s) / 1e9 : 0.0,
       "GF/s"},
      {"sim.host_us_per_action", in.sim_host_us_per_action, "us"},
      {"sim.virtual_ms", in.sim_virtual_ms, "virtual_ms"},
      {"link.transfers", moved, "count"},
      {"link.mib_moved", d(s.bytes_transferred) / kMiB, "MiB"},
      {"link.pool_misses", d(in.pool_misses), "count"},
      {"link.retries", d(s.transfers_retried), "count"},
      {"core.actions_failed", d(s.actions_failed), "count"},
      {"core.actions_cancelled", d(s.actions_cancelled), "count"},
      {"service.quota_rejections", d(in.tenants.quota_rejections), "count"},
      {"cg.solve_p90_ms", in.solve_p90_ms, "ms"},
      {"cg.bulk_ops_per_s", in.bulk_ops_per_s, "1/s"},
      {"op_fail_ratio", in.op_fail_ratio, "ratio"},
      {"trace_overhead_s", in.trace_overhead_s, "s"},
  };
}

std::vector<Metric> end_to_end_metrics(double setup_s, double request_p50_s) {
  return {{"setup_s", setup_s, "s"},
          {"request_p50_ms", request_p50_s * 1e3, "ms"},
          {"peak_rss_mib", peak_rss_mib(), "MiB"}};
}

/// The exact quantities two runs of one seed must repeat bit for bit.
struct Fingerprint {
  double virtual_s = 0.0;
  std::uint64_t dep_scan_steps = 0;
  std::uint64_t evictions = 0;
  std::uint64_t refetches = 0;
  std::uint64_t spill_bytes_written = 0;
  std::uint64_t bytes_elided = 0;
  bool operator==(const Fingerprint&) const = default;
};

struct Report {
  std::vector<Metric> metrics;
  std::string info;  ///< one line of context printed before the JSON
};

// --- Cholesky workloads (simulation, payloads off) ------------------------

struct CholWorkload {
  std::size_t n;
  std::size_t tile;
  std::size_t cards;
  std::size_t host_streams;
  bool tile_buffers;
  /// Card DDR budget as a share of the lower-triangle working set; 0
  /// keeps the cards' full memory (in-core).
  double budget_fraction;
};

/// Fig 7 shape: HSW + 2 KNC, 2 host streams + 4 per card, one buffer.
/// Tile 512 (13,066 actions), not 256 (76,358): the larger DAG holds
/// about 190 MB of runtime metadata and its host time followed the
/// memory traffic of other tenants of a shared machine too closely to
/// repeat within its bound.
constexpr CholWorkload kCholHetero{16384, 512, 2, 2, false, 0.0};
constexpr CholWorkload kCholHeteroTiny{2048, 256, 2, 2, false, 0.0};
/// bench_oom shape at scale: 1 KNC, pure offload, one buffer per tile.
constexpr CholWorkload kCholOoc{8192, 256, 1, 0, true, 0.33};
constexpr CholWorkload kCholOocTiny{2048, 256, 1, 0, true, 0.33};

std::size_t triangle_bytes(const CholWorkload& w) {
  const std::size_t nt = (w.n + w.tile - 1) / w.tile;
  const auto edge = [&w](std::size_t i) {
    return std::min(w.tile, w.n - i * w.tile);
  };
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      bytes += edge(i) * edge(j) * sizeof(double);
    }
  }
  return bytes;
}

/// `ample` drops the budget: the in-core twin of an out-of-core run.
std::unique_ptr<Runtime> chol_runtime(const CholWorkload& w, bool ample) {
  sim::SimPlatform platform = sim::hsw_plus_knc(w.cards);
  if (w.budget_fraction > 0.0 && !ample) {
    // Floor of four tiles, as in bench_oom: one task's operands fit.
    const std::size_t budget = std::max(
        static_cast<std::size_t>(w.budget_fraction *
                                 static_cast<double>(triangle_bytes(w))),
        4 * w.tile * w.tile * sizeof(double));
    for (std::size_t d = 1; d < platform.desc.domains.size(); ++d) {
      platform.desc.domains[d].memory_bytes = {{MemKind::ddr, budget}};
    }
  }
  RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  config.domain_links = platform.domain_links;
  return std::make_unique<Runtime>(
      std::move(config),
      std::make_unique<sim::SimExecutor>(platform,
                                         /*execute_payloads=*/false));
}

struct CholRep {
  double wall_s = 0.0;
  double virtual_s = 0.0;
  RuntimeStats stats;
  std::size_t pool_misses = 0;

  [[nodiscard]] Fingerprint fingerprint() const {
    return {virtual_s,      stats.dep_scan_steps,      stats.evictions,
            stats.refetches, stats.spill_bytes_written, stats.bytes_elided};
  }
};

/// One factorization on a fresh runtime; only run_cholesky is timed.
CholRep chol_rep(const CholWorkload& w, bool ample, TraceRecorder* trace,
                 Ledger& ledger) {
  apps::TiledMatrix a = apps::TiledMatrix::phantom(w.n, w.tile);
  const std::unique_ptr<Runtime> rt = chol_runtime(w, ample);
  rt->set_trace(trace);
  apps::CholeskyConfig config;
  config.streams_per_device = 4;
  config.host_streams = w.host_streams;
  config.tile_buffers = w.tile_buffers;

  CholRep rep;
  const double t0 = wall_now();
  const apps::CholeskyStats run = apps::run_cholesky(*rt, config, a);
  rep.wall_s = wall_now() - t0;
  rep.virtual_s = run.seconds;
  rep.stats = rt->stats();
  rep.pool_misses = rt->transfer_pool().stats().misses;
  rt->set_trace(nullptr);

  ledger.account(rep.stats, "cholesky");
  ledger.check(run.gflops > 0.0, "cholesky: factorization finished");
  const bool out_of_core = w.budget_fraction > 0.0 && !ample;
  ledger.check(out_of_core == (rep.stats.evictions > 0),
               out_of_core ? "cholesky: budget forces evictions"
                           : "cholesky: in-core run evicts nothing");
  return rep;
}

/// Same seed, same configuration: virtual time and the exact counters
/// must repeat bit for bit across every repetition of the run.
void check_deterministic(const std::vector<CholRep>& reps, Ledger& ledger,
                         const std::string& what) {
  for (const CholRep& rep : reps) {
    ledger.check(rep.fingerprint() == reps.front().fingerprint(),
                 what + ": virtual time and exact counters repeat");
  }
}

double median_wall(const std::vector<CholRep>& reps) {
  std::vector<double> walls;
  for (const CholRep& rep : reps) {
    walls.push_back(rep.wall_s);
  }
  return median_of(walls);
}

Report run_chol(const CholWorkload& w, double seconds, bool traced,
                Ledger& ledger) {
  constexpr std::size_t kMinReps = 3;
  const bool ooc = w.budget_fraction > 0.0;
  const double deadline = wall_now() + seconds;
  Report report;

  if (!traced) {
    std::vector<double> setups;
    std::vector<CholRep> reps;
    while (reps.size() < kMinReps || wall_now() < deadline) {
      sample_setup(setups, [&w] { return chol_runtime(w, false); });
      reps.push_back(chol_rep(w, false, nullptr, ledger));
    }
    check_deterministic(reps, ledger, "cholesky");
    report.metrics = end_to_end_metrics(median_of(setups), median_wall(reps));
    report.info = "reps=" + std::to_string(reps.size()) +
                  " actions_per_rep=" +
                  std::to_string(enqueued(reps.front().stats));
    return report;
  }

  // Traced run: untraced, traced and (out-of-core only) ample-budget
  // repetitions in turn; the trace of the last traced one is analysed.
  std::vector<CholRep> plain;
  std::vector<CholRep> traced_reps;
  std::vector<CholRep> ample;
  std::unique_ptr<TraceRecorder> trace;
  while (plain.empty() || wall_now() < deadline) {
    plain.push_back(chol_rep(w, false, nullptr, ledger));
    trace = std::make_unique<TraceRecorder>();
    traced_reps.push_back(chol_rep(w, false, trace.get(), ledger));
    if (ooc) {
      ample.push_back(chol_rep(w, true, nullptr, ledger));
    }
  }
  std::vector<CholRep> same_config = plain;
  same_config.insert(same_config.end(), traced_reps.begin(),
                     traced_reps.end());
  check_deterministic(same_config, ledger, "cholesky (traced and untraced)");
  if (ooc) {
    check_deterministic(ample, ledger, "cholesky ample twin");
  }

  const CholRep& last = traced_reps.back();
  LayerInputs in;
  in.stats = last.stats;
  in.pool_misses = last.pool_misses;
  in.trace = split_trace(*trace);
  in.trace_overhead_s = median_wall(traced_reps) - median_wall(plain);
  if (ooc) {
    in.residency_host_s = median_wall(plain) - median_wall(ample);
    in.residency_stall_virtual_ms =
        (plain.front().virtual_s - ample.front().virtual_s) * 1e3;
  }
  in.sim_host_us_per_action =
      median_wall(plain) * 1e6 / static_cast<double>(enqueued(last.stats));
  in.sim_virtual_ms = last.virtual_s * 1e3;
  in.op_fail_ratio = ratio(static_cast<double>(ledger.failed()),
                           static_cast<double>(ledger.attempted()));
  report.metrics = layer_metrics(in);
  report.info = "pairs=" + std::to_string(plain.size());
  return report;
}

// --- cg_service: two tenants on the threaded backend ----------------------

struct CgWorkload {
  std::size_t n;
  std::size_t tile;
  std::size_t iterations;  ///< fixed CG iterations per solve
  std::size_t min_solves;  ///< p90 needs at least 10 solves beyond it
  std::size_t bulk_bytes;  ///< one h2d -> compute -> d2h chain
  std::size_t bulk_chains;  ///< chains the bulk client keeps in flight
  std::size_t bulk_quota;  ///< bulk tenant's blocking bytes-in-flight quota
};

constexpr CgWorkload kCg{1024, 256, 50, 100, 256 << 10, 2, 512 << 10};
constexpr CgWorkload kCgTiny{256, 64, 50, 10, 64 << 10, 2, 128 << 10};
/// Relative residual every solve must reach within its fixed iterations.
constexpr double kResidualBound = 1e-10;
/// host_plus_cards(4, 2, 8) capped to one worker per domain plus one
/// copier: the runtime's thread count.
constexpr std::size_t kRuntimeThreads = 4;
constexpr std::size_t kClientThreads = 2;
constexpr DomainId kBulkCard{2};

struct CgProblem {
  blas::Matrix dense;
  apps::TiledMatrix a;
  std::vector<double> b;
};

/// Symmetric with off-diagonal entries of order 1/sqrt(n) and a diagonal
/// of 2: its spectrum sits well inside (0, 4), so it is SPD and CG
/// converges in a few dozen iterations.
CgProblem cg_problem(const CgWorkload& w, std::uint64_t seed) {
  Rng rng(seed);
  blas::Matrix dense(w.n, w.n);
  const double scale = 1.0 / std::sqrt(static_cast<double>(w.n));
  for (std::size_t j = 0; j < w.n; ++j) {
    dense(j, j) = 2.0;
    for (std::size_t i = j + 1; i < w.n; ++i) {
      const double v = rng.uniform(-1.0, 1.0) * scale;
      dense(i, j) = v;
      dense(j, i) = v;
    }
  }
  std::vector<double> b(w.n);
  for (double& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  apps::TiledMatrix a = apps::TiledMatrix::from_dense(dense, w.tile);
  return {std::move(dense), std::move(a), std::move(b)};
}

/// ||b - A x|| / ||b|| with the hsblas reference kernels.
double relative_residual(const CgProblem& p, const std::vector<double>& x) {
  const std::size_t n = p.b.size();
  blas::Matrix xm(n, 1);
  blas::Matrix r(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    xm(i, 0) = x[i];
    r(i, 0) = p.b[i];
  }
  blas::ref::gemm(blas::Op::none, blas::Op::none, -1.0, p.dense.view(),
                  std::as_const(xm).view(), 1.0, r.view());
  double rr = 0.0;
  double bb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    rr += r(i, 0) * r(i, 0);
    bb += p.b[i] * p.b[i];
  }
  return std::sqrt(rr / bb);
}

/// The runtime, service, tenants, sessions and the bulk client's own
/// buffers. Members are destroyed in reverse order: sessions close
/// before the service, the service detaches before the runtime dies, and
/// the bulk host memory outlives every registration of it.
struct ServiceRig {
  std::vector<std::vector<double>> bulk_data;
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<service::Service> service;
  std::uint32_t solver = 0;
  std::uint32_t bulk = 0;
  std::unique_ptr<service::Session> solver_session;
  std::unique_ptr<service::Session> bulk_session;
  StreamId bulk_stream{};
};

std::unique_ptr<ServiceRig> service_rig(const CgWorkload& w) {
  auto rig = std::make_unique<ServiceRig>();
  RuntimeConfig config;
  config.platform = PlatformDesc::host_plus_cards(4, 2, 8);
  ThreadedExecutorConfig exec;
  exec.max_workers_per_domain = 1;
  exec.transfer_workers = 1;
  rig->runtime = std::make_unique<Runtime>(
      std::move(config), std::make_unique<ThreadedExecutor>(exec));
  rig->service = std::make_unique<service::Service>(*rig->runtime);
  rig->solver = rig->service->tenant_create({.name = "solver", .weight = 4});
  rig->bulk = rig->service->tenant_create(
      {.name = "bulk",
       .weight = 1,
       .max_bytes_in_flight = w.bulk_quota,
       .quota_mode = service::QuotaMode::block});
  rig->solver_session = rig->service->open_session(rig->solver);
  rig->bulk_session = rig->service->open_session(rig->bulk);
  rig->bulk_stream =
      rig->bulk_session->stream_create(kBulkCard, CpuMask::first_n(8));
  rig->bulk_data.assign(w.bulk_chains,
                        std::vector<double>(w.bulk_bytes / sizeof(double)));
  for (std::size_t k = 0; k < w.bulk_chains; ++k) {
    const std::string name = "bulk" + std::to_string(k);
    rig->bulk_session->buffer_create(name, rig->bulk_data[k].data(),
                                     w.bulk_bytes);
    rig->bulk_session->buffer_instantiate(name, kBulkCard);
  }
  return rig;
}

/// Bulk element i of round `round`: an integer below 2^40, so 2v + 1 is
/// exact in double.
double bulk_value(std::uint64_t salt, std::uint64_t round, std::size_t i) {
  constexpr std::uint64_t kMask = (1ull << 40) - 1;
  return static_cast<double>((salt + round * 1000003u + i) & kMask);
}

struct CgPhase {
  std::vector<double> solve_s;
  std::vector<double> enqueue_us;
  double window_s = 0.0;
  std::uint64_t bulk_done = 0;     ///< bulk tenant, inside the window
  RuntimeStats stats;
  service::TenantStats tenants;  ///< both tenants summed
  std::size_t pool_misses = 0;
};

/// Runs the solver and bulk clients concurrently for `seconds` (and at
/// least `min_solves` solves). Every solve's x must equal
/// `reference_x` bit for bit; the first solve of the run sets it after
/// passing the residual check.
CgPhase run_cg_phase(ServiceRig& rig, const CgWorkload& w, const CgProblem& p,
                     std::uint64_t seed, double seconds,
                     std::size_t min_solves, std::vector<double>& reference_x,
                     Ledger& ledger) {
  // A run that cannot reach min_solves in this long fails instead of
  // overrunning its time limit.
  constexpr double kHardLimitS = 75.0;
  Runtime& rt = *rig.runtime;
  CgPhase phase;
  std::atomic<bool> stop_bulk{false};
  const auto bulk_slice = [&rig] {
    return rig.runtime->tenant_slice(rig.bulk).actions_completed;
  };
  const std::uint64_t bulk0 = bulk_slice();
  const double start = wall_now();
  const double deadline = start + seconds;

  std::jthread solver([&] {
    try {
      const apps::CgConfig config = rig.solver_session->bound(apps::CgConfig{
          .streams_per_device = 2,
          .host_streams = 1,
          .max_iterations = w.iterations,
          .tolerance = 0.0});
      std::vector<double> x(w.n);
      while (phase.solve_s.size() < min_solves || wall_now() < deadline) {
        if (wall_now() > start + kHardLimitS) {
          ledger.check(false, "cg: minimum solve count reached in time");
          break;
        }
        std::fill(x.begin(), x.end(), 0.0);
        const double t0 = wall_now();
        const apps::CgStats run = apps::run_cg_graph(rt, config, p.a, p.b, x);
        phase.solve_s.push_back(wall_now() - t0);
        ledger.check(run.iterations == w.iterations,
                     "cg: solve runs its fixed iterations");
        if (reference_x.empty()) {
          reference_x = x;
          ledger.check(relative_residual(p, x) < kResidualBound,
                       "cg: relative residual under bound");
        } else {
          ledger.check(std::memcmp(x.data(), reference_x.data(),
                                   w.n * sizeof(double)) == 0,
                       "cg: x bit-identical to the first solve");
        }
      }
    } catch (const std::exception& e) {
      ledger.check(false, std::string("cg solver: ") + e.what());
    }
    phase.window_s = wall_now() - start;
    phase.bulk_done = bulk_slice() - bulk0;
    stop_bulk = true;
  });

  std::jthread bulk([&] {
    service::Session& session = *rig.bulk_session;
    const std::size_t elems = w.bulk_bytes / sizeof(double);
    const std::uint64_t salt = seed * 7919u;
    std::vector<std::shared_ptr<EventState>> done(w.bulk_chains);
    std::vector<std::uint64_t> round_of(w.bulk_chains, 0);
    const auto finish = [&](std::size_t k) {
      if (!done[k]) {
        return;
      }
      rt.event_wait_host(std::span(&done[k], 1));
      done[k].reset();
      const std::vector<double>& data = rig.bulk_data[k];
      bool ok = true;
      for (std::size_t i = 0; i < elems && ok; ++i) {
        ok = data[i] == 2.0 * bulk_value(salt, round_of[k], i) + 1.0;
      }
      ledger.check(ok, "bulk: read-back equals the computed result");
    };
    const auto timed = [&phase](auto&& enqueue) {
      const double t0 = wall_now();
      auto event = enqueue();
      phase.enqueue_us.push_back((wall_now() - t0) * 1e6);
      return event;
    };
    try {
      for (std::uint64_t round = 0; !stop_bulk; ++round) {
        const std::size_t k = round % w.bulk_chains;
        finish(k);
        std::vector<double>& data = rig.bulk_data[k];
        for (std::size_t i = 0; i < elems; ++i) {
          data[i] = bulk_value(salt, round, i);
        }
        rt.note_host_write(data.data(), w.bulk_bytes);
        round_of[k] = round;
        double* base = data.data();
        const OperandRef op{base, w.bulk_bytes, Access::inout};
        timed([&] {
          return session.enqueue_transfer(rig.bulk_stream, base, w.bulk_bytes,
                                          XferDir::src_to_sink);
        });
        timed([&] {
          ComputePayload payload;
          payload.kernel = "axpy";
          payload.flops = 2.0 * static_cast<double>(elems);
          payload.body = [base, elems](TaskContext& ctx) {
            double* v = ctx.translate(base, elems);
            for (std::size_t i = 0; i < elems; ++i) {
              v[i] = 2.0 * v[i] + 1.0;
            }
          };
          return session.enqueue_compute(rig.bulk_stream, std::move(payload),
                                         std::span(&op, 1));
        });
        done[k] = timed([&] {
          return session.enqueue_transfer(rig.bulk_stream, base, w.bulk_bytes,
                                          XferDir::sink_to_src);
        });
      }
      for (std::size_t k = 0; k < w.bulk_chains; ++k) {
        finish(k);
      }
    } catch (const std::exception& e) {
      ledger.check(false, std::string("cg bulk: ") + e.what());
    }
  });

  solver.join();
  bulk.join();
  rt.synchronize();
  phase.stats = rt.stats();
  phase.pool_misses = rt.transfer_pool().stats().misses;
  for (const std::uint32_t t : {rig.solver, rig.bulk}) {
    const service::TenantStats ts = rig.service->tenant_stats(t);
    phase.tenants.gate_passes += ts.gate_passes;
    phase.tenants.gate_waits += ts.gate_waits;
    phase.tenants.quota_stalls += ts.quota_stalls;
    phase.tenants.quota_rejections += ts.quota_rejections;
    phase.tenants.runtime.actions_completed += ts.runtime.actions_completed;
  }
  ledger.account(phase.stats, "cg_service");
  ledger.add_failed(phase.tenants.quota_rejections);
  ledger.check(phase.tenants.runtime.actions_completed ==
                   phase.stats.actions_completed,
               "cg_service: tenant slices sum to the runtime totals");
  return phase;
}

Report run_cg(const CgWorkload& w, std::uint64_t seed, double seconds,
              bool traced, Ledger& ledger) {
  const CgProblem problem = cg_problem(w, seed);
  std::vector<double> reference_x;
  Report report;
  report.info = "runtime_threads=" + std::to_string(kRuntimeThreads) +
                " client_threads=" + std::to_string(kClientThreads);

  if (!traced) {
    // In trials, set-ups timed after a measured phase were an order of
    // magnitude slower than those before it, which made the median
    // bimodal; all are taken before it.
    std::vector<double> setups;
    const auto make_rig = [&w] { return service_rig(w); };
    sample_setup(setups, make_rig);
    sample_setup(setups, make_rig);
    const std::unique_ptr<ServiceRig> rig = service_rig(w);
    const CgPhase phase = run_cg_phase(*rig, w, problem, seed, seconds,
                                       w.min_solves, reference_x, ledger);
    report.metrics =
        end_to_end_metrics(median_of(setups), median_of(phase.solve_s));
    report.info += " solves=" + std::to_string(phase.solve_s.size()) +
                   " bulk_chains_per_s=" +
                   std::to_string(static_cast<double>(phase.bulk_done) / 3.0 /
                                  phase.window_s);
    return report;
  }

  // Untraced half first (end-to-end twins), then a fresh traced rig.
  const std::unique_ptr<ServiceRig> plain_rig = service_rig(w);
  const CgPhase plain_phase =
      run_cg_phase(*plain_rig, w, problem, seed, seconds / 2, w.min_solves,
                   reference_x, ledger);
  TraceRecorder trace;  // declared first: it outlives the rig it traces
  const std::unique_ptr<ServiceRig> traced_rig = service_rig(w);
  traced_rig->runtime->set_trace(&trace);
  const CgPhase traced_phase = run_cg_phase(
      *traced_rig, w, problem, seed, seconds / 2, 1, reference_x, ledger);

  LayerInputs in;
  in.stats = traced_phase.stats;
  in.pool_misses = traced_phase.pool_misses;
  in.trace = split_trace(trace);
  in.threaded = true;
  in.tenants = traced_phase.tenants;
  in.enqueue_us = traced_phase.enqueue_us;
  in.trace_overhead_s =
      median_of(traced_phase.solve_s) - median_of(plain_phase.solve_s);
  in.solve_p90_ms = quantile(plain_phase.solve_s, 0.90) * 1e3;
  in.bulk_ops_per_s =
      static_cast<double>(plain_phase.bulk_done) / plain_phase.window_s;
  in.op_fail_ratio = ratio(static_cast<double>(ledger.failed()),
                           static_cast<double>(ledger.attempted()));
  report.metrics = layer_metrics(in);
  report.info += " solves=" + std::to_string(plain_phase.solve_s.size()) +
                 "+" + std::to_string(traced_phase.solve_s.size());
  // The recorder must outlive runtime activity: detach before it dies.
  traced_rig->runtime->set_trace(nullptr);
  return report;
}

// --- Command line and result ---------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    require(i + 1 < argc, "missing value for " + flag,
            Errc::invalid_argument);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have[1] = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have[2] = true;
    } else if (flag == "--trace") {
      require(value == "0" || value == "1", "--trace takes 0 or 1",
              Errc::invalid_argument);
      args.trace = value == "1";
      have[3] = true;
    } else if (flag == "--size") {
      require(value == "full" || value == "tiny", "--size takes full or tiny",
              Errc::invalid_argument);
      args.tiny = value == "tiny";
    } else {
      require(false, "unknown option " + flag, Errc::invalid_argument);
    }
  }
  require(have[0] && have[1] && have[2] && have[3],
          "usage: hsperf --workload W --seed N --seconds S --trace 0|1 "
          "[--size full|tiny]",
          Errc::invalid_argument);
  require(args.seconds > 0.0, "--seconds must be positive",
          Errc::invalid_argument);
  return args;
}

/// Pins the process (and every thread it starts later) to the highest
/// CPU it may run on: one CPU keeps the threaded workload's wall clock
/// repeatable. Returns "cpu=<n> of <allowed> allowed".
std::string pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  require(sched_getaffinity(0, sizeof allowed, &allowed) == 0,
          "sched_getaffinity failed", Errc::internal);
  constexpr std::size_t kCpus = CPU_SETSIZE;
  std::size_t cpu = kCpus;
  for (std::size_t c = 0; c < kCpus; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpu = c;
    }
  }
  require(cpu < kCpus, "no CPU allowed", Errc::internal);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  require(sched_setaffinity(0, sizeof one, &one) == 0,
          "sched_setaffinity failed", Errc::internal);
  return "cpu=" + std::to_string(cpu) + " of " +
         std::to_string(CPU_COUNT(&allowed)) + " allowed";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string affinity = pin_to_one_cpu();
  Ledger ledger;
  Report report;
  if (args.workload == "chol_hetero") {
    report = run_chol(args.tiny ? kCholHeteroTiny : kCholHetero, args.seconds,
                      args.trace, ledger);
    report.info += " runtime_threads=0 client_threads=1";
  } else if (args.workload == "chol_ooc") {
    report = run_chol(args.tiny ? kCholOocTiny : kCholOoc, args.seconds,
                      args.trace, ledger);
    report.info += " runtime_threads=0 client_threads=1";
  } else if (args.workload == "cg_service") {
    report = run_cg(args.tiny ? kCgTiny : kCg, args.seed, args.seconds,
                    args.trace, ledger);
  } else {
    require(false, "unknown workload " + args.workload,
            Errc::invalid_argument);
  }

  bool finite = true;
  for (const Metric& m : report.metrics) {
    finite = finite && std::isfinite(m.value);
  }
  ledger.check(finite, "every metric is a finite number");
  for (const std::string& what : ledger.checks_failed()) {
    std::fprintf(stderr, "hsperf: check failed: %s\n", what.c_str());
  }
  std::printf("# hsperf workload=%s seed=%llu size=%s trace=%d %s %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.tiny ? "tiny" : "full", args.trace ? 1 : 0,
              affinity.c_str(), report.info.c_str());
  std::string json = "{\"correct\": ";
  json += ledger.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            json_number(finite ? m.value : 0.0) + ", \"unit\": \"" + m.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return ledger.correct() ? 0 : 1;
}

}  // namespace
}  // namespace hs::perf

int main(int argc, char** argv) {
  try {
    return hs::perf::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsperf: %s\n", e.what());
    return 2;
  }
}
