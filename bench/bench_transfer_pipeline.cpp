// Chunked multi-hop transfer pipeline + online transfer elision.
//
// Two sections (DESIGN.md "Byte-range coherence"):
//
//  1. Pipeline sweep — device->device transfer cost in virtual time as a
//     function of transfer size, chunk size, and hop count. A one-hop
//     host->device move is the lower bound; the unchunked two-hop move
//     (stage fully through the host, then forward) is the baseline the
//     chunked pipeline must beat. Acceptance: >= 1.7x lower virtual time
//     than the unchunked two-hop at >= 64 MiB with the default 2 MiB
//     chunk.
//
//  2. Transfer elision on CG — the iterative-solver pattern re-uploads
//     search-direction blocks every iteration; byte-range validity
//     tracking proves most re-sends redundant. Reported: bytes moved
//     with elision off vs on (acceptance: >= 30% fewer), with
//     bit-identical iterates.
//
// HS_BENCH_QUICK=1 shrinks the sweep for the CI perf-smoke gate, which
// tracks the chunked 64 MiB virtual milliseconds against
// bench/baselines/BENCH_SUMMARY.json (virtual time is deterministic, so
// any regression is a real scheduling/model change, not noise).

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/cg.hpp"
#include "apps/tiled_matrix.hpp"
#include "bench_util.hpp"
#include "common/json_report.hpp"
#include "common/rng.hpp"
#include "hsblas/matrix.hpp"

namespace hs::bench {
namespace {

bool quick_mode() {
  const char* v = std::getenv("HS_BENCH_QUICK");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// Fresh two-card sim runtime with the given pipeline knobs. Routed
/// through SimRuntimePtr so the coherence counters land in the JSON.
SimRuntimePtr pipeline_runtime(const sim::SimPlatform& platform,
                               std::size_t threshold, std::size_t chunk,
                               bool execute_payloads = false) {
  RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  config.domain_links = platform.domain_links;
  config.coherence.pipeline_threshold = threshold;
  config.coherence.pipeline_chunk = chunk;
  return SimRuntimePtr(new Runtime(
      config,
      std::make_unique<sim::SimExecutor>(platform, execute_payloads)));
}

struct Point {
  double seconds = 0.0;
  std::uint64_t chunks = 0;
  std::uint64_t serial_us = 0;  ///< modeled unchunked two-hop micros
  std::uint64_t actual_us = 0;  ///< observed pipelined micros
};

/// Virtual-time cost of one transfer of `bytes`: a plain host->card1
/// upload when `hops` is 1, a card1->card2 move (staged through the
/// host) when `hops` is 2.
Point measure(std::size_t bytes, int hops, std::size_t threshold,
              std::size_t chunk) {
  const sim::SimPlatform platform = sim::hsw_plus_knc(2);
  auto rt = pipeline_runtime(platform, threshold, chunk);
  std::vector<double> x(bytes / sizeof(double));  // payloads off: untouched
  const BufferId buf = rt->buffer_create(x.data(), bytes);
  rt->buffer_instantiate(buf, DomainId{1});
  rt->buffer_instantiate(buf, DomainId{2});
  const StreamId s1 = rt->stream_create(DomainId{1}, CpuMask::first_n(2));
  const StreamId s2 = rt->stream_create(DomainId{2}, CpuMask::first_n(2));

  if (hops == 2) {  // seed card 1 so the d2d has a defined source
    (void)rt->enqueue_transfer(s1, x.data(), bytes, XferDir::src_to_sink);
    rt->synchronize();
  }
  const RuntimeStats before = rt->stats();
  const double t0 = rt->now();
  if (hops == 2) {
    (void)rt->enqueue_transfer_from(s2, x.data(), bytes, DomainId{1});
  } else {
    (void)rt->enqueue_transfer(s2, x.data(), bytes, XferDir::src_to_sink);
  }
  rt->synchronize();
  const RuntimeStats after = rt->stats();

  Point p;
  p.seconds = rt->now() - t0;
  p.chunks = after.transfer_chunks - before.transfer_chunks;
  p.serial_us = after.pipeline_serial_us - before.pipeline_serial_us;
  p.actual_us = after.pipeline_actual_us - before.pipeline_actual_us;
  return p;
}

void pipeline_sweep() {
  const bool quick = quick_mode();
  std::vector<std::size_t> sizes_mib = quick
                                           ? std::vector<std::size_t>{64}
                                           : std::vector<std::size_t>{16, 64,
                                                                      256};
  std::vector<std::size_t> chunks_mib =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 2, 4};
  const std::size_t unchunked = std::numeric_limits<std::size_t>::max();

  Table table("Transfer pipeline: virtual ms by size, chunk, hops (sim, "
              "2 cards; 2-hop = device->device staged through host)");
  table.header({"size MiB", "hops", "chunk MiB", "virtual ms", "vs 2-hop",
                "chunks", "overlap"});
  for (const std::size_t mib : sizes_mib) {
    const std::size_t bytes = mib << 20;
    const Point one_hop = measure(bytes, 1, unchunked, 0);
    const Point serial = measure(bytes, 2, unchunked, 0);
    table.row({std::to_string(mib), "1", "-", fmt(one_hop.seconds * 1e3, 3),
               fmt(serial.seconds / one_hop.seconds, 2) + "x", "0", "-"});
    table.row({std::to_string(mib), "2", "unchunked",
               fmt(serial.seconds * 1e3, 3), "1.00x", "0", "-"});
    for (const std::size_t chunk_mib : chunks_mib) {
      const Point chunked = measure(bytes, 2, 0, chunk_mib << 20);
      const double speedup = serial.seconds / chunked.seconds;
      const double overlap =
          chunked.actual_us > 0
              ? static_cast<double>(chunked.serial_us) /
                    static_cast<double>(chunked.actual_us)
              : 1.0;
      table.row({std::to_string(mib), "2", std::to_string(chunk_mib),
                 fmt(chunked.seconds * 1e3, 3), fmt(speedup, 2) + "x",
                 std::to_string(chunked.chunks), fmt(overlap, 2) + "x"});
      if (mib >= 64 && chunk_mib == 2) {
        report::note_counter("pipeline_64mib_points", 1);
        report::note_counter("pipeline_64mib_points_17x",
                             speedup >= 1.7 ? 1 : 0);
      }
    }
  }
  table.print();
  std::puts("acceptance: chunked 2-hop is >= 1.7x faster than unchunked "
            "at >= 64 MiB with the 2 MiB default chunk.");
}

/// CG with elision off vs on: same seed, same schedule; elision must
/// change bytes moved, not bytes computed. Pure offload on one card is
/// the representative long-run shape: the solver re-broadcasts all of p
/// every iteration, but the card computed every p block itself one phase
/// earlier (and shipped it home), so validity tracking proves the whole
/// broadcast redundant — roughly a third of steady-state traffic. A long
/// iteration count keeps the one-time dense-matrix upload (an artifact
/// of the dense tile demo; production CG matrices are sparse) from
/// drowning the per-iteration pattern.
void cg_elision_table() {
  const bool quick = quick_mode();
  const std::size_t n = 128;
  const std::size_t tile = 32;

  Rng rng(4242);
  blas::Matrix dense(n, n);
  dense.make_spd(rng);
  // make_spd adds n*I, which leaves the system so well conditioned that
  // the residual underflows to exact zero after ~n iterations and the
  // solver stops early. Spread the diagonal over several decades so CG
  // keeps iterating for the full budget; a long run is what makes the
  // one-time matrix upload small next to the per-iteration traffic.
  for (std::size_t i = 0; i < n; ++i) {
    dense(i, i) += std::exp(14.0 * static_cast<double>(i) /
                            static_cast<double>(n - 1));
  }
  std::vector<double> solution(n);
  for (auto& v : solution) {
    v = rng.uniform(-1.0, 1.0);
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      b[i] += dense(i, j) * solution[j];
    }
  }
  const apps::TiledMatrix a = apps::TiledMatrix::from_dense(dense, tile);

  struct Run {
    RuntimeStats stats;
    std::vector<double> x;
    apps::CgStats cg;
  };
  auto run = [&](bool elide) {
    const sim::SimPlatform platform = sim::hsw_plus_knc(1);
    RuntimeConfig config;
    config.platform = platform.desc;
    config.device_link = platform.link;
    config.domain_links = platform.domain_links;
    config.coherence.elide = elide;
    SimRuntimePtr rt(new Runtime(
        config, std::make_unique<sim::SimExecutor>(platform, true)));
    apps::CgConfig cg;
    cg.host_streams = 0;  // pure offload
    cg.max_iterations = quick ? 800 : 1500;
    cg.tolerance = 0.0;  // fixed iteration count: identical schedules
    Run r;
    r.x.assign(n, 0.0);
    r.cg = apps::run_cg(*rt, cg, a, b, r.x);
    r.stats = rt->stats();
    return r;
  };

  const Run off = run(false);
  const Run on = run(true);
  const bool identical =
      off.x.size() == on.x.size() &&
      std::memcmp(off.x.data(), on.x.data(), off.x.size() * sizeof(double)) ==
          0;
  const double reduction =
      off.stats.bytes_transferred > 0
          ? 100.0 * (1.0 - static_cast<double>(on.stats.bytes_transferred) /
                               static_cast<double>(off.stats.bytes_transferred))
          : 0.0;

  Table table("Transfer elision on CG (sim, 1 card, " +
              std::to_string(on.cg.iterations) + " iterations)");
  table.header({"elision", "bytes moved", "bytes elided", "xfers elided",
                "iterates bit-identical"});
  table.row({"off", std::to_string(off.stats.bytes_transferred), "0", "0",
             "-"});
  table.row({"on", std::to_string(on.stats.bytes_transferred),
             std::to_string(on.stats.bytes_elided),
             std::to_string(on.stats.transfers_elided),
             identical ? "yes" : "NO"});
  table.print();
  std::printf("bytes moved reduction: %.1f%% (acceptance: >= 30%%)\n",
              reduction);
  report::note_counter("cg_bytes_reduction_pct",
                       static_cast<std::uint64_t>(reduction));
  report::note_counter("cg_iterates_bit_identical", identical ? 1 : 0);
}

}  // namespace
}  // namespace hs::bench

int main() {
  hs::bench::pipeline_sweep();
  hs::bench::cg_elision_table();
  hs::report::write_json("transfer_pipeline");
  return 0;
}
