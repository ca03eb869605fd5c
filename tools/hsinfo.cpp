// hsinfo: platform discovery inspector (the "domains are discoverable
// and enumerable" surface, §II).
//
// Prints the domains, their kinds, thread counts, memory budgets and
// links for a chosen emulated platform.
//
// Usage: hsinfo [hsw|ivb] [cards] [remote_nodes] [--key=value ...]
//        hsinfo --inspect-checkpoint=<dir>
//
// --inspect-checkpoint prints every committed epoch of a checkpoint
// directory (manifest header, per-buffer sizes, per-chunk ranges and
// checksums) and verifies chunk integrity on disk without restoring
// anything; exit status 1 if any epoch is unreadable or fails
// verification.
//
// Fault/retry knobs (RuntimeConfig::faults / ::retry) can be set with
// trailing --key=value flags and are echoed back in the report:
//   --fault-seed=N --p-loss=X --p-transient=X --p-stall=X --stall-us=X
//   --retry-max=N --backoff-us=X --backoff-mult=X
//
// Each probe prints the runtime counters it moved; the report then lists
// every counter of core/counters.hpp with its value and what it counts.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.hpp"
#include "checkpoint/manifest.hpp"
#include "core/runtime.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace {

/// Value of a `--name=value` flag, or nullptr if absent.
const char* flag_value(int argc, char** argv, const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

double flag_double(int argc, char** argv, const char* name, double fallback) {
  const char* v = flag_value(argc, argv, name);
  return v != nullptr ? std::atof(v) : fallback;
}

/// Prints " name=value" for every counter of `stats` that differs from
/// `base` (the value printed is the difference; a default `base` prints
/// every non-zero counter), wrapped to lines of at most 80 columns.
template <typename Stats>
void print_counters(const Stats& stats, const Stats& base = {},
                    const std::string& indent = " ") {
  std::vector<std::uint64_t> from;
  hs::for_each_counter(base, [&from](const char*, std::uint64_t value) {
    from.push_back(value);
  });
  std::string line = indent;
  std::size_t i = 0;
  hs::for_each_counter(stats, [&](const char* name, std::uint64_t value) {
    const std::uint64_t delta = value - from[i++];
    if (delta == 0) {
      return;
    }
    char item[128];
    const auto len = static_cast<std::size_t>(
        std::snprintf(item, sizeof item, " %s=%llu", name,
                      static_cast<unsigned long long>(delta)));
    if (line.size() > indent.size() && line.size() + len > 80) {
      std::printf("%s\n", line.c_str());
      line = indent;
    }
    line += item;
  });
  if (line.size() > indent.size()) {
    std::printf("%s\n", line.c_str());
  }
}

/// --inspect-checkpoint=<dir>: dump and verify every committed epoch.
int inspect_checkpoint(const std::string& dir) {
  using namespace hs;
  const std::vector<std::uint64_t> epochs = ckpt::committed_epochs(dir);
  if (epochs.empty()) {
    std::printf("no committed epochs under %s\n", dir.c_str());
    return 1;
  }
  int rc = 0;
  for (const std::uint64_t epoch : epochs) {
    char name[64];
    std::snprintf(name, sizeof name, "manifest_%06" PRIu64, epoch);
    std::ifstream in(dir + "/" + name, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    ckpt::Manifest manifest;
    if (const Status s = ckpt::Manifest::parse(text.str(), manifest); !s) {
      std::printf("epoch %" PRIu64 ": manifest UNREADABLE (%s)\n", epoch,
                  s.message().c_str());
      rc = 1;
      continue;
    }
    std::printf("epoch %" PRIu64 ": time=%.6f actions_completed=%" PRIu64
                " cursor=%" PRIu64 "/%" PRIu64 " (user=%" PRIu64
                ") buffers=%zu chunks=%zu\n",
                manifest.epoch, manifest.time, manifest.actions_completed,
                manifest.cursor.nodes_completed, manifest.cursor.total_nodes,
                manifest.cursor.user, manifest.buffers.size(),
                manifest.chunks.size());
    for (const auto& [buffer, size] : manifest.buffers) {
      std::printf("  buffer %-24s %zu bytes\n", buffer.c_str(), size);
    }
    for (const ckpt::ChunkRef& chunk : manifest.chunks) {
      std::printf("  chunk  %-32s %-16s epoch=%" PRIu64
                  " [%zu, %zu) crc=%016" PRIx64 "\n",
                  chunk.file.c_str(), chunk.buffer.c_str(), chunk.epoch,
                  chunk.offset, chunk.offset + chunk.length, chunk.crc);
    }
    if (const Status s = ckpt::verify_chunks(dir, manifest); !s) {
      std::printf("  integrity: FAILED (%s)\n", s.message().c_str());
      rc = 1;
    } else {
      std::printf("  integrity: ok (%zu chunks verified)\n",
                  manifest.chunks.size());
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hs;

  if (const char* dir = flag_value(argc, argv, "--inspect-checkpoint")) {
    return inspect_checkpoint(dir);
  }

  const bool ivb = argc > 1 && std::strcmp(argv[1], "ivb") == 0;
  const std::size_t cards = argc > 2 && argv[2][0] != '-'
                                ? static_cast<std::size_t>(std::atoi(argv[2]))
                                : 2;
  const std::size_t remotes = argc > 3 && argv[3][0] != '-'
                                  ? static_cast<std::size_t>(std::atoi(argv[3]))
                                  : 0;

  sim::SimPlatform platform =
      remotes > 0 ? sim::hsw_cluster(cards, remotes)
                  : (ivb ? sim::ivb_plus_knc(cards)
                         : sim::hsw_plus_knc(cards));
  RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  config.domain_links = platform.domain_links;
  config.faults.seed = static_cast<std::uint64_t>(
      flag_double(argc, argv, "--fault-seed", 0.0));
  config.faults.p_device_loss = flag_double(argc, argv, "--p-loss", 0.0);
  config.faults.p_transient = flag_double(argc, argv, "--p-transient", 0.0);
  config.faults.p_stall = flag_double(argc, argv, "--p-stall", 0.0);
  config.faults.stall_s =
      flag_double(argc, argv, "--stall-us", config.faults.stall_s * 1e6) / 1e6;
  config.retry.max_attempts = static_cast<int>(flag_double(
      argc, argv, "--retry-max", static_cast<double>(config.retry.max_attempts)));
  config.retry.base_backoff_s =
      flag_double(argc, argv, "--backoff-us", config.retry.base_backoff_s * 1e6) /
      1e6;
  config.retry.multiplier =
      flag_double(argc, argv, "--backoff-mult", config.retry.multiplier);
  Runtime runtime(config,
                  std::make_unique<sim::SimExecutor>(platform, false));

  std::printf("%-4s %-12s %-12s %-8s %-24s %s\n", "id", "name", "kind",
              "threads", "memory", "link");
  for (std::size_t d = 0; d < runtime.domain_count(); ++d) {
    const DomainId id{static_cast<std::uint32_t>(d)};
    const Domain& dom = runtime.domain(id);
    const char* kind = "?";
    switch (dom.desc().kind) {
      case DomainKind::host: kind = "host"; break;
      case DomainKind::coprocessor: kind = "coprocessor"; break;
      case DomainKind::gpu: kind = "gpu"; break;
      case DomainKind::remote_node: kind = "remote-node"; break;
    }
    char memory[64] = "";
    std::size_t at = 0;
    for (const auto& [mk, bytes] : dom.desc().memory_bytes) {
      const char* name = mk == MemKind::ddr   ? "ddr"
                         : mk == MemKind::hbm ? "hbm"
                                              : "pmem";
      at += static_cast<std::size_t>(std::snprintf(
          memory + at, sizeof memory - at, "%s:%zuGB ", name, bytes >> 30));
    }
    char link[64] = "-";
    if (!dom.is_host()) {
      const LinkModel& l = runtime.link_for(id);
      std::snprintf(link, sizeof link, "%s (%.0fus, %.1fGB/s)",
                    l.name.c_str(), l.latency_s * 1e6, l.bandwidth_Bps / 1e9);
    }
    std::printf("%-4zu %-12s %-12s %-8zu %-24s %s\n", d,
                dom.desc().name.c_str(), kind, dom.hw_threads(), memory,
                link);
  }

  std::printf("\nkernel ratings (GF/s ceiling @ whole device):\n");
  std::printf("%-12s", "domain");
  for (const char* k : {"dgemm", "dpotrf", "ldlt", "stencil"}) {
    std::printf(" %10s", k);
  }
  std::printf("\n");
  for (std::size_t d = 0; d < platform.models.size(); ++d) {
    const auto& m = platform.models[d];
    std::printf("%-12s", m.name.c_str());
    for (const char* k : {"dgemm", "dpotrf", "ldlt", "stencil"}) {
      std::printf(" %10.0f", m.rating(k).gflops_max);
    }
    std::printf("\n");
  }

  // Active fault model and retry policy (RuntimeConfig::faults / ::retry).
  const FaultPlan& plan = runtime.config().faults;
  const RetryPolicy& retry = runtime.config().retry;
  std::printf("\nfault injection: %s\n",
              plan.enabled() ? "enabled" : "disabled");
  if (plan.enabled()) {
    std::printf("  seed=%llu p_device_loss=%g p_transient=%g p_stall=%g "
                "stall=%.0fus scheduled=%zu\n",
                static_cast<unsigned long long>(plan.seed), plan.p_device_loss,
                plan.p_transient, plan.p_stall, plan.stall_s * 1e6,
                plan.schedule.size());
  }
  std::printf("retry policy: max_attempts=%d base_backoff=%.0fus "
              "multiplier=%g\n",
              retry.max_attempts, retry.base_backoff_s * 1e6,
              retry.multiplier);

  // Admission-path probe: a short multi-stream enqueue burst through the
  // per-buffer dependence index, so the discovery tool also reports what
  // dependence analysis costs on this build (see DESIGN.md "Scalable
  // admission path").
  {
    constexpr std::size_t kStreams = 4;
    constexpr std::size_t kActionsPerStream = 64;
    static double burst_data[kStreams * kActionsPerStream];
    (void)runtime.buffer_create(burst_data, sizeof burst_data);
    for (std::size_t s = 0; s < kStreams; ++s) {
      const StreamId stream =
          runtime.stream_create(kHostDomain, CpuMask::first_n(1));
      for (std::size_t a = 0; a < kActionsPerStream; ++a) {
        // One private write plus one read of the stream's slot 0: every
        // action depends on the first, exercising both index paths.
        const OperandRef ops[] = {
            {&burst_data[s * kActionsPerStream + a], sizeof(double),
             Access::out},
            {&burst_data[s * kActionsPerStream], sizeof(double), Access::in},
        };
        ComputePayload payload;
        payload.body = [](TaskContext&) {};
        (void)runtime.enqueue_compute(stream, std::move(payload), ops);
      }
    }
    runtime.synchronize();
    std::printf("\nadmission path (%zu streams x %zu actions):\n", kStreams,
                kActionsPerStream);
    print_counters(runtime.stats());
  }

  // Byte-range coherence: config echo (see DESIGN.md "Byte-range
  // coherence") plus a probe — the same upload twice, where the second
  // is provably redundant and should be elided.
  {
    const CoherenceConfig& coh = runtime.config().coherence;
    std::printf("\nbyte-range coherence: elide=%s oracle=%s\n",
                coh.elide ? "on" : "off", coh.oracle ? "on" : "off");
    std::printf("  pipeline_threshold=%zuKiB pipeline_chunk=%zuKiB "
                "(device->device transfers above the threshold are "
                "chunked and hop-overlapped)\n",
                coh.pipeline_threshold >> 10, coh.pipeline_chunk >> 10);

    static double probe_data[512];
    const BufferId probe =
        runtime.buffer_create(probe_data, sizeof probe_data);
    const DomainId card{1};
    if (runtime.domain_count() > 1) {
      runtime.buffer_instantiate(probe, card);
      const StreamId stream =
          runtime.stream_create(card, CpuMask::first_n(1));
      const RuntimeStats before = runtime.stats();
      (void)runtime.enqueue_transfer(stream, probe_data, sizeof probe_data,
                                     XferDir::src_to_sink);
      (void)runtime.enqueue_transfer(stream, probe_data, sizeof probe_data,
                                     XferDir::src_to_sink);
      runtime.synchronize();
      std::printf("  probe (same %zu-byte upload twice):\n",
                  sizeof probe_data);
      print_counters(runtime.stats(), before, "   ");
    }
  }

  // Durable checkpoint probe: two epochs into a scratch directory — a
  // full initial snapshot, then an incremental one after dirtying 128
  // bytes — followed by a restore, so the report shows what the
  // validity-map-driven snapshots skip (see DESIGN.md "Durable
  // incremental checkpoint/restart").
  {
    char tmpl[] = "/tmp/hsinfo_ckpt_XXXXXX";
    char* tmp = mkdtemp(tmpl);
    if (tmp != nullptr) {
      const RuntimeStats before = runtime.stats();
      static double ckpt_data[1024];
      const BufferId probe = runtime.buffer_create(ckpt_data, sizeof ckpt_data);
      {
        ckpt::CheckpointConfig cc;
        cc.directory = tmp;
        ckpt::CheckpointManager manager(runtime, cc);
        manager.track("probe", probe);
        manager.checkpoint().expect("hsinfo: checkpoint probe epoch 1");
        runtime.note_host_write(ckpt_data, 16 * sizeof(double));
        manager.checkpoint().expect("hsinfo: checkpoint probe epoch 2");
        runtime.restore_from_checkpoint(manager)
            .expect("hsinfo: checkpoint probe restore");
        std::printf("\ndurable checkpoint (probe: %zu-byte buffer, full + "
                    "128-byte incremental epoch, restore):\n",
                    sizeof ckpt_data);
        print_counters(runtime.stats(), before);
        std::printf("  (inspect any checkpoint directory with "
                    "hsinfo --inspect-checkpoint=<dir>)\n");
      }
      std::error_code ec;
      std::filesystem::remove_all(tmp, ec);
    }
  }

  // Multi-tenant service probe: two tenants (3:1 weights, the second
  // with a tight byte quota in fail mode) share the runtime through a
  // Service; each runs a short session so the report shows per-tenant
  // counter slices, gate behavior, and a quota_exceeded rejection
  // (see DESIGN.md "Weighted-fair admission").
  if (runtime.domain_count() > 1) {
    service::Service svc(runtime);
    (void)svc.tenant_create({.name = "gold", .weight = 3});
    (void)svc.tenant_create({.name = "best-effort",
                             .weight = 1,
                             .max_bytes_in_flight = 8 * 1024,
                             .quota_mode = service::QuotaMode::fail});
    static double tenant_data[2][2048];
    for (std::uint32_t t = 1; t <= 2; ++t) {
      auto session = svc.open_session(t);
      const StreamId stream =
          session->stream_create(DomainId{1}, CpuMask::first_n(1));
      session->buffer_create("work", tenant_data[t - 1],
                             sizeof tenant_data[t - 1]);
      session->buffer_instantiate("work", DomainId{1});
      // gold uploads the whole buffer each round; best-effort uploads
      // 4 KiB rounds so its 8 KiB in-flight quota admits two and
      // rejects two (sim completes transfers only at synchronize).
      const std::size_t len =
          t == 1 ? sizeof tenant_data[t - 1] : std::size_t{4096};
      for (int i = 0; i < 4; ++i) {
        try {
          (void)session->enqueue_transfer(stream, tenant_data[t - 1], len,
                                          XferDir::src_to_sink);
        } catch (const Error& e) {
          if (e.code() != Errc::quota_exceeded) throw;
        }
        const OperandRef op{tenant_data[t - 1], sizeof(double), Access::inout};
        ComputePayload payload;
        payload.body = [](TaskContext&) {};
        (void)session->enqueue_compute(stream, std::move(payload),
                                       std::span<const OperandRef>(&op, 1));
      }
      session->synchronize();
      session->close();
    }
    std::printf("\nmulti-tenant service (gate=%s quantum=%llu permits=%zu; "
                "probe: 2 tenants x 4 transfer+compute rounds):\n",
                svc.config().fair_admission ? "weighted_drr" : "off",
                static_cast<unsigned long long>(svc.config().quantum),
                svc.config().permits);
    for (std::uint32_t t = 1; t <= svc.tenant_count(); ++t) {
      const service::TenantStats ts = svc.tenant_stats(t);
      std::printf("  %s (weight %u): gate_passes=%llu gate_waits=%llu "
                  "quota_rejections=%llu\n",
                  svc.tenant_config(t).name.c_str(), svc.tenant_config(t).weight,
                  static_cast<unsigned long long>(ts.gate_passes),
                  static_cast<unsigned long long>(ts.gate_waits),
                  static_cast<unsigned long long>(ts.quota_rejections));
      print_counters(ts.runtime, {}, "   ");
    }
  }

  // Every counter of the table, after the probes above.
  {
    std::printf("\nruntime counters (all probes above):\n");
    std::size_t row = 0;
    for_each_counter(runtime.stats(),
                     [&row](const char* name, std::uint64_t value) {
      std::printf("  %-30s %12llu  %s\n", name,
                  static_cast<unsigned long long>(value), kCounterDocs[row++]);
    });
  }

  // Out-of-core governor probe: a dedicated runtime whose single card
  // gets an 8 KiB DDR budget, three 4 KiB buffers pushed through it.
  // The third instantiation evicts instead of throwing, the compute on
  // the spilled first buffer demand re-fetches it, and the final
  // instantiations spill one clean (free drop) and one dirty (writeback)
  // victim (see DESIGN.md "Out-of-core eviction").
  {
    sim::SimPlatform tiny = sim::hsw_plus_knc(1);
    tiny.desc.domains[1].memory_bytes = {{MemKind::ddr, std::size_t{8192}}};
    RuntimeConfig oc;
    oc.platform = tiny.desc;
    oc.device_link = tiny.link;
    oc.domain_links = tiny.domain_links;
    Runtime ooc(oc, std::make_unique<sim::SimExecutor>(tiny, true));
    static double spill_data[3][512];
    const DomainId card{1};
    BufferId ids[3];
    for (int b = 0; b < 3; ++b) {
      ids[b] = ooc.buffer_create(spill_data[b], sizeof spill_data[b]);
      ooc.buffer_instantiate(ids[b], card);
    }
    const StreamId stream = ooc.stream_create(card, CpuMask::first_n(1));
    (void)ooc.enqueue_transfer(stream, spill_data[0], sizeof spill_data[0],
                               XferDir::src_to_sink);
    const OperandRef op{spill_data[0], sizeof spill_data[0], Access::inout};
    ComputePayload payload;
    payload.body = [](TaskContext&) {};
    (void)ooc.enqueue_compute(stream, std::move(payload),
                              std::span<const OperandRef>(&op, 1));
    ooc.synchronize();
    ooc.buffer_instantiate(ids[1], card);
    ooc.buffer_instantiate(ids[2], card);
    std::printf("\nout-of-core governor (probe on its own runtime: 3 x 4 KiB "
                "buffers through an 8 KiB card budget):\n");
    print_counters(ooc.stats());
  }
  return 0;
}
