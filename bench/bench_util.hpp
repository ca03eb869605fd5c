#pragma once

// Shared plumbing for the figure/table benches.
//
// Every bench binary regenerates one table or figure of the paper in
// *virtual time* on the SimExecutor with payload execution disabled:
// the scheduler runs the real action graph (every enqueue, dependence,
// transfer and task is real), but kernel bodies are skipped and clock
// time comes from the calibrated device/link models. Matrices are
// "phantom" allocations (address space only), so paper-scale problems
// fit the evaluation container. Absolute GF/s therefore follow the
// calibration; the *shape* — who wins, by what factor, where crossovers
// sit — is the reproduction target (see EXPERIMENTS.md).

#include <memory>
#include <string>

#include "common/json_report.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "core/runtime.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs::bench {

/// Deleter that folds every runtime counter (core/counters.hpp) into the
/// JSON report before teardown, so each BENCH_*.json carries them without
/// per-bench plumbing (benches build runtimes only through sim_runtime(),
/// and write_json() runs after the last one dies). Multi-tenant runs add
/// each tenant's slice as tenant<N>_<name>; tenant-free benches register
/// no tenants and emit none.
struct CountingRuntimeDeleter {
  void operator()(Runtime* rt) const {
    if (rt == nullptr) {
      return;
    }
    for_each_counter(rt->stats(), report::note_counter);
    for (std::uint32_t t = 1; t <= rt->tenant_count(); ++t) {
      const std::string prefix = "tenant" + std::to_string(t) + "_";
      for_each_counter(rt->tenant_slice(t),
                       [&prefix](const char* name, std::uint64_t value) {
                         report::note_counter(prefix + name, value);
                       });
    }
    delete rt;
  }
};
using SimRuntimePtr = std::unique_ptr<Runtime, CountingRuntimeDeleter>;

/// Fresh simulation runtime for one data point.
inline SimRuntimePtr sim_runtime(const sim::SimPlatform& platform,
                                 bool transfer_pool = true,
                                 bool execute_payloads = false) {
  RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  config.domain_links = platform.domain_links;
  config.transfer_pool_enabled = transfer_pool;
  return SimRuntimePtr(new Runtime(
      config,
      std::make_unique<sim::SimExecutor>(platform, execute_payloads)));
}

/// "x.xx (paper y)" cell helper for side-by-side reporting.
inline std::string vs_paper(double measured, double paper, int precision = 0) {
  return fmt(measured, precision) + " (paper " + fmt(paper, precision) + ")";
}

}  // namespace hs::bench
