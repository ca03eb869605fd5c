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
//
// Fault-model knobs: every bench runtime honours two environment
// variables, so any table can be regenerated under an unreliable
// interconnect without recompiling:
//
//   HS_BENCH_FAULTS="seed=7,p_transient=0.01,p_stall=0.005,
//                    p_device_loss=0,stall_s=2e-4"
//   HS_BENCH_RETRY="max_attempts=5,base_backoff_s=1e-4,multiplier=2"
//
// Both take comma-separated key=value lists; unknown keys are rejected
// loudly (a typo silently reverting to a perfect link would fake data).

#include <cstdlib>
#include <memory>
#include <string>

#include "common/json_report.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "core/runtime.hpp"
#include "interconnect/fault.hpp"
#include "sim/platform.hpp"
#include "sim/sim_executor.hpp"

namespace hs::bench {

namespace detail {

/// Calls `apply(key, value)` for each comma-separated key=value pair.
template <typename Fn>
void parse_kv_list(const std::string& text, const char* env_name, Fn apply) {
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string item = text.substr(begin, end - begin);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      require(eq != std::string::npos && eq > 0,
              std::string(env_name) + ": expected key=value, got '" + item +
                  "'");
      apply(item.substr(0, eq), std::stod(item.substr(eq + 1)));
    }
    begin = end + 1;
  }
}

}  // namespace detail

/// FaultPlan from $HS_BENCH_FAULTS (empty/unset = perfect interconnect).
inline FaultPlan fault_plan_from_env() {
  FaultPlan plan;
  const char* env = std::getenv("HS_BENCH_FAULTS");
  if (env == nullptr) {
    return plan;
  }
  detail::parse_kv_list(env, "HS_BENCH_FAULTS",
                        [&plan](const std::string& key, double value) {
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(value);
    } else if (key == "p_device_loss") {
      plan.p_device_loss = value;
    } else if (key == "p_transient") {
      plan.p_transient = value;
    } else if (key == "p_stall") {
      plan.p_stall = value;
    } else if (key == "stall_s") {
      plan.stall_s = value;
    } else {
      require(false, "HS_BENCH_FAULTS: unknown key '" + key + "'");
    }
  });
  return plan;
}

/// RetryPolicy from $HS_BENCH_RETRY (empty/unset = defaults).
inline RetryPolicy retry_policy_from_env() {
  RetryPolicy retry;
  const char* env = std::getenv("HS_BENCH_RETRY");
  if (env == nullptr) {
    return retry;
  }
  detail::parse_kv_list(env, "HS_BENCH_RETRY",
                        [&retry](const std::string& key, double value) {
    if (key == "max_attempts") {
      retry.max_attempts = static_cast<int>(value);
    } else if (key == "base_backoff_s") {
      retry.base_backoff_s = value;
    } else if (key == "multiplier") {
      retry.multiplier = value;
    } else {
      require(false, "HS_BENCH_RETRY: unknown key '" + key + "'");
    }
  });
  return retry;
}

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

/// Fresh simulation runtime for one data point. Honours HS_BENCH_FAULTS
/// and HS_BENCH_RETRY (see the header comment).
inline SimRuntimePtr sim_runtime(const sim::SimPlatform& platform,
                                 bool transfer_pool = true,
                                 bool execute_payloads = false) {
  RuntimeConfig config;
  config.platform = platform.desc;
  config.device_link = platform.link;
  config.domain_links = platform.domain_links;
  config.transfer_pool_enabled = transfer_pool;
  config.faults = fault_plan_from_env();
  config.retry = retry_policy_from_env();
  return SimRuntimePtr(new Runtime(
      config,
      std::make_unique<sim::SimExecutor>(platform, execute_payloads)));
}

/// "x.xx (paper y)" cell helper for side-by-side reporting.
inline std::string vs_paper(double measured, double paper, int precision = 0) {
  return fmt(measured, precision) + " (paper " + fmt(paper, precision) + ")";
}

}  // namespace hs::bench
