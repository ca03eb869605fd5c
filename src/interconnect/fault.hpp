#pragma once

// Fault model for the interconnect transport.
//
// The real transport underneath hStreams (COI/SCIF over PCIe, or COI over
// fabric) is not perfect: transfers fail transiently, links stall, and
// whole cards drop off the bus. This header models those events so the
// scheduler above can be exercised against them:
//
//   * FaultPlan — construction-time description of which faults occur,
//     either as seeded per-attempt probabilities or as an explicit
//     deterministic schedule (domain, transfer-id, attempt) -> fault.
//   * FaultInjector — the runtime-owned decision oracle. Decisions are a
//     pure function of (seed, domain, transfer id, attempt), where the
//     transfer id is assigned in per-domain *enqueue* order under the
//     runtime lock — a stable identity that does not depend on which
//     copier thread happens to run the attempt first. The same plan
//     therefore produces the same fault *assignment* on every backend
//     and every run, regardless of thread interleaving. (The injector
//     log records decisions in consumption order, which on the threaded
//     backend can be a permutation of the deterministic assignment.)
//   * RetryPolicy — how a transient failure is answered: exponential
//     backoff up to max_attempts, after which the device is declared
//     lost.
//
// Runtime::transfer_attempt is the one consumer: it draws the decision,
// applies the retry policy and escalates losses, and hands the executor
// a verdict (run after a stall, retry after a backoff, or dropped). The
// executors pay it in their own notion of time: the threaded backend in
// wall time (a backoff as a timed resubmit, so a copier is never
// parked), the simulator in virtual time.

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.hpp"
#include "core/types.hpp"

namespace hs {

/// What the injector can do to one transfer attempt.
enum class FaultKind {
  none,
  transient_error,  ///< the attempt fails; retryable
  link_stall,       ///< the attempt succeeds after added latency
  device_loss,      ///< the device drops off the bus permanently
};

[[nodiscard]] constexpr std::string_view to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::none: return "none";
    case FaultKind::transient_error: return "transient_error";
    case FaultKind::link_stall: return "link_stall";
    case FaultKind::device_loss: return "device_loss";
  }
  return "unknown";
}

/// One explicitly scheduled fault: hits attempt `attempt` (0-based) of
/// the transfer whose per-domain enqueue-order id is `transfer_index`,
/// targeting `domain`.
struct ScheduledFault {
  DomainId domain;
  std::uint64_t transfer_index = 0;
  int attempt = 0;
  FaultKind kind = FaultKind::transient_error;
  double stall_s = 0.0;  ///< for link_stall; 0 = use the plan default
};

/// Construction-time fault configuration (RuntimeConfig::faults).
struct FaultPlan {
  std::uint64_t seed = 0;
  /// Per-transfer-attempt probabilities, evaluated in this order:
  /// device loss, then transient error, then stall.
  double p_device_loss = 0.0;
  double p_transient = 0.0;
  double p_stall = 0.0;
  double stall_s = 200e-6;  ///< default added latency of a link stall
  std::vector<ScheduledFault> schedule;

  [[nodiscard]] bool enabled() const noexcept {
    return p_device_loss > 0.0 || p_transient > 0.0 || p_stall > 0.0 ||
           !schedule.empty();
  }
};

/// How failed transfer attempts are retried (Runtime::transfer_attempt).
struct RetryPolicy {
  int max_attempts = 3;          ///< total attempts before declaring loss
  double base_backoff_s = 100e-6;
  double multiplier = 2.0;

  /// Backoff before attempt `failures + 1`, given `failures` >= 1 failed
  /// attempts so far: base * multiplier^(failures - 1).
  [[nodiscard]] double backoff_seconds(int failures) const {
    require(failures >= 1, "backoff needs at least one failure");
    double b = base_backoff_s;
    for (int i = 1; i < failures; ++i) {
      b *= multiplier;
    }
    return b;
  }
};

/// The injector's verdict for one transfer attempt.
struct FaultDecision {
  FaultKind kind = FaultKind::none;
  double stall_s = 0.0;
};

/// One injected fault, as recorded in the injector's log.
struct InjectedFault {
  DomainId domain;
  std::uint64_t transfer_index = 0;
  int attempt = 0;
  FaultKind kind = FaultKind::none;
  double stall_s = 0.0;

  friend bool operator==(const InjectedFault&, const InjectedFault&) = default;
};

/// Runtime-owned fault oracle. Thread-safe; each decision depends only on
/// the plan and the attempt's stable identity (domain, transfer id,
/// attempt ordinal), never on wall time or consumption order.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] bool enabled() const noexcept { return plan_.enabled(); }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Decides the fate of attempt `attempt` (0-based) of the transfer with
  /// per-domain enqueue-order id `transfer` targeting `domain`. Pure in
  /// its arguments; calling twice with the same identity returns the same
  /// verdict (only the first call is logged by the runtime's wrapper).
  [[nodiscard]] FaultDecision on_transfer(DomainId domain,
                                          std::uint64_t transfer,
                                          int attempt) {
    FaultDecision decision;
    for (const ScheduledFault& f : plan_.schedule) {
      if (f.domain == domain && f.transfer_index == transfer &&
          f.attempt == attempt) {
        decision.kind = f.kind;
        decision.stall_s = f.stall_s > 0.0 ? f.stall_s : plan_.stall_s;
        break;
      }
    }
    if (decision.kind == FaultKind::none) {
      const double u = hash01(plan_.seed, domain.value, transfer,
                              static_cast<std::uint64_t>(attempt));
      if (u < plan_.p_device_loss) {
        decision.kind = FaultKind::device_loss;
      } else if (u < plan_.p_device_loss + plan_.p_transient) {
        decision.kind = FaultKind::transient_error;
      } else if (u < plan_.p_device_loss + plan_.p_transient + plan_.p_stall) {
        decision.kind = FaultKind::link_stall;
        decision.stall_s = plan_.stall_s;
      }
    }
    if (decision.kind != FaultKind::none) {
      const std::scoped_lock lock(mutex_);
      log_.push_back({domain, transfer, attempt, decision.kind,
                      decision.stall_s});
    }
    return decision;
  }

  /// Snapshot of every fault injected so far. Decision *content* is
  /// deterministic; on the threaded backend the push order can be a
  /// permutation (compare canonicalized — see canonical_log()).
  [[nodiscard]] std::vector<InjectedFault> log() const {
    const std::scoped_lock lock(mutex_);
    return log_;
  }

  /// The log sorted by (domain, transfer id, attempt): interleaving-
  /// independent, so it must match exactly between backends and runs for
  /// the same workload + plan.
  [[nodiscard]] std::vector<InjectedFault> canonical_log() const;

 private:
  /// SplitMix64-style stateless hash of (seed, domain, transfer, attempt)
  /// -> [0, 1). Stateless so thread interleaving cannot reorder the
  /// random stream.
  [[nodiscard]] static double hash01(std::uint64_t seed, std::uint64_t domain,
                                     std::uint64_t transfer,
                                     std::uint64_t attempt) noexcept {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (transfer + 1) +
                      0xbf58476d1ce4e5b9ULL * (domain + 1) +
                      0x94d049bb133111ebULL * (attempt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  }

  mutable std::mutex mutex_;
  FaultPlan plan_;
  std::vector<InjectedFault> log_;
};

inline std::vector<InjectedFault> FaultInjector::canonical_log() const {
  std::vector<InjectedFault> out = log();
  std::sort(out.begin(), out.end(),
            [](const InjectedFault& a, const InjectedFault& b) {
              if (a.domain.value != b.domain.value) {
                return a.domain.value < b.domain.value;
              }
              if (a.transfer_index != b.transfer_index) {
                return a.transfer_index < b.transfer_index;
              }
              return a.attempt < b.attempt;
            });
  return out;
}

}  // namespace hs
