#pragma once

// Tenant identity, quotas, and QoS weight for multi-tenant service mode.
//
// A tenant is a client principal: it owns a priority weight (its share
// of the weighted-fair admission gate), resource quotas, and a slice of
// the runtime counters. Sessions (service/session.hpp) are the unit of
// client state *within* a tenant — many sessions share one tenant's
// quotas and weight, the way one customer's connections share one
// account's limits.

#include <cstdint>
#include <string>

#include "core/runtime.hpp"

namespace hs::service {

/// What happens when an enqueue would breach a quota.
enum class QuotaMode {
  block,  ///< the enqueue waits until in-flight work drains below the
          ///< limit (bytes-in-flight only; see TenantConfig notes)
  fail,   ///< the enqueue throws Errc::quota_exceeded immediately
};

struct TenantConfig {
  std::string name;
  /// Fair-share weight: a backlogged tenant with weight 2w is granted
  /// twice the admission cost per gate round of one with weight w.
  std::uint32_t weight = 1;
  /// Max streams concurrently owned by this tenant's sessions
  /// (0 = unlimited). Always fail-fast: only the tenant itself can
  /// release a stream, so blocking would self-deadlock.
  std::size_t max_streams = 0;
  /// Max transfer bytes admitted and not yet completed (0 = unlimited).
  /// Honors `quota_mode`: blocking waits for the runtime to drain (the
  /// wait pumps the executor, so it is safe on the single-threaded sim
  /// backend too); fail throws Errc::quota_exceeded. A transfer that
  /// cannot fit beside the bytes its own graph launch already holds
  /// fails in either mode.
  std::size_t max_bytes_in_flight = 0;
  /// Max bytes of this tenant's buffers instantiated on device domains
  /// (0 = unlimited). Always fail-fast, like max_streams: incarnations
  /// are released only by explicit deinstantiate/destroy calls.
  std::size_t max_device_resident_bytes = 0;
  QuotaMode quota_mode = QuotaMode::fail;
};

/// Service-level view of one tenant: the runtime counter slice plus the
/// service's own accounting (quotas, gate behavior, sessions).
struct TenantStats {
  TenantStatsSlice runtime;  ///< enqueues/completions/bytes/elisions
  std::uint64_t quota_rejections = 0;  ///< fail-fast quota_exceeded throws
  std::uint64_t quota_stalls = 0;      ///< blocking-mode waits taken
  std::uint64_t gate_passes = 0;       ///< admissions through the gate
  std::uint64_t gate_waits = 0;        ///< passes that had to queue
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::size_t streams_in_use = 0;
  std::size_t bytes_in_flight = 0;
  std::size_t device_resident_bytes = 0;
};

}  // namespace hs::service
