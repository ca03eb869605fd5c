#pragma once

// Service: the multi-tenant front door over one shared Runtime.
//
// Borrowing the kspp topology_builder shape — named app instances each
// building isolated topologies over shared infrastructure — a Service
// registers named tenants (weight + quotas), opens numbered Sessions
// for them, and installs itself as the Runtime's AdmissionHook so every
// enqueue on a tenant-bound stream is quota-checked and passes the
// weighted-fair gate, no matter which API layer issued it (session
// wrappers, AppApi apps, graph replay, the compat layer).
//
// Composition with the PR 4 sharded admission path: the hook runs
// *before* any stream or shard lock is taken, and the gate permit spans
// only the bounded Runtime::admit call — so tenants blocked on their
// fair turn hold nothing the sharded path needs, and with the gate off
// the hot path is untouched except for one atomic load per enqueue.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <utility>

#include "core/runtime.hpp"
#include "service/fair_gate.hpp"
#include "service/tenant.hpp"

namespace hs::service {

class Session;

struct ServiceConfig {
  /// Weighted-fair turn taking across tenants at admission. Off = no
  /// gate (quotas still enforced): the bench's unfair baseline.
  bool fair_admission = true;
  FairPolicy policy = FairPolicy::weighted_drr;
  /// Deficit per gate-round per unit weight, in cost units
  /// (cost = 1 + transfer_bytes/4096).
  std::uint64_t quantum = 8;
  /// Concurrent admissions allowed through the gate. 1 = strict fair
  /// ordering under contention; larger trades ordering strictness for
  /// admission parallelism.
  std::size_t permits = 1;
};

class Service final : private AdmissionHook {
 public:
  explicit Service(Runtime& runtime, ServiceConfig config = {});
  ~Service() override;  ///< detaches the hook; sessions must be closed

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  [[nodiscard]] Runtime& runtime() noexcept { return runtime_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// Registers a tenant; returns its runtime tenant id (1-based).
  std::uint32_t tenant_create(TenantConfig config);
  [[nodiscard]] std::size_t tenant_count() const;
  [[nodiscard]] const TenantConfig& tenant_config(std::uint32_t tenant) const;
  /// Id of the tenant named `name`; throws not_found otherwise.
  [[nodiscard]] std::uint32_t tenant_id(std::string_view name) const;
  /// Combined service + runtime-slice stats snapshot.
  [[nodiscard]] TenantStats tenant_stats(std::uint32_t tenant) const;

  /// Opens an isolated session for `tenant`. The Session's lifetime is
  /// the client's: close() (or destruction) drains and releases
  /// everything it owns. Sessions of one tenant share its quotas.
  [[nodiscard]] std::unique_ptr<Session> open_session(std::uint32_t tenant);
  [[nodiscard]] std::unique_ptr<Session> open_session(std::string_view tenant);

 private:
  friend class Session;

  /// Per-tenant service state. Deque entries are pointer-stable;
  /// `mu` guards the quota accounting (leaf lock).
  struct TenantState {
    TenantConfig config;
    std::uint32_t id = 0;
    mutable std::mutex mu;
    std::size_t streams_in_use = 0;
    std::size_t bytes_in_flight = 0;
    std::size_t device_resident_bytes = 0;
    std::atomic<std::uint64_t> quota_rejections{0};
    std::atomic<std::uint64_t> quota_stalls{0};
    std::atomic<std::uint64_t> gate_passes{0};
    std::atomic<std::uint64_t> gate_waits{0};
    std::atomic<std::uint64_t> sessions_opened{0};
    std::atomic<std::uint64_t> sessions_closed{0};
  };

  [[nodiscard]] TenantState& state(std::uint32_t tenant);
  [[nodiscard]] const TenantState& state(std::uint32_t tenant) const;

  // AdmissionHook: quota check (block or fail) then fair-turn acquire.
  void before_admit(std::uint32_t tenant, ActionType type,
                    std::size_t bytes, std::size_t held) override;
  // Releases the gate permit once the admission call returned.
  void after_admit(std::uint32_t tenant, ActionType type) noexcept override;
  // Returns in-flight bytes at action completion.
  void on_complete(std::uint32_t tenant, ActionType type,
                   std::size_t bytes) noexcept override;
  // Out-of-core callbacks from the runtime's memory governor. An evicted
  // incarnation stops counting against its tenant's device-resident quota
  // (the refund lands here, at eviction time, so the quota tracks what is
  // actually resident); a demand refetch re-charges the quota and may veto
  // by throwing quota_exceeded, which fails the triggering action.
  void on_evict(BufferId buffer, DomainId domain,
                std::size_t bytes) noexcept override;
  void on_refetch(BufferId buffer, DomainId domain,
                  std::size_t bytes) override;

  /// Whether this action type takes a gate turn (computes and transfers:
  /// the actions that occupy device time. Syncs pass ungated — they are
  /// control flow, and gating an event_wait could make its permit wait
  /// on a signal stuck behind the gate).
  [[nodiscard]] static bool gated_type(ActionType type) noexcept {
    return type == ActionType::compute || type == ActionType::transfer;
  }
  [[nodiscard]] static std::uint64_t gate_cost(std::size_t bytes) noexcept {
    return 1 + bytes / 4096;
  }

  // Session-side accounting (quota enforcement lives with the service so
  // all of a tenant's sessions share one budget).
  void charge_stream(TenantState& t);          ///< throws quota_exceeded
  void release_stream(TenantState& t) noexcept;
  void charge_device_bytes(TenantState& t, std::size_t bytes);
  /// Throws Errc::internal (asserts in debug) if the refund exceeds the
  /// tenant's charged total: that is always an accounting bug, and the
  /// old silent clamp let double-releases mint free quota.
  void release_device_bytes(TenantState& t, std::size_t bytes);

  /// Device-residency registry entry, keyed (buffer, domain), so eviction
  /// refunds and refetch re-charges land on the owning tenant. `spilled`
  /// entries have already been refunded at eviction time.
  struct ResidentEntry {
    std::uint32_t tenant = 0;
    std::size_t bytes = 0;
    bool spilled = false;
  };
  /// Charges the tenant's quota and records residency; returns false (no
  /// charge taken) when the incarnation is already charged. May throw
  /// quota_exceeded.
  bool charge_resident(std::uint32_t tenant, BufferId buffer, DomainId domain,
                       std::size_t bytes);
  /// Drops the registry entry, refunding the quota unless the incarnation
  /// was spilled (its refund already happened in on_evict).
  void forget_resident(BufferId buffer, DomainId domain);

  Runtime& runtime_;
  ServiceConfig config_;
  mutable std::shared_mutex tenants_mutex_;  ///< guards the deque + names
  std::deque<TenantState> tenants_;          ///< by tenant id - 1
  /// Guards residency_. Order: below the runtime's governor lock (on_evict
  /// and on_refetch run with it held), above tenants_mutex_ and t.mu.
  mutable std::mutex residency_mutex_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, ResidentEntry>
      residency_;  ///< keyed (buffer.value, domain.value)
  std::unique_ptr<FairGate> gate_;           ///< null when fair_admission off
  std::atomic<std::uint32_t> next_session_{1};
  std::atomic<std::size_t> open_sessions_{0};
};

}  // namespace hs::service
