#include "service/service.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "service/session.hpp"

namespace hs::service {

Service::Service(Runtime& runtime, ServiceConfig config)
    : runtime_(runtime), config_(config) {
  if (config_.fair_admission) {
    gate_ = std::make_unique<FairGate>(config_.policy, config_.quantum,
                                       config_.permits);
  }
  runtime_.set_admission_hook(this);
}

Service::~Service() {
  // Detach first so no new admission can enter the hook. Sessions must
  // already be closed (client contract); in-flight gated actions that
  // complete after this point find no hook and skip their callbacks,
  // which is safe because the gate and the quota ledgers die with us.
  runtime_.set_admission_hook(nullptr);
}

std::uint32_t Service::tenant_create(TenantConfig config) {
  require(config.weight > 0, "tenant weight must be positive");
  const std::unique_lock lock(tenants_mutex_);
  if (!config.name.empty()) {
    for (const TenantState& t : tenants_) {
      require(t.config.name != config.name, "duplicate tenant name",
              Errc::already_initialized);
    }
  }
  const std::uint32_t id = runtime_.tenant_register();
  require(id == tenants_.size() + 1, "tenant registry out of sync",
          Errc::internal);
  if (gate_) {
    gate_->add_tenant(id, config.weight);
  }
  TenantState& t = tenants_.emplace_back();
  t.config = std::move(config);
  t.id = id;
  return id;
}

std::size_t Service::tenant_count() const {
  const std::shared_lock lock(tenants_mutex_);
  return tenants_.size();
}

const TenantConfig& Service::tenant_config(std::uint32_t tenant) const {
  return state(tenant).config;  // immutable after tenant_create
}

std::uint32_t Service::tenant_id(std::string_view name) const {
  const std::shared_lock lock(tenants_mutex_);
  for (const TenantState& t : tenants_) {
    if (!t.config.name.empty() && t.config.name == name) {
      return t.id;
    }
  }
  throw Error(Errc::not_found,
              "no tenant named '" + std::string(name) + "'");
}

TenantStats Service::tenant_stats(std::uint32_t tenant) const {
  const TenantState& t = state(tenant);
  TenantStats st;
  st.runtime = runtime_.tenant_slice(tenant);
  st.quota_rejections = t.quota_rejections.load(std::memory_order_relaxed);
  st.quota_stalls = t.quota_stalls.load(std::memory_order_relaxed);
  st.gate_passes = t.gate_passes.load(std::memory_order_relaxed);
  st.gate_waits = t.gate_waits.load(std::memory_order_relaxed);
  st.sessions_opened = t.sessions_opened.load(std::memory_order_relaxed);
  st.sessions_closed = t.sessions_closed.load(std::memory_order_relaxed);
  {
    const std::scoped_lock lock(t.mu);
    st.streams_in_use = t.streams_in_use;
    st.bytes_in_flight = t.bytes_in_flight;
    st.device_resident_bytes = t.device_resident_bytes;
  }
  return st;
}

std::unique_ptr<Session> Service::open_session(std::uint32_t tenant) {
  TenantState& t = state(tenant);
  const std::uint32_t id =
      next_session_.fetch_add(1, std::memory_order_relaxed);
  t.sessions_opened.fetch_add(1, std::memory_order_relaxed);
  open_sessions_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(*this, tenant, id));
}

std::unique_ptr<Session> Service::open_session(std::string_view tenant) {
  return open_session(tenant_id(tenant));
}

Service::TenantState& Service::state(std::uint32_t tenant) {
  const std::shared_lock lock(tenants_mutex_);
  require(tenant >= 1 && tenant <= tenants_.size(), "unknown tenant",
          Errc::not_found);
  return tenants_[tenant - 1];  // deque entries are pointer-stable
}

const Service::TenantState& Service::state(std::uint32_t tenant) const {
  const std::shared_lock lock(tenants_mutex_);
  require(tenant >= 1 && tenant <= tenants_.size(), "unknown tenant",
          Errc::not_found);
  return tenants_[tenant - 1];
}

// --- AdmissionHook ---------------------------------------------------------

void Service::before_admit(std::uint32_t tenant, ActionType type,
                           std::size_t bytes, std::size_t held) {
  TenantState& t = state(tenant);
  // Quota first, gate second: a rejected enqueue must not consume a fair
  // turn, and a blocked one must not stall other tenants while it waits.
  if (type == ActionType::transfer && bytes > 0) {
    const std::size_t limit = t.config.max_bytes_in_flight;
    const auto try_charge = [&t, bytes, limit]() -> bool {
      const std::scoped_lock lock(t.mu);
      if (limit != 0 && t.bytes_in_flight + bytes > limit) {
        return false;
      }
      t.bytes_in_flight += bytes;
      return true;
    };
    if (!try_charge()) {
      // Bytes held by the same graph launch drain only after it admits,
      // so a transfer that does not fit beside them — a single transfer
      // larger than the whole quota included — could wait forever: it
      // fails in either mode.
      if (t.config.quota_mode == QuotaMode::fail || bytes + held > limit) {
        t.quota_rejections.fetch_add(1, std::memory_order_relaxed);
        throw Error(Errc::quota_exceeded,
                    "tenant '" + t.config.name + "' bytes-in-flight quota (" +
                        std::to_string(limit) + ") exceeded by " +
                        std::to_string(bytes) + "-byte transfer");
      }
      t.quota_stalls.fetch_add(1, std::memory_order_relaxed);
      // Executor::wait pumps completions while polling (the sim backend
      // advances virtual time on this thread), so blocking-mode quotas
      // cannot deadlock a single-threaded executor. The predicate claims
      // the budget atomically when it fits — no recheck race.
      runtime_.executor().wait(try_charge);
    }
  }
  if (gate_ && gated_type(type)) {
    const bool waited = gate_->acquire(tenant, gate_cost(bytes));
    t.gate_passes.fetch_add(1, std::memory_order_relaxed);
    if (waited) {
      t.gate_waits.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Service::after_admit(std::uint32_t /*tenant*/, ActionType type) noexcept {
  if (gate_ && gated_type(type)) {
    gate_->release();
  }
}

void Service::on_complete(std::uint32_t tenant, ActionType type,
                          std::size_t bytes) noexcept {
  if (type != ActionType::transfer || bytes == 0 || tenant == 0) {
    return;
  }
  const std::shared_lock lock(tenants_mutex_);
  if (tenant > tenants_.size()) {
    return;  // never: tenants are not removed, but stay noexcept-safe
  }
  TenantState& t = tenants_[tenant - 1];
  const std::scoped_lock quota_lock(t.mu);
  t.bytes_in_flight -= bytes <= t.bytes_in_flight ? bytes : t.bytes_in_flight;
}

// --- Session-side quota accounting -----------------------------------------

void Service::charge_stream(TenantState& t) {
  const std::scoped_lock lock(t.mu);
  if (t.config.max_streams != 0 &&
      t.streams_in_use + 1 > t.config.max_streams) {
    t.quota_rejections.fetch_add(1, std::memory_order_relaxed);
    throw Error(Errc::quota_exceeded,
                "tenant '" + t.config.name + "' stream quota (" +
                    std::to_string(t.config.max_streams) + ") exhausted");
  }
  ++t.streams_in_use;
}

void Service::release_stream(TenantState& t) noexcept {
  const std::scoped_lock lock(t.mu);
  if (t.streams_in_use > 0) {
    --t.streams_in_use;
  }
}

void Service::charge_device_bytes(TenantState& t, std::size_t bytes) {
  const std::scoped_lock lock(t.mu);
  if (t.config.max_device_resident_bytes != 0 &&
      t.device_resident_bytes + bytes > t.config.max_device_resident_bytes) {
    t.quota_rejections.fetch_add(1, std::memory_order_relaxed);
    throw Error(Errc::quota_exceeded,
                "tenant '" + t.config.name + "' device-resident quota (" +
                    std::to_string(t.config.max_device_resident_bytes) +
                    ") exceeded by " + std::to_string(bytes) + " bytes");
  }
  t.device_resident_bytes += bytes;
}

void Service::release_device_bytes(TenantState& t, std::size_t bytes) {
  const std::scoped_lock lock(t.mu);
  // An over-refund is always an accounting bug (double release, or a
  // release for an incarnation whose quota was already refunded at
  // eviction). The old clamp hid it and let the tenant mint free quota.
  assert(bytes <= t.device_resident_bytes &&
         "device-resident refund exceeds the tenant's charged total");
  require(bytes <= t.device_resident_bytes,
          "tenant '" + t.config.name + "' device-resident refund of " +
              std::to_string(bytes) + " bytes exceeds the " +
              std::to_string(t.device_resident_bytes) +
              " bytes charged (double release or unbalanced accounting)",
          Errc::internal);
  t.device_resident_bytes -= bytes;
}

// --- Device-residency registry ---------------------------------------------

bool Service::charge_resident(std::uint32_t tenant, BufferId buffer,
                              DomainId domain, std::size_t bytes) {
  const std::scoped_lock lock(residency_mutex_);
  const auto key = std::make_pair(buffer.value, domain.value);
  if (const auto it = residency_.find(key);
      it != residency_.end() && !it->second.spilled) {
    return false;  // re-instantiate of a live incarnation: already charged
  }
  charge_device_bytes(state(tenant), bytes);  // may throw quota_exceeded
  residency_[key] = ResidentEntry{tenant, bytes, false};
  return true;
}

void Service::forget_resident(BufferId buffer, DomainId domain) {
  ResidentEntry entry;
  {
    const std::scoped_lock lock(residency_mutex_);
    const auto it = residency_.find({buffer.value, domain.value});
    if (it == residency_.end()) {
      return;  // not a session-charged incarnation (or already forgotten)
    }
    entry = it->second;
    residency_.erase(it);
  }
  if (!entry.spilled) {
    release_device_bytes(state(entry.tenant), entry.bytes);
  }
}

void Service::on_evict(BufferId buffer, DomainId domain,
                       std::size_t /*bytes*/) noexcept {
  // Runs under the runtime's governor lock: must not block or reenter the
  // runtime. Refund what was actually charged, not the governor's view.
  const std::scoped_lock lock(residency_mutex_);
  const auto it = residency_.find({buffer.value, domain.value});
  if (it == residency_.end() || it->second.spilled) {
    return;  // not session-charged, or a double notification
  }
  it->second.spilled = true;
  try {
    release_device_bytes(state(it->second.tenant), it->second.bytes);
  } catch (...) {
    // The ledger is already guarded by Errc::internal elsewhere; an evict
    // notification must not throw through the governor.
  }
}

void Service::on_refetch(BufferId buffer, DomainId domain,
                         std::size_t /*bytes*/) {
  const std::scoped_lock lock(residency_mutex_);
  const auto it = residency_.find({buffer.value, domain.value});
  if (it == residency_.end() || !it->second.spilled) {
    return;  // not session-charged, or never evicted: nothing to re-charge
  }
  // Throwing here (quota_exceeded) vetoes the refetch and fails the action
  // that demanded it — a spilled tenant cannot sneak back over its quota.
  charge_device_bytes(state(it->second.tenant), it->second.bytes);
  it->second.spilled = false;
}

}  // namespace hs::service
