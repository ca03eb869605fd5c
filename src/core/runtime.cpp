#include "core/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <memory_resource>
#include <utility>

#include "common/log.hpp"

namespace hs {

namespace {

Topology make_topology(const RuntimeConfig& config) {
  const std::size_t devices =
      config.platform.domains.empty() ? 0 : config.platform.domains.size() - 1;
  if (config.domain_links.empty()) {
    return Topology(devices, config.device_link);
  }
  require(config.domain_links.size() == devices,
          "domain_links must have one entry per non-host domain");
  return Topology(config.domain_links);
}

/// What an admission hook charges for `record`: the transfer length (0
/// for computes and syncs).
std::size_t gate_bytes(const ActionRecord& record) {
  return record.type == ActionType::transfer ? record.transfer.length : 0;
}

}  // namespace

Runtime::Runtime(RuntimeConfig config, std::unique_ptr<Executor> executor)
    : config_(std::move(config)),
      executor_(std::move(executor)),
      topology_(make_topology(config_)),
      pool_(config_.transfer_pool_enabled),
      injector_(config_.faults) {
  require(executor_ != nullptr, "runtime needs an executor");
  require(!config_.platform.domains.empty(), "platform needs a host domain");
  if (config_.transfer_pool_enabled) {
    // COI pre-allocates its 2 MB buffer pool at init, which is what makes
    // steady-state allocation overhead "negligible" (§III).
    pool_.warm(64);
  }
  require(config_.platform.domains.front().kind == DomainKind::host,
          "domain 0 must be the host");
  for (std::size_t i = 0; i < config_.platform.domains.size(); ++i) {
    domains_.emplace_back(DomainId{static_cast<std::uint32_t>(i)},
                          config_.platform.domains[i]);
  }
  health_.resize(domains_.size());
  next_transfer_seq_ =
      std::vector<std::atomic<std::uint64_t>>(domains_.size());
  executor_->attach(*this);
}

Runtime::~Runtime() {
  // Each synchronize reports at most one queued sink error; drain the
  // whole queue (a teardown error cannot propagate from a destructor).
  for (int i = 0; i < 64; ++i) {
    try {
      synchronize();
      break;
    } catch (const std::exception& e) {
      log_error("runtime destroyed with pending sink error: %s", e.what());
    }
  }
  // Executors own threads that may call back into the runtime; they must
  // die before runtime state does.
  executor_.reset();
}

void Runtime::lock_counted(std::mutex& m) const {
  if (m.try_lock()) {
    return;
  }
  count(Counter::lock_shard_contention);
  m.lock();
}

Runtime::DepState* Runtime::dep_find(ActionId id) {
  DepShard& shard = shard_for(id);
  lock_counted(shard.mu);
  const std::lock_guard<std::mutex> lock(shard.mu, std::adopt_lock);
  const auto it = shard.map.find(id);
  return it == shard.map.end() ? nullptr : &it->second;
}

const Domain& Runtime::domain(DomainId id) const {
  require(id.value < domains_.size(), "unknown domain", Errc::not_found);
  return domains_[id.value];
}

std::vector<DomainId> Runtime::domains_of_kind(DomainKind kind) const {
  std::vector<DomainId> out;
  for (const Domain& d : domains_) {
    if (d.desc().kind == kind) {
      out.push_back(d.id());
    }
  }
  return out;
}

bool Runtime::domain_alive(DomainId id) const {
  require(id.value < domains_.size(), "unknown domain", Errc::not_found);
  return domains_[id.value].alive();
}

void Runtime::require_domain_alive(DomainId id) const {
  require(domains_[id.value].alive(),
          "domain " + std::to_string(id.value) + " was lost",
          Errc::device_lost);
}

void Runtime::mark_domain_lost(DomainId id) {
  {
    const std::scoped_lock lock(mutex_);
    require(id.value < domains_.size(), "unknown domain", Errc::not_found);
    require(id != kHostDomain, "the host domain cannot be lost");
    if (!domains_[id.value].alive()) {
      return;  // already declared; the loss is reported exactly once
    }
    domains_[id.value].mark_lost();
    count(Counter::domains_lost);
    if (!health_[id.value].degraded) {
      count(Counter::links_degraded);
    }
    health_[id.value].lose();
    push_pending_error(std::make_exception_ptr(
        Error(Errc::device_lost,
              "domain " + std::to_string(id.value) + " lost (" +
                  domains_[id.value].desc().name + ")")));
  }
  // Fail every in-flight action on the dead domain's streams. Claiming
  // under each stream's lock makes this exactly-once: a late `done` from
  // an executor thread finds the claim and becomes a no-op. Enqueues
  // racing this loop already see the dead domain (alive is atomic and
  // was cleared above).
  std::vector<std::shared_ptr<ActionRecord>> victims;
  {
    std::shared_lock streams(streams_mutex_);
    for (const auto& sp : streams_) {
      StreamState& s = *sp;
      if (!s.alive.load(std::memory_order_acquire) || s.domain != id) {
        continue;
      }
      lock_counted(s.mu);
      const std::lock_guard<std::mutex> sl(s.mu, std::adopt_lock);
      for (const auto& rec : s.window) {
        if (rec->state == ActionRecord::State::done || rec->claimed) {
          continue;
        }
        rec->claimed = true;
        rec->cancelled = true;
        if (rec->state == ActionRecord::State::pending) {
          // Block the successor-unblocking path from dispatching it.
          rec->state = ActionRecord::State::dispatched;
        }
        count(Counter::actions_failed);
        victims.push_back(rec);
      }
    }
  }
  log_error("domain %u declared lost; %zu in-flight actions failed", id.value,
            victims.size());
  for (auto& victim : victims) {
    finish_action(std::move(victim));
  }
}

Status Runtime::evacuate(BufferId id, DomainId from, DomainId to,
                         bool discard_dirty) {
  try {
    std::size_t size = 0;
    bool have_from = false;
    bool from_alive = false;
    std::vector<std::pair<std::size_t, std::size_t>> dirty;
    {
      std::shared_lock buffers(buffers_mutex_);
      require(from.value < domains_.size() && to.value < domains_.size(),
              "unknown domain", Errc::not_found);
      require(from != to, "evacuate needs distinct source and target");
      require_domain_alive(to);
      Buffer& buf = buffers_.get(id);
      size = buf.size();
      have_from = from != kHostDomain && buf.instantiated_in(from);
      from_alive = domains_[from.value].alive();
      if (have_from) {
        dirty = buf.dirty_ranges(from);
      }
    }
    // Let executor threads finish any claimed-failed bodies that may
    // still touch incarnation storage before we move/drop it.
    executor_->quiesce();
    if (!dirty.empty()) {
      if (!from_alive && !discard_dirty) {
        // The device held the only current copy of these ranges and died
        // with them. Refusing (rather than silently refreshing the
        // target from the stale host copy) is the whole point: the
        // caller must either restore from its own checkpoint / re-execute
        // the producers (then pass discard_dirty) or accept the loss.
        std::size_t bytes = 0;
        for (const auto& [offset, length] : dirty) {
          bytes += length;
        }
        return Status::error(
            Errc::data_loss,
            "evacuate: " + std::to_string(bytes) + " dirty bytes of buffer " +
                std::to_string(id.value) + " had their only current copy on "
                "lost domain " + std::to_string(from.value));
      }
      if (from_alive) {
        // The source is alive and newer than the host over these ranges:
        // sync them home first, so the host copy we are about to treat
        // as authoritative actually is. Validity follows the copies
        // (as-if, in timing-only runs) so elision decisions stay
        // identical whether payloads execute or not.
        if (executor_->executes_payloads()) {
          for (const auto& [offset, length] : dirty) {
            std::byte* host = buffer_local(id, kHostDomain, offset, length);
            std::byte* src = buffer_local(id, from, offset, length);
            std::memcpy(host, src, length);
          }
        }
        std::shared_lock buffers(buffers_mutex_);
        Buffer& buf = buffers_.get(id);
        for (const auto& [offset, length] : dirty) {
          buf.note_transfer(from, kHostDomain, offset, length);
        }
      }
      std::shared_lock buffers(buffers_mutex_);
      buffers_.get(id).discard_dirty(from);
    }
    if (to != kHostDomain) {
      buffer_instantiate(id, to);  // no-op if already incarnated there
      if (executor_->executes_payloads()) {
        // The host incarnation is the authoritative copy on this
        // host-centric topology; refresh the target from it.
        std::byte* host = buffer_local(id, kHostDomain, 0, size);
        std::byte* sink = buffer_local(id, to, 0, size);
        std::memcpy(sink, host, size);
      }
      std::shared_lock buffers(buffers_mutex_);
      buffers_.get(id).note_transfer(kHostDomain, to, 0, size);
    }
    if (have_from) {
      buffer_deinstantiate(id, from);
    }
    return Status::ok();
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  }
}

// --- Buffers ---------------------------------------------------------------

BufferId Runtime::buffer_create(void* base, std::size_t size,
                                BufferProps props) {
  const std::unique_lock buffers(buffers_mutex_);
  return buffers_.create(base, size, props);
}

void Runtime::buffer_instantiate(BufferId id, DomainId domain) {
  require(domain.value < domains_.size(), "unknown domain", Errc::not_found);
  MemKind kind;
  std::size_t size = 0;
  bool resident = false;
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.get(id);
    resident = domain == kHostDomain || buf.instantiated_in(domain);
    kind = buf.props().mem_kind;
    size = buf.size();
  }
  if (resident) {
    // Host incarnation aliases user memory; re-instantiation is a
    // recency touch for the governor's LRU. The buffers lock is dropped
    // first (gov_mu_ sits above it); touch ignores an incarnation
    // evicted in between.
    if (domain != kHostDomain) {
      const std::scoped_lock gov(gov_mu_);
      governor_.touch(domain, id);
    }
    return;
  }
  // Admission and instantiation must be one governor critical section:
  // otherwise a racing eviction could victimize the fresh (pins == 0)
  // ledger entry before the incarnation exists, leaking the charge.
  const std::scoped_lock gov(gov_mu_);
  govern_admit_locked(id, domain, kind, size, /*pins=*/0, nullptr);
  try {
    std::shared_lock buffers(buffers_mutex_);
    buffers_.get(id).instantiate(domain);
  } catch (...) {
    governor_.release(domain, id);
    throw;
  }
}

void Runtime::buffer_deinstantiate(BufferId id, DomainId domain,
                                   bool discard_dirty) {
  {
    const std::scoped_lock gov(gov_mu_);
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.get(id);
    if (!buf.instantiated_in(domain)) {
      if (domain != kHostDomain && buf.spilled_from(domain)) {
        // The governor already dropped the incarnation (dirty ranges went
        // home at eviction); deinstantiation just withdraws its demand
        // re-fetch eligibility.
        buf.clear_spilled(domain);
        return;
      }
      require(false, "buffer not instantiated there", Errc::not_found);
    }
    if (domain != kHostDomain && !discard_dirty) {
      const auto dirty = buf.dirty_ranges(domain);
      if (!dirty.empty()) {
        std::size_t bytes = 0;
        for (const auto& [offset, length] : dirty) {
          bytes += length;
        }
        // Mirror of evacuate's contract: dropping device-newer ranges must
        // be explicit. Callers sync_home first or pass discard_dirty.
        throw Error(
            Errc::data_loss,
            "buffer_deinstantiate: " + std::to_string(bytes) +
                " dirty bytes of buffer " + std::to_string(id.value) +
                " exist only on domain " + std::to_string(domain.value) +
                "; sync_home first or pass discard_dirty");
      }
    }
    buf.deinstantiate(domain);
    governor_.release(domain, id);
  }
  // The refund may be the capacity a backpressured dispatch is waiting on.
  retry_deferred();
}

std::pair<void*, std::size_t> Runtime::buffer_extent(const void* proxy) {
  std::shared_lock buffers(buffers_mutex_);
  Buffer& buf = buffers_.find_containing(proxy, 1);
  return {buf.proxy_base(), buf.size()};
}

void Runtime::buffer_destroy_containing(const void* proxy) {
  BufferId id;
  {
    std::shared_lock buffers(buffers_mutex_);
    id = buffers_.find_containing(proxy, 1).id();
  }
  buffer_destroy(id);
}

std::size_t Runtime::memory_available(DomainId domain, MemKind kind) const {
  require(domain.value < domains_.size(), "unknown domain", Errc::not_found);
  const auto& budgets = domains_[domain.value].desc().memory_bytes;
  const auto it = budgets.find(kind);
  if (it == budgets.end()) {
    return 0;
  }
  const std::scoped_lock gov(gov_mu_);
  return it->second - governor_.used(domain, kind);
}

void Runtime::buffer_destroy(BufferId id) {
  {
    // gov_mu_ before the exclusive buffers lock (the governor's eviction
    // path holds gov_mu_ while taking buffers_mutex_ shared).
    const std::scoped_lock gov(gov_mu_);
    const std::unique_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.get(id);
    // Refund every device incarnation's budget.
    for (std::size_t d = 1; d < domains_.size(); ++d) {
      const DomainId domain{static_cast<std::uint32_t>(d)};
      if (buf.instantiated_in(domain)) {
        governor_.release(domain, id);
      }
    }
    buffers_.destroy(id);
  }
  // The refund may be the capacity a backpressured dispatch is waiting on.
  retry_deferred();
}

// --- Out-of-core memory governor -------------------------------------------

namespace {

/// The (domain, kind) budget; throws when the domain has no such memory.
std::size_t budget_of(const Domain& domain, MemKind kind) {
  const auto& budgets = domain.desc().memory_bytes;
  const auto it = budgets.find(kind);
  require(it != budgets.end(), "domain has no memory of the requested kind",
          Errc::resource_exhausted);
  return it->second;
}

}  // namespace

void Runtime::govern_admit_locked(BufferId id, DomainId domain, MemKind kind,
                                  std::size_t bytes, std::uint32_t pins,
                                  double* stall_s) {
  if (governor_.resident(domain, id)) {
    governor_.touch(domain, id);
    return;
  }
  const std::size_t budget = budget_of(domains_[domain.value], kind);
  // A buffer that exceeds the entire budget can never be made to fit, no
  // matter how much is evicted.
  require(bytes <= budget,
          "buffer larger than the domain's entire memory budget",
          Errc::resource_exhausted);
  while (governor_.used(domain, kind) + bytes > budget) {
    require(config_.eviction, "domain memory budget exhausted",
            Errc::resource_exhausted);
    const double stall = evict_one_locked(domain, kind);
    if (stall_s != nullptr) {
      *stall_s += stall;
    }
  }
  governor_.admit(domain, id, kind, bytes, pins);
}

double Runtime::evict_one_locked(DomainId domain, MemKind kind) {
  const std::optional<BufferId> victim = governor_.pick_victim(domain, kind);
  require(victim.has_value(),
          "domain memory budget exhausted and every resident buffer is "
          "pinned by in-flight actions",
          Errc::resource_exhausted);
  const std::size_t victim_bytes = governor_.bytes_of(domain, *victim);
  std::size_t written = 0;
  std::size_t dropped = 0;
  double stall_s = 0.0;
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer* buf = nullptr;
    try {
      buf = &buffers_.get(*victim);
    } catch (const Error&) {
      buf = nullptr;  // destroyed with a stale ledger entry; just refund
    }
    if (buf != nullptr) {
      // Validity-map-minimized spill: only device-newer (dirty) ranges
      // cost a writeback; everything else the host already has, so the
      // incarnation drops free. No executor quiesce here — the victim is
      // unpinned, so no in-flight body targets it, and a claimed-failed
      // straggler writes into owned storage that lingers until buffer
      // destruction (and whose validity is already garbage).
      const auto dirty = buf->dirty_ranges(domain);
      for (const auto& [offset, length] : dirty) {
        if (executor_->executes_payloads()) {
          std::byte* host = buf->local_address(kHostDomain, offset);
          std::byte* src = buf->local_address(domain, offset);
          std::memcpy(host, src, length);
        }
        written += length;
        stall_s += link_for(domain).transfer_seconds(length);
      }
      for (const auto& [offset, length] : dirty) {
        buf->note_transfer(domain, kHostDomain, offset, length);
      }
      for (const auto& [offset, length] : buf->valid_ranges(domain)) {
        dropped += length;
      }
      dropped -= written > dropped ? dropped : written;
      buf->spill(domain);
    }
  }
  governor_.release(domain, *victim);
  count(Counter::evictions);
  count(Counter::spill_bytes_written, written);
  count(Counter::spill_bytes_dropped_clean, dropped);
  log_debug("evicted buffer %u from domain %u (%zu dirty bytes home, %zu "
            "clean bytes dropped)",
            victim->value, domain.value, written, dropped);
  if (trace_ != nullptr) {
    trace_->on_ooc("evict", *victim, domain, written, executor_->now());
  }
  if (AdmissionHook* hook = admission_hook_.load(std::memory_order_acquire)) {
    hook->on_evict(*victim, domain, victim_bytes);
  }
  return stall_s;
}

bool Runtime::release_pins(const std::shared_ptr<ActionRecord>& record) {
  // Under gov_mu_ even when empty: a dispatch racing this claim (domain
  // loss completes dispatched actions) may still be pinning, and must see
  // the list closed rather than append a pin nobody will drop.
  const std::scoped_lock gov(gov_mu_);
  record->pins_released = true;
  const bool wake = record->wake_owed || !record->pins.empty();
  for (const auto& [buffer, domain] : record->pins) {
    governor_.unpin(domain, buffer);
  }
  record->pins.clear();
  return wake;
}

void Runtime::retry_deferred() {
  std::vector<std::shared_ptr<ActionRecord>> woken;
  {
    const std::scoped_lock gov(gov_mu_);
    if (ooc_deferred_.empty()) {
      return;
    }
    // Bytes promised to the entries already woken in this pass, per
    // (domain, kind): a pass wakes only what fits together. A woken
    // action that neither pins nor parks again leaves its promise
    // unused, so its completion owes another pass (wake_owed).
    struct Reserved {
      DomainId domain;
      MemKind kind;
      std::size_t bytes = 0;
    };
    std::vector<Reserved> reserved;
    auto kept = ooc_deferred_.begin();
    for (ParkedDispatch& entry : ooc_deferred_) {
      if (entry.record->pins_released) {
        continue;  // claimed (cancelled, domain lost) while parked
      }
      auto r = std::find_if(reserved.begin(), reserved.end(),
                            [&](const Reserved& x) {
                              return x.domain == entry.domain &&
                                     x.kind == entry.kind;
                            });
      if (r == reserved.end()) {
        r = reserved.insert(r, Reserved{entry.domain, entry.kind});
      }
      if (governor_.pinned(entry.domain, entry.kind) + r->bytes + entry.need <=
          budget_of(domains_[entry.domain.value], entry.kind)) {
        r->bytes += entry.need;
        entry.record->wake_owed = true;
        woken.push_back(std::move(entry.record));
        continue;
      }
      if (&*kept != &entry) {
        *kept = std::move(entry);
      }
      ++kept;
    }
    ooc_deferred_.erase(kept, ooc_deferred_.end());
  }
  for (const auto& record : woken) {
    // An action cancelled (or failed by domain loss) while parked is
    // completed by its claimant, whose release_pins runs the pass this
    // wakeup owes; re-dispatching it would run a body whose completion
    // nobody owns.
    bool stale;
    {
      const std::scoped_lock lock(stream_state(record->stream).mu);
      stale = record->claimed || record->state == ActionRecord::State::done;
    }
    if (stale) {
      continue;
    }
    // Re-runs the exact residency decision: it admits (dispatches),
    // parks again behind pins taken since, or fails the action.
    dispatch(record);
  }
}

bool Runtime::prepare_residency(const std::shared_ptr<ActionRecord>& record) {
  // Residency targets: every incarnation this action's effects touch.
  struct Target {
    BufferId buffer;
    DomainId domain;
    std::size_t offset = 0;
    std::size_t length = 0;
    bool reads = false;  ///< restore host-valid ranges before executing
    // Filled in by the residency decision.
    bool live = false;      ///< a device incarnation of a live buffer
    bool first = false;     ///< first mention of (buffer, domain)
    bool resident = false;  ///< resident when the decision ran
    bool admitted = false;  ///< (re-)admitted by this dispatch
    std::uint8_t slot = 0;  ///< its (domain, kind) budget in `slots`
    std::size_t size = 0;
  };
  // An action has a handful of targets; keep them off the heap, since
  // every device action dispatches through here, in-core ones included.
  std::array<std::byte, 1024> arena;
  std::pmr::monotonic_buffer_resource arena_resource(arena.data(),
                                                     arena.size());
  std::pmr::vector<Target> targets(&arena_resource);
  const DomainId sink = stream_state(record->stream).domain;
  switch (record->type) {
    case ActionType::compute:
      if (sink == kHostDomain) {
        return true;  // host operands alias user memory, never governed
      }
      targets.reserve(record->operands.size());
      for (const Operand& op : record->operands) {
        const bool reads =
            op.access == Access::in || op.access == Access::inout;
        targets.push_back({op.buffer, sink, op.offset, op.length, reads});
      }
      break;
    case ActionType::transfer: {
      if (sink == kHostDomain) {
        return true;  // aliased away at enqueue
      }
      const TransferPayload& t = record->transfer;
      // d2h reads the sink incarnation; h2d and d2d write it. A d2d
      // additionally reads the peer incarnation over the same range.
      const bool sink_reads =
          t.peer == kHostDomain && t.dir == XferDir::sink_to_src;
      targets.reserve(2);
      targets.push_back({t.buffer, sink, t.offset, t.length, sink_reads});
      if (t.peer != kHostDomain) {
        targets.push_back({t.buffer, t.peer, t.offset, t.length, true});
      }
      break;
    }
    case ActionType::alloc:
      // The incarnation must exist (re-admitting it if evicted since
      // enqueue); nothing is read.
      targets.push_back({record->transfer.buffer, sink, 0, 0, false});
      break;
    case ActionType::event_wait:
    case ActionType::event_signal:
      return true;  // no incarnation storage touched
  }

  // The residency decision, all or nothing, in one governor section.
  // Each (domain, kind) the action draws on must fit its unpinned
  // operand bytes (`need`) beside the bytes in-flight actions pin: every
  // other resident can then be evicted. If some kind does not fit, the
  // action parks without evicting or pinning anything; since the fit
  // test and the park share this section, a concurrent release either
  // happened before the test or runs its retry pass after the park, so
  // no wakeup is lost.
  struct Slot {
    DomainId domain;
    MemKind kind = MemKind::ddr;
    std::size_t total = 0;   ///< distinct operand bytes
    std::size_t need = 0;    ///< ... not pinned by any in-flight action
    std::size_t absent = 0;  ///< ... not resident
    BufferId absent_buffer;  ///< an absent one, for the defer trace event
  };
  std::pmr::vector<Slot> slots(&arena_resource);
  slots.reserve(targets.size());
  std::optional<ParkedDispatch> park;
  BufferId park_buffer;
  {
    const std::scoped_lock gov(gov_mu_);
    if (record->pins_released) {
      return true;  // claimed (domain loss) while this dispatch ran
    }
    std::size_t distinct = 0;
    for (auto t = targets.begin(); t != targets.end(); ++t) {
      if (t->domain == kHostDomain) {
        continue;
      }
      const auto first = std::find_if(targets.begin(), t, [&](const Target& o) {
        return o.buffer == t->buffer && o.domain == t->domain;
      });
      if (first != t) {
        t->live = first->live;
        continue;
      }
      MemKind kind = MemKind::ddr;
      bool pinned = false;
      if (const MemoryGovernor::Resident* r =
              governor_.find(t->domain, t->buffer)) {
        t->resident = true;
        pinned = r->pins > 0;
        kind = r->kind;
        t->size = r->bytes;
      } else {
        std::shared_lock buffers(buffers_mutex_);
        try {
          const Buffer& buf = buffers_.get(t->buffer);
          kind = buf.props().mem_kind;
          t->size = buf.size();
        } catch (const Error&) {
          continue;  // destroyed while queued; the executor's path copes
        }
      }
      auto s = std::find_if(slots.begin(), slots.end(), [&](const Slot& x) {
        return x.domain == t->domain && x.kind == kind;
      });
      if (s == slots.end()) {
        s = slots.insert(s, Slot{t->domain, kind});
      }
      s->total += t->size;
      s->need += pinned ? 0 : t->size;
      if (!t->resident) {
        if (s->absent == 0) {
          s->absent_buffer = t->buffer;
        }
        s->absent += t->size;
      }
      t->slot = static_cast<std::uint8_t>(s - slots.begin());
      t->live = true;
      t->first = true;
      ++distinct;
    }
    for (const Slot& s : slots) {
      // A kind with nothing absent passes every test: its resident
      // operands are already charged and pinned-or-evictable.
      const std::size_t budget = budget_of(domains_[s.domain.value], s.kind);
      // Waiting cannot help an action whose own operands never fit.
      require(s.total <= budget,
              "an action's operands exceed the domain's entire memory budget",
              Errc::resource_exhausted);
      require(config_.eviction ||
                  governor_.used(s.domain, s.kind) + s.absent <= budget,
              "domain memory budget exhausted", Errc::resource_exhausted);
      if (!park && governor_.pinned(s.domain, s.kind) + s.need > budget) {
        park = ParkedDispatch{record, s.domain, s.kind, s.need};
        park_buffer = s.absent_buffer;
      }
    }
    if (park) {
      ooc_deferred_.push_back(*park);
      record->wake_owed = false;
      count(Counter::dispatch_parks);
    } else {
      record->pins.reserve(record->pins.size() + distinct);
      // Pin the resident operands first, so the evictions that admit the
      // rest can never pick one of them.
      for (const Target& t : targets) {
        if (t.first && t.resident) {
          governor_.pin(t.domain, t.buffer);
          record->pins.emplace_back(t.buffer, t.domain);
        }
      }
      for (Target& t : targets) {
        if (t.first && !t.resident) {
          // Spilled (or dropped) since enqueue: re-admit with a pin so a
          // concurrent dispatch's eviction cannot victimize it before
          // this action completes.
          govern_admit_locked(t.buffer, t.domain, slots[t.slot].kind, t.size,
                              /*pins=*/1, &record->ooc_stall_s);
          record->pins.emplace_back(t.buffer, t.domain);
          t.admitted = true;
          std::shared_lock buffers(buffers_mutex_);
          buffers_.get(t.buffer).instantiate(t.domain);
        }
      }
      // Pins taken up a wake pass's promise; their release runs the next.
      record->wake_owed = record->wake_owed && record->pins.empty();
    }
  }
  if (park) {
    log_debug("parked action %u (needs %zu bytes on domain %u)",
              record->id.value, park->need, park->domain.value);
    if (trace_ != nullptr) {
      trace_->on_ooc("defer", park_buffer, park->domain, park->need,
                     executor_->now());
    }
    return false;
  }

  // Announce every re-admission before any demand-paging copy, so a veto
  // unwinds them before this action has paged anything into them.
  AdmissionHook* hook = admission_hook_.load(std::memory_order_acquire);
  for (auto t = targets.begin(); t != targets.end(); ++t) {
    if (!t->admitted) {
      continue;
    }
    if (hook != nullptr) {
      try {
        hook->on_refetch(t->buffer, t->domain, t->size);
      } catch (...) {
        // Vetoed (e.g. residency quota): the hook charged neither this
        // admission nor the later ones, so take them back out. One that
        // another in-flight action has pinned since this section ended
        // stays resident for that action; only this action's pin goes.
        const std::scoped_lock gov(gov_mu_);
        std::shared_lock buffers(buffers_mutex_);
        // release_pins has already dropped a claimed action's pins.
        const std::uint32_t own = record->pins_released ? 0 : 1;
        // Bytes dropped here may be what a parked action waits for.
        record->wake_owed = true;
        for (auto u = t; u != targets.end(); ++u) {
          if (!u->admitted) {
            continue;
          }
          if (own == 1) {
            std::erase(record->pins, std::pair{u->buffer, u->domain});
          }
          const MemoryGovernor::Resident* r =
              governor_.find(u->domain, u->buffer);
          if (r != nullptr && r->pins > own) {
            if (own == 1) {
              governor_.unpin(u->domain, u->buffer);
            }
            continue;
          }
          try {
            buffers_.get(u->buffer).spill(u->domain);
          } catch (const Error&) {
          }
          governor_.release(u->domain, u->buffer);
        }
        throw;
      }
    }
    count(Counter::refetches);
  }

  for (const Target& t : targets) {
    if (!t.live) {
      continue;
    }
    // Demand re-fetch: restore the ranges this action reads that the
    // host has and the incarnation does not. Ranges the action only
    // writes stay invalid — and a d2h over a restored range now
    // legitimately elides (both endpoints valid), so the "download"
    // degenerates to the upload we just performed instead of copying
    // garbage over good host data.
    //
    // This runs even when the incarnation was already resident, if it
    // was ever rebuilt after a spill: a write-only action (e.g. a beta=0
    // gemm) re-admits a spilled buffer restoring nothing, leaving a
    // resident incarnation that is invalid over everything it didn't
    // write — the next reader must pull its ranges back from the host
    // copy the eviction synced them to. Never-spilled incarnations skip
    // this (reading a range the app never uploaded keeps pre-governor
    // semantics and costs no virtual stall time).
    bool paged = t.admitted;
    if (!paged && t.reads && t.length > 0) {
      std::shared_lock buffers(buffers_mutex_);
      paged = buffers_.get(t.buffer).demand_paged(t.domain);
    }
    std::size_t restored = 0;
    if (paged && t.reads && t.length > 0) {
      std::vector<std::pair<std::size_t, std::size_t>> need;
      {
        std::shared_lock buffers(buffers_mutex_);
        need = buffers_.get(t.buffer)
                   .refetch_ranges(t.domain, t.offset, t.length);
      }
      for (const auto& [offset, length] : need) {
        if (executor_->executes_payloads()) {
          std::byte* dst = buffer_local(t.buffer, t.domain, offset, length);
          std::byte* src = buffer_local(t.buffer, kHostDomain, offset, length);
          std::memcpy(dst, src, length);
        }
        {
          std::shared_lock buffers(buffers_mutex_);
          buffers_.get(t.buffer)
              .note_transfer(kHostDomain, t.domain, offset, length);
        }
        record->ooc_stall_s += link_for(t.domain).transfer_seconds(length);
        restored += length;
      }
    }
    if (t.admitted || restored > 0) {
      log_debug("refetched buffer %u into domain %u (%zu bytes restored)",
                t.buffer.value, t.domain.value, restored);
      if (trace_ != nullptr) {
        trace_->on_ooc("refetch", t.buffer, t.domain, restored,
                       executor_->now());
      }
    }
  }
  return true;
}

std::size_t Runtime::buffer_count() const {
  std::shared_lock buffers(buffers_mutex_);
  return buffers_.count();
}

void* Runtime::translate(const void* proxy, std::size_t len, DomainId domain) {
  std::shared_lock buffers(buffers_mutex_);
  Buffer& buf = buffers_.find_containing(proxy, len);
  return buf.local_address(domain, buf.offset_of(proxy));
}

std::byte* Runtime::buffer_local(BufferId id, DomainId domain,
                                 std::size_t offset, std::size_t len) {
  std::shared_lock buffers(buffers_mutex_);
  Buffer& buf = buffers_.get(id);
  require(offset + len <= buf.size(), "range escapes buffer",
          Errc::out_of_range);
  return buf.local_address(domain, offset);
}

const LinkModel& Runtime::link_for(DomainId domain) const {
  if (domain == kHostDomain) {
    return topology_.loopback();
  }
  return topology_.link_to_device(domain.value - 1);
}

double Runtime::account_transfer_staging(std::size_t bytes) {
  const std::scoped_lock lock(pool_mutex_);
  const std::size_t block = pool_.block_size();
  const std::size_t blocks = (bytes + block - 1) / block;
  const double before = pool_.stats().modeled_alloc_seconds;
  // Transfers use staging blocks transiently: acquire for the duration of
  // the copy, release after. Steady state with the pool enabled is all
  // hits; with the pool disabled every staging block pays the modeled
  // allocation cost (the §III OmpSs-without-pool configuration).
  std::vector<PoolBlock> held;
  held.reserve(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    held.push_back(pool_.acquire(block));
  }
  for (auto& b : held) {
    pool_.release(std::move(b));
  }
  return pool_.stats().modeled_alloc_seconds - before;
}

// --- Streams ---------------------------------------------------------------

StreamId Runtime::stream_create(DomainId domain, const CpuMask& mask,
                                std::optional<OrderPolicy> policy) {
  require(domain.value < domains_.size(), "unknown domain", Errc::not_found);
  require_domain_alive(domain);
  require(!mask.empty(), "stream mask must be non-empty");
  const auto cpus = mask.cpus();
  require(cpus.back() < domains_[domain.value].hw_threads(),
          "stream mask exceeds domain hardware threads");
  const std::unique_lock streams(streams_mutex_);
  const StreamId id{static_cast<std::uint32_t>(streams_.size())};
  auto state = std::make_unique<StreamState>();
  state->id = id;
  state->domain = domain;
  state->mask = mask;
  state->policy = policy.value_or(config_.policy);
  streams_.push_back(std::move(state));
  log_debug("stream %u created on domain %u mask %s", id.value, domain.value,
            mask.to_string().c_str());
  return id;
}

void Runtime::stream_destroy(StreamId id) {
  StreamState& s = stream_state(id);
  const std::scoped_lock lock(s.mu);
  require(s.window.empty(), "stream_destroy on a busy stream");
  s.alive.store(false, std::memory_order_release);
}

std::size_t Runtime::stream_cancel(StreamId id) {
  std::vector<std::shared_ptr<ActionRecord>> victims;
  {
    StreamState& s = stream_state(id);
    lock_counted(s.mu);
    const std::lock_guard<std::mutex> lock(s.mu, std::adopt_lock);
    for (const auto& rec : s.window) {
      if (rec->state == ActionRecord::State::done || rec->claimed) {
        continue;
      }
      const bool undispatched = rec->state == ActionRecord::State::pending;
      // A dispatched event wait holds no thread and has no effects; it is
      // safe to cancel — this is what unwedges a stream parked on an
      // event that will never fire. Dispatched computes/transfers have
      // effects in flight and are left to finish.
      const bool parked_wait =
          rec->state == ActionRecord::State::dispatched &&
          rec->type == ActionType::event_wait;
      if (!undispatched && !parked_wait) {
        continue;
      }
      rec->claimed = true;
      rec->cancelled = true;
      if (undispatched) {
        rec->state = ActionRecord::State::dispatched;
      }
      count(Counter::actions_cancelled);
      victims.push_back(rec);
    }
  }
  const std::size_t count = victims.size();
  for (auto& victim : victims) {
    finish_action(std::move(victim));
  }
  return count;
}

std::size_t Runtime::stream_count() const {
  std::shared_lock streams(streams_mutex_);
  return static_cast<std::size_t>(
      std::count_if(streams_.begin(), streams_.end(), [](const auto& s) {
        return s->alive.load(std::memory_order_acquire);
      }));
}

DomainId Runtime::stream_domain(StreamId id) const {
  return stream_state(id).domain;
}

OrderPolicy Runtime::stream_policy(StreamId id) const {
  return stream_state(id).policy;
}

std::size_t Runtime::buffer_size(BufferId id) const {
  std::shared_lock buffers(buffers_mutex_);
  return buffers_.get(id).size();
}

CpuMask Runtime::stream_mask(StreamId id) const {
  return stream_state(id).mask;
}

Runtime::StreamState& Runtime::stream_state_unlocked(StreamId id) {
  require(id.value < streams_.size() &&
              streams_[id.value]->alive.load(std::memory_order_acquire),
          "unknown stream", Errc::not_found);
  return *streams_[id.value];
}

const Runtime::StreamState& Runtime::stream_state_unlocked(
    StreamId id) const {
  require(id.value < streams_.size() &&
              streams_[id.value]->alive.load(std::memory_order_acquire),
          "unknown stream", Errc::not_found);
  return *streams_[id.value];
}

Runtime::StreamState& Runtime::stream_state(StreamId id) {
  std::shared_lock streams(streams_mutex_);
  return stream_state_unlocked(id);
}

const Runtime::StreamState& Runtime::stream_state(StreamId id) const {
  std::shared_lock streams(streams_mutex_);
  return stream_state_unlocked(id);
}

// --- Enqueue ---------------------------------------------------------------
//
// Enqueue front-ends no longer take a runtime-wide lock: stream lookup is
// a shared read, domain liveness is an atomic, operand resolution takes
// the buffer table's shared lock, and admission serializes only on the
// target stream's own mutex. Enqueues on different streams run fully in
// parallel.

std::shared_ptr<EventState> Runtime::enqueue_compute(
    StreamId stream, ComputePayload payload,
    std::span<const OperandRef> operands) {
  require(payload.body != nullptr, "compute task needs a body");
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::compute;
  record->compute = std::move(payload);

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  // Under capture the instantiation check is deferred to replay: a
  // captured alloc node earlier in the graph legalizes this use, and
  // GraphExec instantiates before admitting the launch.
  CaptureSink* sink = capture_.load(std::memory_order_acquire);
  const bool capturing = sink != nullptr && sink->captures(stream);
  record->stream = stream;
  {
    std::shared_lock buffers(buffers_mutex_);
    for (const OperandRef& ref : operands) {
      Operand op = buffers_.resolve(ref.ptr, ref.len, ref.access);
      const Buffer& buf = buffers_.get(op.buffer);
      // A governor-spilled incarnation still passes: dispatch re-admits
      // and re-uploads it on demand (prepare_residency). usable_in reads
      // both states under one lock so a concurrent eviction can't be
      // observed mid-transition.
      require(capturing || buf.usable_in(s.domain),
              "compute operand buffer not instantiated in sink domain",
              Errc::buffer_not_instantiated);
      // Enforce the creator's declared usage property (§II: buffers let
      // users "declare usage properties, such as whether it's read only").
      require(!buf.props().read_only || !writes(op.access),
              "write operand on a read-only buffer");
      record->operands.push_back(op);
    }
  }
  if (capturing) {
    return sink->record(std::move(record));
  }
  return admit(s, std::move(record));
}

std::shared_ptr<EventState> Runtime::enqueue_transfer(StreamId stream,
                                                      const void* proxy,
                                                      std::size_t len,
                                                      XferDir dir) {
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::transfer;

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  record->stream = stream;
  // As in enqueue_compute, capture defers the instantiation check to
  // replay (a captured alloc node may precede this transfer).
  CaptureSink* sink = capture_.load(std::memory_order_acquire);
  const bool capturing = sink != nullptr && sink->captures(stream);
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.find_containing(proxy, len);
    if (s.domain != kHostDomain) {  // host-as-target transfers alias away
      require(capturing || buf.usable_in(s.domain),
              "transfer target buffer not instantiated in sink domain",
              Errc::buffer_not_instantiated);
    }
    record->transfer =
        TransferPayload{buf.id(), buf.offset_of(proxy), len, dir};
    // Direction-sensitive dependence encoding: a host->sink transfer writes
    // the sink incarnation (out); a sink->host transfer only reads it (in),
    // so it can overlap later sink-side readers of the same range — the
    // enabling property of the RTM halo pipeline (§V).
    record->operands.push_back(
        Operand{buf.id(), record->transfer.offset, len,
                dir == XferDir::src_to_sink ? Access::out : Access::in});
  }
  if (capturing) {
    return sink->record(std::move(record));
  }
  return admit(s, std::move(record));
}

std::shared_ptr<EventState> Runtime::enqueue_transfer_from(StreamId stream,
                                                           const void* proxy,
                                                           std::size_t len,
                                                           DomainId peer) {
  if (peer == kHostDomain) {
    return enqueue_transfer(stream, proxy, len, XferDir::src_to_sink);
  }
  require(peer.value < domains_.size(), "unknown peer domain",
          Errc::not_found);
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::transfer;

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  require(s.domain != kHostDomain,
          "device->device transfer needs a device sink stream "
          "(use enqueue_transfer for device->host)");
  require(peer != s.domain, "peer equals the sink domain");
  record->stream = stream;
  CaptureSink* sink = capture_.load(std::memory_order_acquire);
  const bool capturing = sink != nullptr && sink->captures(stream);
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.find_containing(proxy, len);
    require(capturing || buf.usable_in(s.domain),
            "transfer target buffer not instantiated in sink domain",
            Errc::buffer_not_instantiated);
    require(capturing || buf.usable_in(peer),
            "transfer source buffer not instantiated in peer domain",
            Errc::buffer_not_instantiated);
    record->transfer = TransferPayload{buf.id(), buf.offset_of(proxy), len,
                                       XferDir::src_to_sink, peer};
    // Writes the sink incarnation (and, through staging, the host).
    record->operands.push_back(
        Operand{buf.id(), record->transfer.offset, len, Access::out});
  }
  if (capturing) {
    return sink->record(std::move(record));
  }
  return admit(s, std::move(record));
}

std::shared_ptr<EventState> Runtime::enqueue_alloc(StreamId stream,
                                                   BufferId buffer) {
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::alloc;

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  require(s.domain != kHostDomain,
          "alloc targets a device (the host aliases user memory)");
  record->stream = stream;
  CaptureSink* sink = capture_.load(std::memory_order_acquire);
  const bool capturing = sink != nullptr && sink->captures(stream);
  {
    std::shared_lock buffers(buffers_mutex_);
    Buffer& buf = buffers_.get(buffer);
    require(!buf.instantiated_in(s.domain),
            "buffer already instantiated in sink domain",
            Errc::already_initialized);
    record->transfer =
        TransferPayload{buffer, 0, buf.size(), XferDir::src_to_sink};
    record->operands.push_back(Operand{buffer, 0, buf.size(), Access::out});
  }
  if (capturing) {
    // Budget charge and incarnation bookkeeping are deferred to replay
    // (GraphExec instantiates before admitting the launch).
    return sink->record(std::move(record));
  }
  // Charge budget and declare the incarnation now (enqueue time); the
  // executor pays the modeled allocation latency in stream order.
  buffer_instantiate(buffer, s.domain);
  return admit(s, std::move(record));
}

std::shared_ptr<EventState> Runtime::enqueue_event_wait(
    StreamId stream, std::shared_ptr<EventState> event,
    std::span<const OperandRef> operands) {
  require(event != nullptr, "event_wait needs an event");
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::event_wait;
  record->wait_event = std::move(event);

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  record->stream = stream;
  {
    std::shared_lock buffers(buffers_mutex_);
    for (const OperandRef& ref : operands) {
      record->operands.push_back(
          buffers_.resolve(ref.ptr, ref.len, ref.access));
    }
  }
  record->full_barrier = record->operands.empty();
  CaptureSink* sink = capture_.load(std::memory_order_acquire);
  if (sink != nullptr && sink->captures(stream)) {
    return sink->record(std::move(record));
  }
  return admit(s, std::move(record));
}

std::shared_ptr<EventState> Runtime::enqueue_signal(
    StreamId stream, std::span<const OperandRef> operands) {
  auto record = std::make_shared<ActionRecord>();
  record->type = ActionType::event_signal;

  StreamState& s = stream_state(stream);
  require_domain_alive(s.domain);
  record->stream = stream;
  {
    std::shared_lock buffers(buffers_mutex_);
    for (const OperandRef& ref : operands) {
      record->operands.push_back(
          buffers_.resolve(ref.ptr, ref.len, ref.access));
    }
  }
  record->full_barrier = record->operands.empty();
  CaptureSink* sink = capture_.load(std::memory_order_acquire);
  if (sink != nullptr && sink->captures(stream)) {
    return sink->record(std::move(record));
  }
  return admit(s, std::move(record));
}

// --- Scheduling ------------------------------------------------------------

std::vector<ActionId> Runtime::legacy_blockers(const StreamState& stream,
                                               const ActionRecord& record,
                                               std::size_t limit) const {
  // The pre-index pairwise scan, kept verbatim as the dep_oracle
  // reference. Window order == seq order == id order within a stream, so
  // the result is sorted by id.
  std::vector<ActionId> out;
  std::size_t steps = 0;
  const std::size_t n = std::min(limit, stream.window.size());
  for (std::size_t j = 0; j < n; ++j) {
    const auto& earlier = stream.window[j];
    ++steps;
    if (earlier->state == ActionRecord::State::done) {
      continue;
    }
    if (record.conflicts_with(*earlier)) {
      out.push_back(earlier->id);
    }
  }
  count(Counter::dep_scan_steps, steps);
  return out;
}

std::vector<ActionId> Runtime::indexed_blockers(const StreamState& stream,
                                                const ActionRecord& record,
                                                Residue residue) const {
  std::vector<ActionId> out;
  if (record.full_barrier) {
    // A barrier conflicts with everything: the window residue itself is
    // the blocker set; the index cannot beat a linear walk here.
    std::size_t steps = 0;
    const std::size_t n = std::min(residue.window, stream.window.size());
    for (std::size_t j = 0; j < n; ++j) {
      const auto& earlier = stream.window[j];
      ++steps;
      if (earlier->state != ActionRecord::State::done) {
        out.push_back(earlier->id);
      }
    }
    count(Counter::dep_scan_steps, steps);
  } else {
    std::vector<DepUse>& uses = stream.scratch_uses;  // guarded by stream.mu
    uses.clear();
    std::size_t steps = 0;
    for (const Operand& op : record.operands) {
      steps += stream.index.collect(op, uses);
    }
    // Live stream-wide barriers conflict with every later action but
    // carry no operands, so they ride alongside the byte-range index.
    for (const BarrierRef& barrier : stream.barriers) {
      ++steps;
      if (barrier.seq < residue.seq) {
        out.push_back(barrier.action);
      }
    }
    for (const DepUse& use : uses) {
      if (use.seq < residue.seq) {
        out.push_back(use.action);
      }
    }
    count(Counter::dep_scan_steps, steps);
    // One edge per conflicting predecessor no matter how many operand
    // pairs overlap — exactly the pairwise scan's semantics. Id order ==
    // admission order within a stream.
    if (out.size() > 1) {
      std::sort(out.begin(), out.end(),
                [](ActionId a, ActionId b) { return a.value < b.value; });
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    count(Counter::dep_index_hits, out.size());
  }
  if (config_.dep_oracle) {
    count(Counter::dep_oracle_checks);
    const std::vector<ActionId> reference =
        legacy_blockers(stream, record, residue.window);
    if (reference != out) {
      log_error("dep oracle mismatch on stream %u: index found %zu "
                "blockers, pairwise scan found %zu",
                stream.id.value, out.size(), reference.size());
      throw Error(Errc::internal, "dependence-index oracle mismatch");
    }
  }
  return out;
}

std::shared_ptr<EventState> Runtime::admit(
    StreamState& stream, std::shared_ptr<ActionRecord> record) {
  tag_and_gate(stream, *record);
  auto completion = record->completion;
  bool ready = false;
  {
    lock_counted(stream.mu);
    const std::lock_guard<std::mutex> lock(stream.mu, std::adopt_lock);
    ready = wire_locked(stream, record,
                        Residue{stream.window.size(), stream.next_seq});
  }
  // Fair-turn permit release: the admission is done (the record sits in
  // its window), so the gate can hand the turn to the next tenant before
  // this action dispatches or executes.
  release_turn(*record);
  if (ready) {
    dispatch(record);
  }
  return completion;
}

bool Runtime::wire_locked(StreamState& stream,
                          const std::shared_ptr<ActionRecord>& record,
                          Residue residue,
                          std::span<const PrelinkedAction> batch,
                          std::span<const std::uint32_t> batch_preds) {
  // The global atomic keeps ids in enqueue order across streams while
  // the per-stream lock keeps them monotone within each window.
  record->id =
      ActionId{next_action_id_.fetch_add(1, std::memory_order_relaxed)};
  record->seq = stream.next_seq++;
  if (record->type == ActionType::transfer && stream.domain != kHostDomain) {
    // Enqueue-order identity for fault decisions: assigned under the
    // stream lock, so it is the same on every backend and every run no
    // matter which copier thread later runs the attempt.
    record->transfer_seq = next_transfer_seq_[stream.domain.value].fetch_add(
        1, std::memory_order_relaxed);
  }

  DepState dep;
  dep.record = record;
  dep.stream = &stream;
  const auto block_on = [this, &dep](ActionId pred) {
    DepState* pd = dep_find(pred);
    require(pd != nullptr, "missing predecessor dep entry", Errc::internal);
    pd->successors.push_back(dep.record->id);
    ++dep.blockers;
  };
  if (stream.policy == OrderPolicy::strict_fifo) {
    // Strict FIFO forms a chain: block on the most recent incomplete
    // action only (completion order is FIFO under this policy).
    std::size_t steps = 0;
    for (auto it = stream.window.rbegin(); it != stream.window.rend();
         ++it) {
      ++steps;
      if ((*it)->state != ActionRecord::State::done) {
        block_on((*it)->id);
        break;
      }
    }
    count(Counter::dep_scan_steps, steps);
  } else {
    for (const ActionId pred : indexed_blockers(stream, *record, residue)) {
      block_on(pred);
    }
    // Captured in-batch preds were wired earlier in this launch and
    // cannot have completed: their stream locks are held for the whole
    // batch. Their seqs are >= the residue bound, so captured edges never
    // collide with residue edges.
    for (const std::uint32_t pred : batch_preds) {
      block_on(batch[pred].record->id);
    }
    if (!batch_preds.empty()) {
      count(Counter::deps_reused, batch_preds.size());
    }
  }
  stream.window.push_back(record);
  if (stream.policy != OrderPolicy::strict_fifo) {
    for (const Operand& op : record->operands) {
      stream.index.insert(op, record->id, record->seq);
    }
    if (record->full_barrier) {
      stream.barriers.push_back(BarrierRef{record->id, record->seq});
    }
  }
  const bool ready = dep.blockers == 0;
  if (ready) {
    record->state = ActionRecord::State::dispatched;
    if (record != stream.window.front()) {
      count(Counter::ooo_dispatches);
    }
  }
  {
    DepShard& shard = shard_for(record->id);
    lock_counted(shard.mu);
    const std::lock_guard<std::mutex> sl(shard.mu, std::adopt_lock);
    shard.map.emplace(record->id, std::move(dep));
  }

  CounterCells* tc = slice_of(stream);
  switch (record->type) {
    case ActionType::compute:
      count(Counter::computes_enqueued, 1, tc);
      break;
    case ActionType::transfer:
      count(Counter::transfers_enqueued, 1, tc);
      if (stream.domain == kHostDomain) {
        count(Counter::transfers_aliased_away);
      }
      break;
    default:
      count(Counter::syncs_enqueued, 1, tc);
      break;
  }

  if (trace_ != nullptr) {
    TraceRecorder::Record tr;
    tr.action = record->id;
    tr.stream = record->stream;
    tr.domain = stream.domain;
    tr.type = record->type;
    tr.graph = record->graph;
    tr.tenant = record->tenant;
    tr.session = record->session;
    if (record->type == ActionType::compute) {
      tr.label = record->compute.kernel;
      tr.flops = record->compute.flops;
    } else if (record->type == ActionType::transfer) {
      tr.label = record->transfer.peer != kHostDomain ? "xfer d2d"
                 : record->transfer.dir == XferDir::src_to_sink
                     ? "xfer h2d"
                     : "xfer d2h";
      tr.bytes = record->transfer.length;
    }
    tr.enqueue_s = executor_->now();
    trace_->on_enqueue(tr);
  }
  return ready;
}

// --- Task-graph capture & replay -------------------------------------------

void Runtime::set_capture(CaptureSink* sink) {
  const std::scoped_lock lock(mutex_);
  require(sink == nullptr || capture_.load(std::memory_order_relaxed) == nullptr,
          "a graph capture is already active", Errc::already_initialized);
  capture_.store(sink, std::memory_order_release);
}

std::uint32_t Runtime::note_graph_captured() {
  return next_graph_id_.fetch_add(1, std::memory_order_relaxed);
}

void Runtime::admit_prelinked(std::span<const PrelinkedAction> batch,
                              std::uint32_t graph_id) {
  // The batch's streams, each once. Every stream's domain is checked
  // before anything is gated or admitted, as the eager front-ends do: a
  // dead domain refuses the whole launch instead of stranding an admitted
  // prefix in its window.
  struct Lane {
    StreamState* stream = nullptr;
    Residue residue;
    std::size_t gated_bytes = 0;  ///< charged by this launch's records
  };
  std::vector<Lane> lanes;
  {
    std::shared_lock streams(streams_mutex_);
    for (const PrelinkedAction& entry : batch) {
      StreamState& s = stream_state_unlocked(entry.record->stream);
      if (std::none_of(lanes.begin(), lanes.end(),
                       [&s](const Lane& l) { return l.stream == &s; })) {
        require_domain_alive(s.domain);
        lanes.push_back(Lane{&s, {}});
      }
    }
  }
  const auto lane_of = [&lanes](StreamId id) -> Lane& {
    return *std::find_if(lanes.begin(), lanes.end(),
                         [id](const Lane& l) { return l.stream->id == id; });
  };
  // Service gating runs before any stream lock is taken: a tenant blocked
  // on its fair turn or a byte quota must hold nothing another tenant's
  // admission or a completion needs. One before_admit per record keeps
  // replayed work gate-equivalent to the eager enqueue path. The permit
  // is released per record, not held across the batch: one thread
  // admitting an N-record batch while permits < N would self-deadlock
  // waiting on its own earlier acquires. `gated` stays set so completion
  // still releases the byte budget. The bytes a tenant's earlier records
  // were charged are passed along: a blocking quota cannot wait for them,
  // since they drain only after the whole launch admits.
  std::size_t gated = 0;
  try {
    for (; gated < batch.size(); ++gated) {
      ActionRecord& record = *batch[gated].record;
      record.graph = graph_id;
      Lane& lane = lane_of(record.stream);
      const std::uint32_t tenant =
          lane.stream->tenant.load(std::memory_order_relaxed);
      std::size_t held = 0;
      for (const Lane& l : lanes) {
        if (l.stream->tenant.load(std::memory_order_relaxed) == tenant) {
          held += l.gated_bytes;
        }
      }
      tag_and_gate(*lane.stream, record, held);
      if (record.gated) {
        lane.gated_bytes += gate_bytes(record);
      }
      release_turn(record);
    }
  } catch (...) {
    // A refused record (quota_exceeded) refuses the whole launch. The
    // records gated before it will never complete, so settle their
    // charges here.
    for (std::size_t i = 0; i < gated; ++i) {
      settle_gate(*batch[i].record);
    }
    throw;
  }
  // Lock the batch's streams in ascending-id order (deadlock-free against
  // concurrent batches). Holding every involved stream lock for the whole
  // batch preserves the prelinked invariant: an in-batch pred cannot
  // complete while later entries are wired to it. Actions already in a
  // window are residue (typically eager uploads or a previous replay)
  // and still need a conflict scan; only edges among batch members are
  // pre-resolved.
  std::sort(lanes.begin(), lanes.end(), [](const Lane& a, const Lane& b) {
    return a.stream->id.value < b.stream->id.value;
  });
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(lanes.size());
  for (Lane& lane : lanes) {
    lock_counted(lane.stream->mu);
    locks.emplace_back(lane.stream->mu, std::adopt_lock);
    lane.residue = Residue{lane.stream->window.size(), lane.stream->next_seq};
  }
  std::vector<std::shared_ptr<ActionRecord>> ready;
  for (const PrelinkedAction& entry : batch) {
    const Lane& lane = lane_of(entry.record->stream);
    if (wire_locked(*lane.stream, entry.record, lane.residue, batch,
                    entry.preds)) {
      ready.push_back(entry.record);
    }
  }
  count(Counter::graph_replays);
  locks.clear();
  for (const auto& record : ready) {
    dispatch(record);
  }
}

void Runtime::dispatch(const std::shared_ptr<ActionRecord>& record) {
  log_debug("dispatch action %u (stream %u seq %llu type %d)",
            record->id.value, record->stream.value,
            static_cast<unsigned long long>(record->seq),
            static_cast<int>(record->type));
  count(Counter::dispatch_attempts);
  // Pin (and, where spilled, re-admit + re-upload) every incarnation the
  // action touches, before the elision decision — a refetch validates
  // exactly the ranges elision then tests. Failure (the operands can never
  // fit, quota veto) fails the action like a thrown task body.
  try {
    if (!prepare_residency(record)) {
      return;  // parked: retry_deferred re-dispatches it
    }
  } catch (...) {
    fail_action(record->id, std::current_exception());
    return;
  }
  if (try_elide(record)) {
    // Zero-cost completion through the normal path: the completion event
    // fires, the window/index retire, successors unblock — FIFO and
    // event semantics are exactly those of a real transfer. The executor
    // is never involved, and crucially transfer_attempt is never
    // consulted: fault decisions stay keyed to the transfers that
    // actually attempt the link, so a ScheduledFault aimed at this
    // transfer id is not consumed by a no-op.
    if (trace_ != nullptr) {
      trace_->on_dispatch(record->id, executor_->now());
      trace_->on_elide(record->id);
    }
    complete_action(record->id);
    return;
  }
  if (trace_ != nullptr) {
    trace_->on_dispatch(record->id, executor_->now());
  }
  executor_->execute(record,
                     [this, id = record->id] { complete_action(id); });
}

bool Runtime::try_elide(const std::shared_ptr<ActionRecord>& record) {
  if (!config_.coherence.elide || record->type != ActionType::transfer) {
    return false;
  }
  const StreamState& estream = stream_state(record->stream);
  const DomainId sink = estream.domain;
  if (sink == kHostDomain) {
    return false;  // host streams alias transfers away already
  }
  const TransferPayload& t = record->transfer;
  if (t.length == 0) {
    return false;
  }
  std::shared_lock buffers(buffers_mutex_);
  Buffer* buf = nullptr;
  try {
    buf = &buffers_.get(t.buffer);
  } catch (const Error&) {
    return false;  // destroyed while queued; let the executor's path cope
  }
  // Both endpoints valid over the range => byte-identical data. For a
  // device->device move the staging would also rewrite the host copy, so
  // the host must be valid too for the elision to be effect-free.
  if (!buf->valid_over(kHostDomain, t.offset, t.length) ||
      !buf->valid_over(sink, t.offset, t.length) ||
      (t.peer != kHostDomain &&
       !buf->valid_over(t.peer, t.offset, t.length))) {
    return false;
  }
  if (config_.coherence.oracle && executor_->executes_payloads()) {
    count(Counter::coherence_oracle_checks);
    const std::byte* host = buf->local_address(kHostDomain, t.offset);
    const std::byte* dev = buf->local_address(sink, t.offset);
    bool match = std::memcmp(host, dev, t.length) == 0;
    if (match && t.peer != kHostDomain) {
      const std::byte* peer = buf->local_address(t.peer, t.offset);
      match = std::memcmp(peer, dev, t.length) == 0;
    }
    if (!match) {
      log_error("coherence oracle: elision of action %u (buffer %u offset "
                "%zu len %zu) would have changed bytes",
                record->id.value, t.buffer.value, t.offset, t.length);
      throw Error(Errc::internal,
                  "transfer-elision oracle mismatch: "
                  "an incarnation marked valid holds different bytes — "
                  "likely an untracked host write (see "
                  "Runtime::note_host_write)");
    }
  }
  record->elided = true;
  const std::uint64_t moved =
      t.peer != kHostDomain ? 2 * t.length : t.length;
  CounterCells* tc = slice_of(estream);
  count(Counter::transfers_elided, 1, tc);
  count(Counter::bytes_elided, moved, tc);
  return true;
}

void Runtime::complete_action(ActionId id) {
  // Claim gate: an action can race between its executor `done` callback
  // and an early completion by stream_cancel/mark_domain_lost. Whoever
  // sets `claimed` first (under the action's stream lock) delivers the
  // completion; the loser becomes a no-op here.
  //
  // Lock order note: the shard lookup copies the record out and drops
  // the shard lock *before* taking the stream lock — a shard lock is
  // never held while acquiring a stream lock.
  std::shared_ptr<ActionRecord> record;
  {
    DepShard& shard = shard_for(id);
    lock_counted(shard.mu);
    const std::lock_guard<std::mutex> lock(shard.mu, std::adopt_lock);
    const auto it = shard.map.find(id);
    if (it == shard.map.end()) {
      return;
    }
    record = it->second.record;
  }
  {
    StreamState* stream = nullptr;
    {
      std::shared_lock streams(streams_mutex_);
      stream = streams_[record->stream.value].get();
    }
    lock_counted(stream->mu);
    const std::lock_guard<std::mutex> lock(stream->mu, std::adopt_lock);
    // claimed==false implies the dep entry still exists: erasure only
    // happens after a claim, under this same stream lock.
    if (record->claimed) {
      return;
    }
    record->claimed = true;
  }
  finish_action(std::move(record));
}

void Runtime::finish_action(std::shared_ptr<ActionRecord> record) {
  // MPSC completion queue: any thread may push; the first pusher becomes
  // the drainer and applies completions one at a time in push (FIFO)
  // order — a single unblocking pass, so successor wakeups stay
  // deterministic, and recursion through completion callbacks (which may
  // chain into another enqueue or another runtime) stays bounded: a
  // callback that re-enters finish_action while a drain is active just
  // enqueues and returns.
  {
    const std::scoped_lock lock(completion_mutex_);
    completion_queue_.push_back(std::move(record));
    if (completion_draining_) {
      return;
    }
    completion_draining_ = true;
  }
  for (;;) {
    std::shared_ptr<ActionRecord> next;
    {
      const std::scoped_lock lock(completion_mutex_);
      if (completion_queue_.empty()) {
        completion_draining_ = false;
        return;
      }
      next = std::move(completion_queue_.front());
      completion_queue_.pop_front();
    }
    process_completion(next);
  }
}

void Runtime::notify_waiters() {
  // The empty critical section is the fence against lost wakeups: a host
  // waiter evaluates its (self-locking) predicate while holding mutex_,
  // so we cannot complete-and-notify entirely between its predicate
  // check and its cv wait.
  { const std::scoped_lock lock(mutex_); }
  cv_.notify_all();
}

void Runtime::process_completion(const std::shared_ptr<ActionRecord>& record) {
  std::shared_ptr<EventState> completion;
  std::vector<std::shared_ptr<ActionRecord>> ready;
  const ActionId id = record->id;
  StreamState* stream_ptr = nullptr;
  {
    std::shared_lock streams(streams_mutex_);
    stream_ptr = streams_[record->stream.value].get();
  }
  StreamState& stream = *stream_ptr;
  {
    lock_counted(stream.mu);
    const std::lock_guard<std::mutex> lock(stream.mu, std::adopt_lock);
    DepState dep;
    {
      DepShard& shard = shard_for(id);
      lock_counted(shard.mu);
      const std::lock_guard<std::mutex> sl(shard.mu, std::adopt_lock);
      const auto it = shard.map.find(id);
      require(it != shard.map.end(), "completion of unknown action",
              Errc::internal);
      dep = std::move(it->second);
      shard.map.erase(it);
    }

    ActionRecord& rec = *record;
    rec.state = ActionRecord::State::done;
    completion = rec.completion;
    // Cancelled and failed actions were already counted when they were
    // claimed (stream_cancel / mark_domain_lost / fail_action); counting
    // them here again would break the completed+failed+cancelled ==
    // enqueued invariant the loss-stress tests pin down.
    CounterCells* tc = slice_of(stream);
    if (!rec.cancelled && !rec.failed) {
      count(Counter::actions_completed, 1, tc);
    }
    const DomainId completion_domain = stream.domain;
    if (rec.type == ActionType::transfer && !rec.cancelled && !rec.elided &&
        completion_domain != kHostDomain) {
      // A device->device move is two physical hops through the host.
      const std::uint64_t moved = rec.transfer.peer != kHostDomain
                                      ? 2 * rec.transfer.length
                                      : rec.transfer.length;
      count(Counter::bytes_transferred, moved, tc);
    }
    // Coherence bookkeeping (see Buffer): a compute that ran to
    // completion validates the ranges it wrote in its own domain and
    // invalidates every other incarnation there; a completed transfer
    // copies the source's validity onto the destination over the moved
    // range. Cancelled actions had no effects; a failed body's partial
    // effects are garbage and cost the writer its own validity. Elided
    // transfers moved nothing and change nothing (both ends were already
    // valid). Dirty ranges — the evacuate contract — derive from the
    // same intervals as valid(device) - valid(host).
    if (!rec.cancelled) {
      std::shared_lock buffers(buffers_mutex_);
      try {
        if (rec.type == ActionType::compute) {
          for (const Operand& op : rec.operands) {
            if (!writes(op.access)) {
              continue;
            }
            Buffer& buf = buffers_.get(op.buffer);
            if (rec.failed) {
              buf.note_write_garbage(completion_domain, op.offset,
                                     op.length);
            } else {
              buf.note_compute_write(completion_domain, op.offset,
                                     op.length);
            }
          }
        } else if (rec.type == ActionType::transfer && !rec.failed &&
                   !rec.elided && completion_domain != kHostDomain) {
          Buffer& buf = buffers_.get(rec.transfer.buffer);
          const std::size_t off = rec.transfer.offset;
          const std::size_t len = rec.transfer.length;
          if (rec.transfer.peer != kHostDomain) {
            // Two hops: peer -> host staging, then host -> sink.
            buf.note_transfer(rec.transfer.peer, kHostDomain, off, len);
            buf.note_transfer(kHostDomain, completion_domain, off, len);
          } else if (rec.transfer.dir == XferDir::src_to_sink) {
            buf.note_transfer(kHostDomain, completion_domain, off, len);
          } else {
            buf.note_transfer(completion_domain, kHostDomain, off, len);
          }
        }
      } catch (const Error&) {
        // The buffer was destroyed while this action drained; nothing
        // left to track.
      }
    }

    // Retire the action from the dependence index before unblocking
    // successors (they recompute nothing, but the invariant "the index
    // holds exactly the incomplete window" keeps later admissions exact).
    if (stream.policy != OrderPolicy::strict_fifo) {
      for (const Operand& op : rec.operands) {
        stream.index.erase(op, id);
      }
      if (rec.full_barrier) {
        std::erase_if(stream.barriers, [id](const BarrierRef& b) {
          return b.action == id;
        });
      }
    }

    auto& window = stream.window;
    while (!window.empty() &&
           window.front()->state == ActionRecord::State::done) {
      window.pop_front();
    }

    for (const ActionId succ_id : dep.successors) {
      // Successors are same-stream (dependences are intra-stream), so
      // this stream's lock covers their DepState fields and the entries
      // cannot be erased from under us.
      DepState* succ = dep_find(succ_id);
      if (succ == nullptr) {
        continue;
      }
      require(succ->blockers > 0, "dependence underflow", Errc::internal);
      if (--succ->blockers == 0 &&
          succ->record->state == ActionRecord::State::pending) {
        succ->record->state = ActionRecord::State::dispatched;
        if (!succ->stream->window.empty() &&
            succ->record != succ->stream->window.front()) {
          count(Counter::ooo_dispatches);
        }
        ready.push_back(succ->record);
      }
    }
  }
  if (trace_ != nullptr) {
    trace_->on_complete(id, executor_->now());
  }
  // Residency pins drop exactly once here — completion, cancellation,
  // failure, and elision all drain through this claim-gated path — so
  // the operands become eviction-eligible again. Freshly unpinned
  // victims are exactly what a backpressure-parked dispatch waits for,
  // so give the deferred queue first claim on the capacity.
  if (release_pins(record)) {
    retry_deferred();
  }
  // Release the admission gate outside every lock (the hook may take its
  // own mutex and wake enqueuers blocked in before_admit). Exactly once
  // per gated action — completion, cancellation, failure, and elision all
  // drain through here behind the claim gate.
  settle_gate(*record);
  // Fire the completion event *before* waking host waiters: a host
  // blocked in event_wait_host re-checks fired() on wakeup, so the event
  // must already be visible.
  for (auto& callback : completion->fire()) {
    callback();
  }
  notify_waiters();
  for (const auto& r : ready) {
    dispatch(r);
  }
}

// --- Host-side synchronization ----------------------------------------------

void Runtime::fail_action(ActionId id, std::exception_ptr error) {
  std::shared_ptr<ActionRecord> record;
  {
    DepShard& shard = shard_for(id);
    lock_counted(shard.mu);
    const std::lock_guard<std::mutex> lock(shard.mu, std::adopt_lock);
    const auto it = shard.map.find(id);
    if (it == shard.map.end()) {
      return;  // already failed by cancellation or domain loss
    }
    record = it->second.record;
  }
  {
    StreamState* stream = nullptr;
    {
      std::shared_lock streams(streams_mutex_);
      stream = streams_[record->stream.value].get();
    }
    lock_counted(stream->mu);
    const std::lock_guard<std::mutex> lock(stream->mu, std::adopt_lock);
    if (record->claimed) {
      return;
    }
    record->claimed = true;
    record->failed = true;
  }
  count(Counter::actions_failed);
  {
    const std::scoped_lock lock(mutex_);
    push_pending_error(std::move(error));
  }
  finish_action(std::move(record));
}

void Runtime::push_pending_error(std::exception_ptr error) {
  // Bounded so a fault storm between two sync points cannot grow the
  // queue without limit; one error per failure mode is plenty for
  // diagnosis and the counters hold the totals.
  constexpr std::size_t kMaxPendingErrors = 16;
  if (pending_errors_.size() >= kMaxPendingErrors) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      log_error("pending-error queue full; dropping: %s", e.what());
    }
    return;
  }
  pending_errors_.push_back(std::move(error));
}

bool Runtime::has_pending_error() const {
  const std::scoped_lock lock(mutex_);
  return !pending_errors_.empty();
}

std::size_t Runtime::clear_pending_errors() {
  const std::scoped_lock lock(mutex_);
  const std::size_t dropped = pending_errors_.size();
  pending_errors_.clear();
  return dropped;
}

Status Runtime::take_pending_status() {
  std::exception_ptr error;
  {
    const std::scoped_lock lock(mutex_);
    if (pending_errors_.empty()) {
      return Status::ok();
    }
    error = std::move(pending_errors_.front());
    pending_errors_.pop_front();
  }
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  } catch (const std::exception& e) {
    return Status::error(Errc::internal, e.what());
  }
}

namespace {

/// Rethrows (and removes) the oldest captured sink error after a sync
/// point — one per call, so each synchronize reports one failure and a
/// second error captured in between is not lost.
void rethrow_pending(std::mutex& mutex,
                     std::deque<std::exception_ptr>& pending) {
  std::exception_ptr error;
  {
    const std::scoped_lock lock(mutex);
    if (pending.empty()) {
      return;
    }
    error = std::move(pending.front());
    pending.pop_front();
  }
  std::rethrow_exception(error);
}

}  // namespace

bool Runtime::stream_idle(StreamId stream) const {
  const StreamState& s = stream_state(stream);
  const std::scoped_lock lock(s.mu);
  return s.window.empty();
}

bool Runtime::all_streams_idle() const {
  std::shared_lock streams(streams_mutex_);
  for (const auto& s : streams_) {
    const std::scoped_lock lock(s->mu);
    if (!s->window.empty()) {
      return false;
    }
  }
  return true;
}

void Runtime::stream_synchronize(StreamId stream) {
  // The predicate self-synchronizes (shared stream lookup + stream
  // lock); the executor's wait only supplies the cv rendezvous.
  executor_->wait([this, stream] { return stream_idle(stream); });
  rethrow_pending(mutex_, pending_errors_);
}

void Runtime::synchronize() {
  executor_->wait([this] { return all_streams_idle(); });
  rethrow_pending(mutex_, pending_errors_);
}

void Runtime::event_wait_host(
    std::span<const std::shared_ptr<EventState>> events, WaitMode mode) {
  executor_->wait([events, mode] {
    if (mode == WaitMode::all) {
      return std::all_of(events.begin(), events.end(),
                         [](const auto& e) { return e->fired(); });
    }
    return std::any_of(events.begin(), events.end(),
                       [](const auto& e) { return e->fired(); });
  });
}

Status Runtime::stream_synchronize(StreamId stream, double timeout_s) {
  const bool drained = executor_->wait_for(
      [this, stream] { return stream_idle(stream); }, timeout_s);
  if (!drained) {
    return Status::error(Errc::timed_out, "stream_synchronize deadline");
  }
  return take_pending_status();
}

Status Runtime::synchronize(double timeout_s) {
  const bool drained =
      executor_->wait_for([this] { return all_streams_idle(); }, timeout_s);
  if (!drained) {
    return Status::error(Errc::timed_out, "synchronize deadline");
  }
  return take_pending_status();
}

Status Runtime::event_wait_host(
    std::span<const std::shared_ptr<EventState>> events, WaitMode mode,
    double timeout_s) {
  const bool fired = executor_->wait_for(
      [events, mode] {
        if (mode == WaitMode::all) {
          return std::all_of(events.begin(), events.end(),
                             [](const auto& e) { return e->fired(); });
        }
        return std::any_of(events.begin(), events.end(),
                           [](const auto& e) { return e->fired(); });
      },
      timeout_s);
  if (!fired) {
    return Status::error(Errc::timed_out, "event_wait_host deadline");
  }
  return Status::ok();
}

// --- Transfer attempts (executor interface) ---------------------------------

TransferAttempt Runtime::transfer_attempt(const ActionRecord& action,
                                          DomainId sink, int attempt) {
  using Verdict = TransferAttempt::Verdict;
  if (!domain_alive(sink)) {
    return {Verdict::dropped};  // lost while queued or backing off
  }
  const TransferPayload& t = action.transfer;
  if (t.peer != kHostDomain && !domain_alive(t.peer)) {
    // The source incarnation is gone; without its bytes the transfer
    // cannot run. Surfaces at the next sync like any device loss.
    fail_action(action.id,
                std::make_exception_ptr(Error(
                    Errc::device_lost,
                    "device->device transfer: source (peer) domain lost")));
    return {Verdict::dropped};
  }
  FaultDecision fault;
  if (injector_.enabled()) {  // keeps the fault-free hot path lock-free
    fault = injector_.on_transfer(sink, action.transfer_seq, attempt);
    const std::scoped_lock lock(mutex_);
    LinkHealth& health = health_[sink.value];
    switch (fault.kind) {
      case FaultKind::none:
        ++health.successes;
        health_sample(sink, 1.0);
        break;
      case FaultKind::transient_error:
        count(Counter::faults_injected);
        health_sample(sink, 0.0);
        break;
      case FaultKind::link_stall:
        count(Counter::faults_injected);
        ++health.stalls;
        health_sample(sink, 0.5);  // succeeded, but late
        break;
      case FaultKind::device_loss:
        // mark_domain_lost below pins the health at zero.
        count(Counter::faults_injected);
        break;
    }
  }
  if (fault.kind == FaultKind::device_loss ||
      (fault.kind == FaultKind::transient_error &&
       attempt + 1 >= config_.retry.max_attempts)) {
    // Injected loss, or the retry budget is exhausted: treat the link as
    // gone for good.
    mark_domain_lost(sink);
    return {Verdict::dropped};
  }
  if (fault.kind == FaultKind::transient_error) {
    count(Counter::transfers_retried);
    {
      const std::scoped_lock lock(mutex_);
      ++health_[sink.value].retries;
    }
    return {.verdict = Verdict::retry,
            .backoff_s = config_.retry.backoff_seconds(attempt + 1)};
  }
  // One decision per attempt however many chunks move: chunking must not
  // multiply the injector's decision stream.
  const CoherenceConfig& coh = config_.coherence;
  std::size_t chunk = t.length;
  if (t.peer != kHostDomain && t.length > coh.pipeline_threshold &&
      coh.pipeline_chunk > 0) {
    chunk = std::min(coh.pipeline_chunk, t.length);
    const std::size_t chunks = (t.length + chunk - 1) / chunk;
    if (chunks > 1) {
      count(Counter::transfer_chunks, chunks);
    }
  }
  return {.verdict = Verdict::run,
          .stall_s = fault.kind == FaultKind::link_stall ? fault.stall_s : 0.0,
          .chunk = chunk};
}

void Runtime::note_host_write(const void* proxy, std::size_t len) {
  if (len == 0) {
    return;
  }
  std::shared_lock buffers(buffers_mutex_);
  try {
    Buffer& buf = buffers_.find_containing(proxy, len);
    buf.note_compute_write(kHostDomain, buf.offset_of(proxy), len);
  } catch (const Error&) {
    // Writes to memory no registered buffer covers are not the coherence
    // layer's business.
  }
}

Status Runtime::sync_home(BufferId id) {
  try {
    // Let executor threads finish in-flight bodies that may still touch
    // incarnation storage; callers have already synchronized, so this is
    // a cheap fence, not a drain.
    executor_->quiesce();
    std::size_t domain_count = 0;
    {
      const std::scoped_lock lock(mutex_);
      domain_count = domains_.size();
    }
    for (std::size_t d = 1; d < domain_count; ++d) {
      const DomainId domain{static_cast<std::uint32_t>(d)};
      std::vector<std::pair<std::size_t, std::size_t>> dirty;
      bool alive = false;
      {
        std::shared_lock buffers(buffers_mutex_);
        Buffer& buf = buffers_.get(id);
        if (!buf.instantiated_in(domain)) {
          continue;
        }
        dirty = buf.dirty_ranges(domain);
        alive = domains_[d].alive();
      }
      if (dirty.empty()) {
        continue;
      }
      if (!alive) {
        std::size_t bytes = 0;
        for (const auto& [offset, length] : dirty) {
          bytes += length;
        }
        return Status::error(
            Errc::data_loss,
            "sync_home: " + std::to_string(bytes) + " dirty bytes of buffer " +
                std::to_string(id.value) + " had their only current copy on "
                "lost domain " + std::to_string(d));
      }
      if (executor_->executes_payloads()) {
        for (const auto& [offset, length] : dirty) {
          std::byte* host = buffer_local(id, kHostDomain, offset, length);
          std::byte* src = buffer_local(id, domain, offset, length);
          std::memcpy(host, src, length);
        }
      }
      std::shared_lock buffers(buffers_mutex_);
      Buffer& buf = buffers_.get(id);
      for (const auto& [offset, length] : dirty) {
        buf.note_transfer(domain, kHostDomain, offset, length);
      }
    }
    return Status::ok();
  } catch (const Error& e) {
    return Status::error(e.code(), e.what());
  }
}

std::vector<std::pair<std::size_t, std::size_t>> Runtime::take_ckpt_dirty(
    BufferId id) {
  std::shared_lock buffers(buffers_mutex_);
  return buffers_.get(id).take_ckpt_dirty();
}

void Runtime::mark_ckpt_dirty(BufferId id, std::size_t offset,
                              std::size_t len) {
  std::shared_lock buffers(buffers_mutex_);
  buffers_.get(id).mark_ckpt_dirty(offset, len);
}

void Runtime::health_sample(DomainId id, double outcome) {
  if (health_[id.value].sample(outcome, config_.health)) {
    count(Counter::links_degraded);
    log_error("link to domain %u degraded (health %.3f); steering new work "
              "away", id.value, health_[id.value].score);
  }
}

LinkHealth Runtime::link_health(DomainId id) const {
  const std::scoped_lock lock(mutex_);
  require(id.value < domains_.size(), "unknown domain", Errc::not_found);
  return health_[id.value];
}

bool Runtime::link_degraded(DomainId id) const {
  const std::scoped_lock lock(mutex_);
  require(id.value < domains_.size(), "unknown domain", Errc::not_found);
  return health_[id.value].degraded;
}

DomainId Runtime::pick_healthy(std::span<const DomainId> candidates) {
  require(!candidates.empty(), "pick_healthy needs candidates");
  const std::scoped_lock lock(mutex_);
  const DomainId preferred = candidates.front();
  const DomainId* fallback = nullptr;
  for (const DomainId& c : candidates) {
    require(c.value < domains_.size(), "unknown domain", Errc::not_found);
    if (!domains_[c.value].alive()) {
      continue;
    }
    if (!health_[c.value].degraded) {
      if (c != preferred) {
        count(Counter::placements_steered);
      }
      return c;
    }
    if (fallback == nullptr) {
      fallback = &c;  // degraded beats dead
    }
  }
  if (fallback != nullptr) {
    if (*fallback != preferred) {
      count(Counter::placements_steered);
    }
    return *fallback;
  }
  throw Error(Errc::device_lost, "pick_healthy: no candidate domain alive");
}

// --- Multi-tenant service mode ----------------------------------------------

std::uint32_t Runtime::tenant_register() {
  const std::unique_lock lock(tenants_mutex_);
  tenant_slices_.emplace_back();
  return static_cast<std::uint32_t>(tenant_slices_.size());
}

std::size_t Runtime::tenant_count() const {
  const std::shared_lock lock(tenants_mutex_);
  return tenant_slices_.size();
}

TenantStatsSlice Runtime::tenant_slice(std::uint32_t tenant) const {
  const std::shared_lock lock(tenants_mutex_);
  require(tenant >= 1 && tenant <= tenant_slices_.size(),
          "unknown tenant id", Errc::not_found);
  return tenant_slices_[tenant - 1].slice();
}

void Runtime::stream_bind_tenant(StreamId stream, std::uint32_t tenant,
                                 std::uint32_t session) {
  StreamState& s = stream_state(stream);
  CounterCells* slice = nullptr;
  if (tenant != 0) {
    const std::shared_lock lock(tenants_mutex_);
    require(tenant <= tenant_slices_.size(), "unknown tenant id",
            Errc::not_found);
    slice = &tenant_slices_[tenant - 1];
  }
  s.tenant.store(tenant, std::memory_order_relaxed);
  s.session.store(session, std::memory_order_relaxed);
  s.slice.store(slice, std::memory_order_release);
}

std::uint32_t Runtime::stream_tenant(StreamId stream) const {
  return stream_state(stream).tenant.load(std::memory_order_relaxed);
}

void Runtime::tag_and_gate(const StreamState& stream, ActionRecord& record,
                           std::size_t held) {
  const std::uint32_t tenant = stream.tenant.load(std::memory_order_relaxed);
  if (tenant == 0) {
    return;
  }
  record.tenant = tenant;
  record.session = stream.session.load(std::memory_order_relaxed);
  if (AdmissionHook* hook = admission_hook_.load(std::memory_order_acquire)) {
    hook->before_admit(tenant, record.type, gate_bytes(record), held);
    record.gated = true;
  }
}

void Runtime::release_turn(const ActionRecord& record) noexcept {
  if (!record.gated) {
    return;
  }
  if (AdmissionHook* hook = admission_hook_.load(std::memory_order_acquire)) {
    hook->after_admit(record.tenant, record.type);
  }
}

void Runtime::settle_gate(const ActionRecord& record) noexcept {
  if (!record.gated) {
    return;
  }
  if (AdmissionHook* hook = admission_hook_.load(std::memory_order_acquire)) {
    hook->on_complete(record.tenant, record.type, gate_bytes(record));
  }
}

// --- TaskContext -------------------------------------------------------------

void* TaskContext::translate(const void* proxy, std::size_t len) const {
  return runtime_.translate(proxy, len, domain_);
}

std::size_t TaskContext::operand_count() const noexcept {
  return action_ == nullptr ? 0 : action_->operands.size();
}

void* TaskContext::operand_local(std::size_t index) const {
  require(action_ != nullptr, "no executing action bound to this context",
          Errc::invalid_argument);
  require(index < action_->operands.size(), "operand index out of range",
          Errc::out_of_range);
  const Operand& op = action_->operands[index];
  return runtime_.buffer_local(op.buffer, domain_, op.offset, op.length);
}

}  // namespace hs
