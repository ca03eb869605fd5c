#pragma once

// Out-of-core residency bookkeeping: which buffer incarnations occupy
// each (domain, mem-kind) budget, how many in-flight actions pin each
// one, and which idle incarnation an over-budget admission should spill
// next (LRU). Pure ledger — no locking (Runtime::gov_mu_ serializes
// every call) and no data movement (Runtime::evict_one_locked does the
// validity-map-minimized writeback).

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "core/types.hpp"

namespace hs {

class MemoryGovernor {
 public:
  struct Resident {
    std::size_t bytes = 0;
    MemKind kind = MemKind::ddr;
    std::uint32_t pins = 0;       ///< in-flight actions holding this operand
    std::uint64_t last_use = 0;   ///< governor tick of the last touch (LRU)
  };

  /// The resident entry for (domain, buffer); nullptr when absent.
  [[nodiscard]] const Resident* find(DomainId domain, BufferId buffer) const {
    const auto it = residents_.find(key(domain, buffer));
    return it == residents_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] bool resident(DomainId domain, BufferId buffer) const {
    return find(domain, buffer) != nullptr;
  }

  /// Inserts (domain, buffer) with `pins` initial pins and charges its
  /// bytes against the (domain, kind) ledger. Pre-condition: not already
  /// resident (callers check under the governor lock).
  void admit(DomainId domain, BufferId buffer, MemKind kind,
             std::size_t bytes, std::uint32_t pins) {
    Resident r;
    r.bytes = bytes;
    r.kind = kind;
    r.pins = pins;
    r.last_use = ++tick_;
    residents_.emplace(key(domain, buffer), r);
    Ledger& ledger = ledgers_[{domain.value, kind}];
    ledger.used += bytes;
    if (pins > 0) {
      ledger.pinned += bytes;
    }
  }

  /// Erases (domain, buffer) and refunds its ledger charge. No-op when
  /// absent, so destroy/deinstantiate paths can call it unconditionally.
  void release(DomainId domain, BufferId buffer) {
    const auto it = residents_.find(key(domain, buffer));
    if (it == residents_.end()) {
      return;
    }
    const Resident& r = it->second;
    Ledger& ledger = ledgers_[{domain.value, r.kind}];
    ledger.used -= r.bytes;
    if (r.pins > 0) {
      ledger.pinned -= r.bytes;
    }
    residents_.erase(it);
  }

  /// Marks (domain, buffer) in use by one more in-flight action (also a
  /// recency touch). Pre-condition: resident.
  void pin(DomainId domain, BufferId buffer) {
    Resident& r = residents_.at(key(domain, buffer));
    if (r.pins++ == 0) {
      ledgers_[{domain.value, r.kind}].pinned += r.bytes;
    }
    r.last_use = ++tick_;
  }

  /// Releases one pin. Tolerates a missing entry (the buffer may have
  /// been destroyed while the action was in flight).
  void unpin(DomainId domain, BufferId buffer) {
    const auto it = residents_.find(key(domain, buffer));
    if (it != residents_.end() && it->second.pins > 0 &&
        --it->second.pins == 0) {
      ledgers_[{domain.value, it->second.kind}].pinned -= it->second.bytes;
    }
  }

  /// Recency touch without a pin (explicit re-instantiation of a
  /// resident buffer).
  void touch(DomainId domain, BufferId buffer) {
    const auto it = residents_.find(key(domain, buffer));
    if (it != residents_.end()) {
      it->second.last_use = ++tick_;
    }
  }

  /// Bytes charged against (domain, kind).
  [[nodiscard]] std::size_t used(DomainId domain, MemKind kind) const {
    return ledger(domain, kind).used;
  }

  /// Bytes of (domain, kind) residents that at least one in-flight
  /// action pins: what no eviction can reclaim until those actions
  /// complete. Kept incrementally, so a fit test costs one lookup.
  [[nodiscard]] std::size_t pinned(DomainId domain, MemKind kind) const {
    return ledger(domain, kind).pinned;
  }

  /// Least-recently-used unpinned incarnation charged against
  /// (domain, kind); nullopt when every resident incarnation is pinned.
  [[nodiscard]] std::optional<BufferId> pick_victim(DomainId domain,
                                                    MemKind kind) const;

  /// Bytes charged for (domain, buffer); 0 when absent (eviction
  /// notification payloads).
  [[nodiscard]] std::size_t bytes_of(DomainId domain, BufferId buffer) const {
    const Resident* r = find(domain, buffer);
    return r == nullptr ? 0 : r->bytes;
  }

 private:
  /// (domain, buffer) — domain-major so a domain's residents are
  /// contiguous for victim scans.
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  static Key key(DomainId domain, BufferId buffer) {
    return {domain.value, buffer.value};
  }

  struct Ledger {
    std::size_t used = 0;    ///< bytes of every resident
    std::size_t pinned = 0;  ///< bytes of residents with pins > 0
  };
  [[nodiscard]] Ledger ledger(DomainId domain, MemKind kind) const {
    const auto it = ledgers_.find({domain.value, kind});
    return it == ledgers_.end() ? Ledger{} : it->second;
  }

  std::map<Key, Resident> residents_;
  std::map<std::pair<std::uint32_t, MemKind>, Ledger> ledgers_;
  std::uint64_t tick_ = 0;
};

}  // namespace hs
