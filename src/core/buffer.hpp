#pragma once

// Buffers and the unified source proxy address space.
//
// §II: "All memory that can be referenced by user code is represented in
// a unified source proxy address space, which is partitioned into
// buffers. The virtual address of the base pointer of the buffer is
// stored for each domain in which the buffer is instantiated, so when an
// operand of an action associated with a stream falls within that buffer,
// its addresses are easily translated from the source proxy address to
// the virtual address needed for that stream's domain."
//
// The host incarnation aliases the user's own memory (creating a buffer
// never copies); device incarnations are separate allocations standing in
// for card-side memory.

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/types.hpp"

namespace hs {

/// Usage properties a buffer creator may declare (§II: "Buffers give
/// users a way to declare usage properties ... but give tuners control
/// over the type of memory the data is bound to").
struct BufferProps {
  MemKind mem_kind = MemKind::ddr;
  bool read_only = false;  ///< sink-side code promises not to write
};

/// A set of disjoint, merged byte intervals [begin, end) over a buffer.
/// The unit of the coherence protocol: each incarnation's validity and
/// the derived dirty ranges are interval sets. Not internally locked —
/// the owning Buffer's leaf mutex serializes access.
class IntervalSet {
 public:
  /// Adds [begin, end), merging with overlapping/adjacent intervals.
  void add(std::size_t begin, std::size_t end) {
    if (begin >= end) {
      return;
    }
    auto it = ranges_.lower_bound(begin);
    if (it != ranges_.begin()) {
      const auto prev = std::prev(it);
      if (prev->second >= begin) {
        begin = prev->first;
        end = std::max(end, prev->second);
        ranges_.erase(prev);
      }
    }
    while (it != ranges_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = ranges_.erase(it);
    }
    ranges_[begin] = end;
  }

  /// Removes [begin, end), splitting intervals that straddle the window.
  void subtract(std::size_t begin, std::size_t end) {
    if (begin >= end) {
      return;
    }
    auto it = ranges_.lower_bound(begin);
    if (it != ranges_.begin()) {
      --it;  // the previous interval may reach into the window
    }
    while (it != ranges_.end() && it->first < end) {
      const std::size_t rb = it->first;
      const std::size_t re = it->second;
      if (re <= begin) {
        ++it;
        continue;
      }
      it = ranges_.erase(it);
      if (rb < begin) {
        ranges_[rb] = begin;
      }
      if (re > end) {
        ranges_[end] = re;
      }
    }
  }

  /// Replaces this set's contents over [begin, end) with `src`'s contents
  /// over the same window (the transfer rule: the destination's bytes
  /// become the source's bytes, so its validity becomes the source's).
  void assign_window(std::size_t begin, std::size_t end,
                     const IntervalSet& src) {
    subtract(begin, end);
    for (const auto& [rb, re] : src.ranges_) {
      const std::size_t b = std::max(rb, begin);
      const std::size_t e = std::min(re, end);
      if (b < e) {
        add(b, e);
      }
    }
  }

  /// True if [begin, end) lies entirely within one interval.
  [[nodiscard]] bool covers(std::size_t begin, std::size_t end) const {
    if (begin >= end) {
      return true;
    }
    auto it = ranges_.upper_bound(begin);
    if (it == ranges_.begin()) {
      return false;
    }
    --it;
    return it->second >= end;
  }

  /// True if [begin, end) overlaps any interval.
  [[nodiscard]] bool intersects(std::size_t begin, std::size_t end) const {
    if (begin >= end) {
      return false;
    }
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin() && std::prev(it)->second > begin) {
      return true;
    }
    return it != ranges_.end() && it->first < end;
  }

  /// This set minus `other`, as (offset, length) pairs, ascending.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> minus(
      const IntervalSet& other) const {
    IntervalSet diff = *this;
    for (const auto& [rb, re] : other.ranges_) {
      diff.subtract(rb, re);
    }
    std::vector<std::pair<std::size_t, std::size_t>> out;
    out.reserve(diff.ranges_.size());
    for (const auto& [rb, re] : diff.ranges_) {
      out.emplace_back(rb, re - rb);
    }
    return out;
  }

  [[nodiscard]] bool empty() const noexcept { return ranges_.empty(); }
  void clear() noexcept { ranges_.clear(); }
  /// begin -> end, disjoint and merged.
  [[nodiscard]] const std::map<std::size_t, std::size_t>& ranges()
      const noexcept {
    return ranges_;
  }

 private:
  std::map<std::size_t, std::size_t> ranges_;
};

/// One buffer: a range of the proxy address space plus its per-domain
/// incarnations.
class Buffer {
 public:
  Buffer(BufferId id, std::byte* proxy_base, std::size_t size,
         BufferProps props)
      : id_(id), proxy_base_(proxy_base), size_(size), props_(props) {
    require(proxy_base != nullptr, "buffer proxy base may not be null");
    require(size > 0, "buffer size must be positive");
    // The host incarnation aliases the user allocation and starts valid
    // over the whole buffer (user memory is the initial logical value).
    incarnations_[kHostDomain] = proxy_base;
    validity_[kHostDomain].add(0, size);
  }

  [[nodiscard]] BufferId id() const noexcept { return id_; }
  [[nodiscard]] std::byte* proxy_base() const noexcept { return proxy_base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const BufferProps& props() const noexcept { return props_; }

  /// True if `ptr` lies within this buffer's proxy range.
  [[nodiscard]] bool contains(const void* ptr) const noexcept {
    const auto* p = static_cast<const std::byte*>(ptr);
    return p >= proxy_base_ && p < proxy_base_ + size_;
  }

  /// Offset of a proxy pointer within this buffer.
  [[nodiscard]] std::size_t offset_of(const void* ptr) const {
    require(contains(ptr), "pointer not within buffer", Errc::out_of_range);
    return static_cast<std::size_t>(static_cast<const std::byte*>(ptr) -
                                    proxy_base_);
  }

  /// Declares the incarnation of this buffer in `domain`. Storage is
  /// materialized lazily on first access (zero-initialized then, like
  /// freshly allocated card memory), so buffers that are only *scheduled*
  /// against — timing-only simulation runs — never commit physical pages.
  void instantiate(DomainId domain) {
    const std::scoped_lock lock(mu_);
    incarnations_.try_emplace(domain, nullptr);
    if (spilled_.erase(domain) > 0) {
      // Rebuilt after a governor spill: the fresh incarnation is invalid
      // over ranges the eviction dropped, so readers must demand-page
      // them back from the host copy (prepare_residency).
      demand_paged_.insert(domain);
    }
  }

  /// Drops the incarnation in `domain` (host incarnation cannot be
  /// dropped: it aliases user memory). Any validity/dirty state goes with
  /// it — callers that care must sync back (or explicitly discard) first.
  void deinstantiate(DomainId domain) {
    require(domain != kHostDomain, "cannot deinstantiate the host alias");
    const std::scoped_lock lock(mu_);
    incarnations_.erase(domain);
    validity_.erase(domain);
    spilled_.erase(domain);
    demand_paged_.erase(domain);
    // Owned storage is retained until buffer destruction; incarnation
    // maps drive translation, so a dropped domain can no longer be
    // addressed even though its bytes linger until then.
  }

  // --- Governor spill marks ---------------------------------------------
  // A spilled incarnation was dropped by the memory governor to make
  // room under a budget (its dirty ranges synced home first). The mark
  // keeps the buffer eligible for enqueue checks and demand re-fetch in
  // that domain — the incarnation reappears transparently when an action
  // needs it. instantiate()/deinstantiate() clear the mark.

  /// Eviction's transition — drop the incarnation (and its validity) and
  /// set the spill mark — in ONE leaf-lock critical section, so readers
  /// of usable_in() can never observe the buffer as neither instantiated
  /// nor spilled mid-eviction.
  void spill(DomainId domain) {
    require(domain != kHostDomain, "cannot spill the host alias");
    const std::scoped_lock lock(mu_);
    incarnations_.erase(domain);
    validity_.erase(domain);
    spilled_.insert(domain);
  }

  /// True when `domain` holds a live incarnation or a governor spill
  /// mark. Both states are read under one leaf-lock acquisition: the
  /// spill()/instantiate() transitions swap them atomically, so separate
  /// instantiated_in() + spilled_from() calls could race into a bogus
  /// "neither" — enqueue-time operand checks must use this instead.
  [[nodiscard]] bool usable_in(DomainId domain) const noexcept {
    const std::scoped_lock lock(mu_);
    return incarnations_.contains(domain) || spilled_.contains(domain);
  }

  void clear_spilled(DomainId domain) {
    const std::scoped_lock lock(mu_);
    spilled_.erase(domain);
  }

  [[nodiscard]] bool spilled_from(DomainId domain) const noexcept {
    const std::scoped_lock lock(mu_);
    return spilled_.contains(domain);
  }

  /// True once the incarnation has been rebuilt after a governor spill.
  /// Readers of such an incarnation restore missing ranges from the host
  /// before executing; never-spilled incarnations skip that work (and
  /// keep the pre-governor semantics for ranges the app never uploaded).
  [[nodiscard]] bool demand_paged(DomainId domain) const noexcept {
    const std::scoped_lock lock(mu_);
    return demand_paged_.contains(domain);
  }

  [[nodiscard]] bool instantiated_in(DomainId domain) const noexcept {
    const std::scoped_lock lock(mu_);
    return incarnations_.contains(domain);
  }

  /// Translates a proxy offset to the domain-local address, materializing
  /// the incarnation's storage on first touch.
  [[nodiscard]] std::byte* local_address(DomainId domain,
                                         std::size_t offset) {
    const std::scoped_lock lock(mu_);
    const auto it = incarnations_.find(domain);
    require(it != incarnations_.end(), "buffer not instantiated in domain",
            Errc::buffer_not_instantiated);
    require(offset <= size_, "offset beyond buffer", Errc::out_of_range);
    if (it->second == nullptr) {
      auto storage = std::make_unique<std::byte[]>(size_);  // zeroed
      it->second = storage.get();
      owned_.push_back(std::move(storage));
    }
    return it->second + offset;
  }

  // --- Byte-range coherence (validity intervals) ------------------------
  // MOESI-lite over incarnations: an incarnation is *valid* over a byte
  // range when its bytes equal the logical current value of that range.
  // The host starts valid over the whole buffer (it aliases the user's
  // initialized memory); device incarnations start entirely invalid. A
  // completed compute validates the ranges it wrote in its own domain and
  // invalidates every other incarnation there; a completed transfer makes
  // the destination's validity over the moved range a copy of the
  // source's. Two incarnations both valid over a range therefore hold
  // byte-identical data — the condition the runtime's online transfer
  // elision tests. Dirty ranges ("device newer than host", the PR 3
  // evacuate contract) fall out as valid(device) minus valid(host).

  /// A completed compute in `domain` wrote [offset, offset+len): `domain`
  /// now holds the only current copy, every other incarnation is stale.
  void note_compute_write(DomainId domain, std::size_t offset,
                          std::size_t len) {
    if (len == 0) {
      return;
    }
    const std::scoped_lock lock(mu_);
    for (auto& [d, valid] : validity_) {
      if (d != domain) {
        valid.subtract(offset, offset + len);
      }
    }
    validity_[domain].add(offset, offset + len);
    // A compute (or host) write changes the buffer's logical value, so
    // the range is dirty relative to the last checkpoint epoch. Transfers
    // deliberately do not land here: they move bytes between incarnations
    // without changing the logical content.
    ckpt_dirty_.add(offset, offset + len);
  }

  /// A failed compute body in `domain` may have partially written
  /// [offset, offset+len): the range holds garbage there. Only `domain`'s
  /// validity is lost; other incarnations are untouched.
  void note_write_garbage(DomainId domain, std::size_t offset,
                          std::size_t len) {
    const std::scoped_lock lock(mu_);
    const auto it = validity_.find(domain);
    if (it != validity_.end()) {
      it->second.subtract(offset, offset + len);
    }
  }

  /// A completed transfer copied [offset, offset+len) from `from`'s
  /// incarnation into `to`'s: `to`'s bytes over the range are now exactly
  /// `from`'s, so its validity over the window becomes `from`'s.
  void note_transfer(DomainId from, DomainId to, std::size_t offset,
                     std::size_t len) {
    if (len == 0 || from == to) {
      return;
    }
    const std::scoped_lock lock(mu_);
    static const IntervalSet kEmpty;
    const auto src = validity_.find(from);
    validity_[to].assign_window(offset, offset + len,
                                src == validity_.end() ? kEmpty : src->second);
  }

  /// True when `domain`'s incarnation is valid over the whole range.
  [[nodiscard]] bool valid_over(DomainId domain, std::size_t offset,
                                std::size_t len) const {
    const std::scoped_lock lock(mu_);
    const auto it = validity_.find(domain);
    return it != validity_.end() && it->second.covers(offset, offset + len);
  }

  /// Valid (offset, length) ranges of `domain`, ascending, disjoint.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  valid_ranges(DomainId domain) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    const std::scoped_lock lock(mu_);
    const auto it = validity_.find(domain);
    if (it != validity_.end()) {
      out.reserve(it->second.ranges().size());
      for (const auto& [begin, end] : it->second.ranges()) {
        out.emplace_back(begin, end - begin);
      }
    }
    return out;
  }

  /// Drops all validity of `domain` without syncing — recovery paths that
  /// restore from their own checkpoint. (Dirty state goes with it: a
  /// domain with no validity can be newer than the host nowhere.)
  void discard_dirty(DomainId domain) {
    if (domain == kHostDomain) {
      return;
    }
    const std::scoped_lock lock(mu_);
    validity_.erase(domain);
  }

  /// The demand re-fetch set for a read window: ranges of
  /// [offset, offset+len) the host can restore into `domain`'s
  /// incarnation that are not already valid there —
  /// (valid(host) ∩ window) − valid(domain). Ascending, disjoint.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  refetch_ranges(DomainId domain, std::size_t offset, std::size_t len) const {
    const std::scoped_lock lock(mu_);
    const auto host = validity_.find(kHostDomain);
    if (host == validity_.end() || len == 0) {
      return {};
    }
    IntervalSet want;
    want.assign_window(offset, offset + len, host->second);
    static const IntervalSet kEmpty;
    const auto dev = validity_.find(domain);
    return want.minus(dev == validity_.end() ? kEmpty : dev->second);
  }

  /// True when `domain` holds ranges newer than the host copy.
  [[nodiscard]] bool dirty_in(DomainId domain) const noexcept {
    const std::scoped_lock lock(mu_);
    return !dirty_minus_host(domain).empty();
  }

  /// Dirty (offset, length) ranges of `domain` — ranges where the device
  /// incarnation is valid and the host alias is not, i.e. where a sink
  /// compute wrote and nothing synced back. Ascending, disjoint.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> dirty_ranges(
      DomainId domain) const {
    const std::scoped_lock lock(mu_);
    return dirty_minus_host(domain);
  }

  // --- Checkpoint epoch-dirty tracking ----------------------------------
  // A second interval set, orthogonal to per-domain validity: which byte
  // ranges have had their *logical value* change since the last
  // checkpoint epoch. Fed by note_compute_write (device and host writes
  // alike — note_host_write routes through it); drained atomically by the
  // checkpoint layer when a snapshot is cut.

  /// Marks [offset, offset+len) changed-since-last-epoch. The checkpoint
  /// layer seeds the whole buffer this way when tracking begins.
  void mark_ckpt_dirty(std::size_t offset, std::size_t len) {
    if (len == 0) {
      return;
    }
    const std::scoped_lock lock(mu_);
    ckpt_dirty_.add(offset, offset + len);
  }

  /// Returns the changed-since-last-epoch (offset, length) ranges,
  /// ascending and disjoint, and clears them — the epoch boundary.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  take_ckpt_dirty() {
    const std::scoped_lock lock(mu_);
    std::vector<std::pair<std::size_t, std::size_t>> out;
    out.reserve(ckpt_dirty_.ranges().size());
    for (const auto& [begin, end] : ckpt_dirty_.ranges()) {
      out.emplace_back(begin, end - begin);
    }
    ckpt_dirty_.clear();
    return out;
  }

 private:
  /// valid(domain) - valid(host), mu_ held.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  dirty_minus_host(DomainId domain) const {
    if (domain == kHostDomain) {
      return {};
    }
    const auto it = validity_.find(domain);
    if (it == validity_.end()) {
      return {};
    }
    static const IntervalSet kEmpty;
    const auto host = validity_.find(kHostDomain);
    return it->second.minus(host == validity_.end() ? kEmpty : host->second);
  }

  BufferId id_;
  std::byte* proxy_base_;
  std::size_t size_;
  BufferProps props_;
  /// Guards incarnations_, validity_ and owned_. The identity fields
  /// above are immutable after construction and read lock-free. Leaf lock
  /// in the runtime's hierarchy: nothing else is acquired while it is
  /// held, so executor threads can translate addresses and track
  /// coherence on different buffers (or the same one) without a global
  /// serialization point.
  mutable std::mutex mu_;
  std::map<DomainId, std::byte*> incarnations_;
  /// Per-incarnation validity intervals. Host seeded whole-buffer valid
  /// at construction; absent entry == entirely invalid.
  std::map<DomainId, IntervalSet> validity_;
  /// Ranges whose logical value changed since the last checkpoint epoch.
  IntervalSet ckpt_dirty_;
  /// Domains whose incarnation the memory governor spilled (demand
  /// re-fetch eligible); cleared by instantiate/deinstantiate.
  std::set<DomainId> spilled_;
  /// Domains whose incarnation was rebuilt after a spill — readers
  /// demand-page missing ranges from the host (prepare_residency);
  /// cleared by deinstantiate.
  std::set<DomainId> demand_paged_;
  std::vector<std::unique_ptr<std::byte[]>> owned_;
};

/// A resolved memory operand: buffer + byte range + access mode. This is
/// the unit of dependence analysis.
struct Operand {
  BufferId buffer;
  std::size_t offset = 0;
  std::size_t length = 0;
  Access access = Access::in;

  /// True if the byte ranges overlap and at least one side writes.
  [[nodiscard]] bool conflicts_with(const Operand& other) const noexcept {
    if (buffer != other.buffer) {
      return false;
    }
    if (!writes(access) && !writes(other.access)) {
      return false;
    }
    return offset < other.offset + other.length &&
           other.offset < offset + length;
  }
};

// --- Per-buffer dependence index ------------------------------------------
//
// The admission fast path. Legacy dependence analysis intersected every
// new action's operands against every incomplete action in the stream
// window — O(window x operands) pairwise work per enqueue, which is
// exactly the cost the paper's Fig. 3 overhead budget cannot afford at
// deep windows. The index inverts the scan: each stream keeps, per
// buffer, an interval map over touched byte ranges whose segments list
// the *incomplete* writers and readers of that range. Admission then
// asks "who wrote/read these bytes?" in O(log segments + matches)
// instead of walking the window. Entries are inserted at admission and
// removed at completion, both under the owning stream's admission lock.
//
// Edge-exactness: every entry carries its original byte range and the
// final conflict test is the same strict-overlap predicate
// Operand::conflicts_with uses, so the set of predecessor actions found
// is *identical* to the pairwise window scan (the segments only
// accelerate candidate discovery). RuntimeConfig::dep_oracle
// cross-checks this on every admission.

/// One indexed operand use: which action, where in the stream's FIFO
/// order, the exact byte range, and whether it writes.
struct DepUse {
  ActionId action;
  std::uint64_t seq = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  bool write = false;
};

/// Interval-keyed last-writer/live-reader lists over one buffer's byte
/// ranges (for one stream). Not internally locked: the owning stream's
/// admission lock serializes all access.
class BufferDepIndex {
 public:
  /// Records an incomplete use of [op.offset, op.offset+op.length).
  void insert(const Operand& op, ActionId action, std::uint64_t seq);

  /// Appends every recorded use conflicting with `op` (writers always;
  /// readers only when `op` writes) to `out`. Callers dedup by action.
  /// Returns the number of elementary steps taken (segments visited plus
  /// entries examined) — the dep_scan_steps metric.
  std::size_t collect(const Operand& op, std::vector<DepUse>& out) const;

  /// Removes `action`'s entries over [op.offset, op.offset+op.length)
  /// (called once per operand at completion).
  void erase(const Operand& op, ActionId action);

  [[nodiscard]] bool empty() const noexcept { return segments_.empty(); }

 private:
  /// Entries touching [key, end). Segments are disjoint and sorted; a
  /// use spanning several segments appears in each.
  struct Segment {
    std::size_t end = 0;
    std::vector<DepUse> writers;
    std::vector<DepUse> readers;
  };

  /// Ensures a segment boundary at `at` (splits the covering segment).
  void split_at(std::size_t at);

  std::map<std::size_t, Segment> segments_;  ///< key = segment begin
};

/// A stream's whole dependence index: BufferId -> interval index.
/// Maintained under the stream's admission lock.
class StreamDepIndex {
 public:
  void insert(const Operand& op, ActionId action, std::uint64_t seq);
  /// See BufferDepIndex::collect; returns steps taken.
  std::size_t collect(const Operand& op, std::vector<DepUse>& out) const;
  void erase(const Operand& op, ActionId action);
  [[nodiscard]] bool empty() const noexcept { return buffers_.empty(); }

 private:
  std::unordered_map<BufferId, BufferDepIndex> buffers_;
};

/// Registry mapping proxy pointers to buffers. Lookup is by interval:
/// buffers are keyed by base address; proxy ranges never overlap.
class BufferTable {
 public:
  /// Registers a buffer wrapping user memory [base, base+size).
  BufferId create(void* base, std::size_t size, BufferProps props);

  /// Removes a buffer. All incarnations are dropped.
  void destroy(BufferId id);

  [[nodiscard]] Buffer& get(BufferId id);
  [[nodiscard]] const Buffer& get(BufferId id) const;

  /// Finds the buffer containing the proxy range [ptr, ptr+len).
  /// The whole range must lie within a single buffer.
  [[nodiscard]] Buffer& find_containing(const void* ptr, std::size_t len);

  /// Resolves a proxy range + access into an Operand.
  [[nodiscard]] Operand resolve(const void* ptr, std::size_t len,
                                Access access);

  [[nodiscard]] std::size_t count() const noexcept { return buffers_.size(); }

 private:
  std::map<const std::byte*, std::unique_ptr<Buffer>> by_base_;
  std::map<BufferId, Buffer*> buffers_;
  std::uint32_t next_id_ = 0;
};

}  // namespace hs
