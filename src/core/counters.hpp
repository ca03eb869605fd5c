#pragma once

// The runtime's counters, declared once.
//
// Each row of HS_RUNTIME_COUNTERS is one counter: its name, its scope
// (`tenant` rows are also sliced per tenant, `global` rows are totals
// only) and what it counts. Everything else is generated from the table:
// the RuntimeStats and TenantStatsSlice snapshots, the Counter ids that
// Runtime::count() takes, the atomic cells behind them, and
// for_each_counter(), which the output surfaces (bench JSON, hsinfo) and
// the slice reconciliation checks iterate. Adding a counter is one row
// here plus its count() call; every surface picks it up unchanged.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

// X(name, scope, doc)
#define HS_RUNTIME_COUNTERS(X)                                               \
  X(computes_enqueued, tenant, "compute actions admitted")                   \
  X(transfers_enqueued, tenant, "transfer actions admitted")                 \
  X(syncs_enqueued, tenant, "event waits, signals and allocs admitted")      \
  X(actions_completed, tenant, "actions that completed without failing")     \
  X(actions_failed, global,                                                  \
    "task bodies that threw, and actions failed by domain loss")             \
  X(transfers_aliased_away, global, "transfers aliased away (host target)")  \
  X(bytes_transferred, tenant,                                               \
    "bytes moved by completed transfers (d2d counts both hops)")             \
  X(ooo_dispatches, global,                                                  \
    "actions dispatched past an earlier incomplete one (relaxed)")           \
  X(faults_injected, global, "interconnect faults delivered")                \
  X(transfers_retried, global, "backoff retries after transient faults")     \
  X(actions_cancelled, global, "actions drained by stream_cancel")           \
  X(domains_lost, global, "devices declared dead")                           \
  X(graphs_captured, global, "task graphs recorded")                         \
  X(graph_replays, global, "graph launches")                                 \
  X(deps_reused, global,                                                     \
    "captured dependence edges replayed without conflict analysis")          \
  X(transfers_coalesced, global,                                             \
    "transfer nodes merged by graph::coalesce_transfers")                    \
  X(links_degraded, global, "links that crossed into degraded")              \
  X(placements_steered, global,                                              \
    "pick_healthy calls that avoided a degraded or dead choice")             \
  X(partial_recoveries, global, "graph-based subset re-launches")            \
  X(actions_reexecuted, global, "actions re-admitted by partial recovery")   \
  X(dep_index_hits, global,                                                  \
    "dependence edges found via the per-buffer interval index")              \
  X(dep_scan_steps, global,                                                  \
    "dependence-analysis steps: index entries plus window entries")          \
  X(lock_shard_contention, global,                                           \
    "contended acquisitions of a stream or action-table shard lock")         \
  X(dep_oracle_checks, global,                                               \
    "admissions cross-checked against the pairwise scan")                    \
  X(transfers_elided, tenant,                                                \
    "transfers completed as no-ops: destination already valid")              \
  X(bytes_elided, tenant, "bytes those no-ops did not move")                 \
  X(transfer_chunks, global, "chunks of pipelined multi-hop transfers")      \
  X(pipeline_serial_us, global,                                              \
    "modeled serial two-hop micros of pipelined transfers")                  \
  X(pipeline_actual_us, global,                                              \
    "observed micros of the same transfers (serial/actual = overlap)")       \
  X(coherence_oracle_checks, global, "elisions cross-checked byte-for-byte") \
  X(checkpoints_taken, global, "durable epochs committed")                   \
  X(checkpoint_bytes_written, global, "chunk payload bytes persisted")       \
  X(checkpoint_bytes_skipped_clean, global,                                  \
    "bytes the validity maps proved unchanged since the last epoch")         \
  X(restores_performed, global, "restores that rebound buffer contents")     \
  X(evictions, global, "incarnations spilled to make room under a budget")   \
  X(spill_bytes_written, global, "dirty bytes evictions synced home")        \
  X(spill_bytes_dropped_clean, global,                                       \
    "valid-but-clean bytes evictions dropped without a copy")                \
  X(refetches, global, "spilled incarnations re-admitted at dispatch")       \
  X(dispatch_attempts, global,                                               \
    "dispatch calls: first dispatches plus wakeups from the wait list")      \
  X(dispatch_parks, global,                                                  \
    "dispatches parked: unpinned operands did not fit beside others' pins")

// Scope column helper: keeps its argument for `tenant` rows only.
#define HS_COUNTER_IF_tenant(...) __VA_ARGS__
#define HS_COUNTER_IF_global(...)

namespace hs {

/// Counter ids, in table order.
enum class Counter : std::uint8_t {
#define HS_COUNTER_ID(name, scope, doc) name,
  HS_RUNTIME_COUNTERS(HS_COUNTER_ID)
#undef HS_COUNTER_ID
};

/// What each counter counts (the table's doc column), indexed by
/// Counter.
inline constexpr const char* kCounterDocs[] = {
#define HS_COUNTER_DOC(name, scope, doc) doc,
    HS_RUNTIME_COUNTERS(HS_COUNTER_DOC)
#undef HS_COUNTER_DOC
};
inline constexpr std::size_t kCounterCount = std::size(kCounterDocs);

/// Every runtime counter (Runtime::stats()).
struct RuntimeStats {
#define HS_COUNTER_FIELD(name, scope, doc) std::uint64_t name = 0;
  HS_RUNTIME_COUNTERS(HS_COUNTER_FIELD)
#undef HS_COUNTER_FIELD
};

/// One tenant's slice of the `tenant` rows (Runtime::tenant_slice). The
/// count() that bumps a global total bumps the enqueuing stream's slice
/// too whenever that stream carries a tenant binding, so for a run where
/// every stream is bound, sum-of-slices == the global totals.
struct TenantStatsSlice {
#define HS_COUNTER_SLICE_FIELD(name, scope, doc) \
  HS_COUNTER_IF_##scope(std::uint64_t name = 0;)
  HS_RUNTIME_COUNTERS(HS_COUNTER_SLICE_FIELD)
#undef HS_COUNTER_SLICE_FIELD
};

/// Calls fn(name, value) for every counter of `stats`, in table order.
template <typename Fn>
void for_each_counter(const RuntimeStats& stats, Fn&& fn) {
#define HS_COUNTER_VISIT(name, scope, doc) fn(#name, stats.name);
  HS_RUNTIME_COUNTERS(HS_COUNTER_VISIT)
#undef HS_COUNTER_VISIT
}

/// Calls fn(name, value) for every `tenant` row of `slice`, in table
/// order.
template <typename Fn>
void for_each_counter(const TenantStatsSlice& slice, Fn&& fn) {
#define HS_COUNTER_VISIT(name, scope, doc) \
  HS_COUNTER_IF_##scope(fn(#name, slice.name);)
  HS_RUNTIME_COUNTERS(HS_COUNTER_VISIT)
#undef HS_COUNTER_VISIT
}

/// Relaxed atomic cells, one per counter: the runtime's totals, and one
/// set per registered tenant (where only `tenant` rows are ever bumped).
class CounterCells {
 public:
  void add(Counter c, std::uint64_t n) noexcept {
    cells_[static_cast<std::size_t>(c)].fetch_add(n,
                                                  std::memory_order_relaxed);
  }

  [[nodiscard]] RuntimeStats totals() const noexcept {
    RuntimeStats out;
#define HS_COUNTER_LOAD(name, scope, doc) out.name = get(Counter::name);
    HS_RUNTIME_COUNTERS(HS_COUNTER_LOAD)
#undef HS_COUNTER_LOAD
    return out;
  }

  [[nodiscard]] TenantStatsSlice slice() const noexcept {
    TenantStatsSlice out;
#define HS_COUNTER_LOAD(name, scope, doc) \
  HS_COUNTER_IF_##scope(out.name = get(Counter::name);)
    HS_RUNTIME_COUNTERS(HS_COUNTER_LOAD)
#undef HS_COUNTER_LOAD
    return out;
  }

 private:
  [[nodiscard]] std::uint64_t get(Counter c) const noexcept {
    return cells_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, kCounterCount> cells_{};
};

}  // namespace hs
