#pragma once

// The hetstream core runtime ("core API" layer).
//
// Owns the three hStreams abstractions — domains, streams, buffers — and
// the dependence semantics that connect them:
//
//   * Actions enqueued into a stream retain FIFO *semantics*: their
//     effects must be those of in-order execution.
//   * Under OrderPolicy::relaxed_fifo (the hStreams model), an action may
//     *execute* as soon as no earlier incomplete action in its stream has
//     a conflicting memory operand (RAW/WAR/WAW on buffer byte ranges).
//   * Under OrderPolicy::strict_fifo (the CUDA Streams model), an action
//     waits for all earlier actions in its stream.
//   * Across streams (and between streams and the host) there are no
//     implicit dependences; events are the only ordering mechanism.
//
// Execution itself — threads and time — is delegated to an Executor
// backend (threaded or simulated).

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/action.hpp"
#include "core/buffer.hpp"
#include "core/counters.hpp"
#include "core/domain.hpp"
#include "core/executor.hpp"
#include "core/memory_governor.hpp"
#include "core/task_context.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "interconnect/buffer_pool.hpp"
#include "interconnect/fault.hpp"
#include "interconnect/health.hpp"
#include "interconnect/topology.hpp"
#include "threading/cpu_mask.hpp"

namespace hs {

namespace ckpt {
class CheckpointManager;
struct RestoreInfo;
}  // namespace ckpt

/// A memory operand reference in proxy address terms, as passed by users.
struct OperandRef {
  const void* ptr = nullptr;
  std::size_t len = 0;
  Access access = Access::in;
};

/// Byte-range coherence knobs: online transfer elision and the chunked
/// multi-hop transfer pipeline. The per-incarnation validity maps they
/// build on are always maintained: eviction, sync_home and incremental
/// checkpoints read them too.
struct CoherenceConfig {
  /// Complete transfers whose destination range is already byte-identical
  /// to the source as zero-cost no-ops.
  bool elide = true;
  /// Debug oracle: memcmp source vs destination on every elision (when
  /// the executor executes payloads) and throw Errc::internal on any
  /// mismatch.
  bool oracle = false;
  /// Device->device transfers longer than this are split into chunks so
  /// the device->host and host->device hops overlap.
  std::size_t pipeline_threshold = 8u << 20;
  /// Chunk size for the pipelined hops.
  std::size_t pipeline_chunk = 2u << 20;
};

/// Construction-time configuration.
struct RuntimeConfig {
  PlatformDesc platform = PlatformDesc::host_only();
  OrderPolicy policy = OrderPolicy::relaxed_fifo;
  bool transfer_pool_enabled = true;  ///< COI-like 2 MB staging pool
  LinkModel device_link = pcie_gen2_x16();
  /// Per-device link override (one entry per non-host domain); empty =
  /// every device uses `device_link`. Lets a platform mix PCIe cards and
  /// fabric-attached remote nodes (§IV: streams "on devices residing in
  /// remote nodes").
  std::vector<LinkModel> domain_links;
  /// Interconnect fault model: which transfers fail, stall, or take the
  /// device down (interconnect/fault.hpp). Disabled by default.
  FaultPlan faults;
  /// How transient transfer failures are retried before the device is
  /// declared lost (see transfer_attempt).
  RetryPolicy retry;
  /// Link-health EWMA tuning for fault-aware placement
  /// (interconnect/health.hpp).
  HealthPolicy health;
  /// Debug oracle: on every relaxed admission, cross-check the interval
  /// index's blocker set against the reference pairwise window scan
  /// (DESIGN.md "Scalable admission path") and throw Errc::internal if
  /// they differ.
  bool dep_oracle = false;
  /// Byte-range coherence: transfer elision and the chunked multi-hop
  /// pipeline (see CoherenceConfig).
  CoherenceConfig coherence;
  /// Out-of-core execution: when an instantiation would exceed a domain's
  /// memory budget, evict idle (unpinned) incarnations — dirty ranges sync
  /// home, clean ranges drop free — instead of throwing
  /// Errc::resource_exhausted. Spilled operands are transparently
  /// re-admitted and re-uploaded at dispatch. false restores the old
  /// throw-on-exhaustion behavior.
  bool eviction = true;
};

/// Where enqueues go during graph capture: instead of being admitted into
/// a stream window and executed, fully-formed records on captured streams
/// are handed to the sink, which stores them as graph nodes and returns a
/// placeholder completion event (graph/capture.hpp implements this).
class CaptureSink {
 public:
  virtual ~CaptureSink() = default;
  /// Whether enqueues into `stream` are being captured.
  [[nodiscard]] virtual bool captures(StreamId stream) const = 0;
  /// Records one enqueue. The returned event never fires; it exists so
  /// capture-time code can thread it into enqueue_event_wait calls, which
  /// the sink resolves into graph edges.
  virtual std::shared_ptr<EventState> record(
      std::shared_ptr<ActionRecord> record) = 0;
};

/// Admission gating for service mode. When installed, every enqueue that
/// lands in a tenant-bound stream calls before_admit *before* the action
/// enters its stream window — outside all stream/shard locks, so an
/// implementation may block (weighted-fair turn taking, blocking quotas)
/// or throw (Errc::quota_exceeded in fail-fast mode). Each admitted
/// gated action owes exactly one on_complete at completion — including
/// cancellation, failure, and elision — so permits and in-flight byte
/// accounting never leak; a graph launch refused part-way through its
/// gating calls on_complete for the records it had already gated.
/// on_complete runs on completion paths (executor threads, the
/// completion drainer) and must not block or throw.
class AdmissionHook {
 public:
  virtual ~AdmissionHook() = default;
  /// `held`: bytes the same graph launch already gated for `tenant` (0 on
  /// eager enqueues). They cannot complete before this record admits, so
  /// a blocking implementation must not wait for them to drain.
  virtual void before_admit(std::uint32_t tenant, ActionType type,
                            std::size_t bytes, std::size_t held) = 0;
  /// Called once the admission itself finished (the record is in its
  /// stream window) — the release point for a fair-turn permit acquired
  /// in before_admit. Runs outside all runtime locks; must not block.
  virtual void after_admit(std::uint32_t tenant, ActionType type) noexcept = 0;
  virtual void on_complete(std::uint32_t tenant, ActionType type,
                           std::size_t bytes) noexcept = 0;
  /// The memory governor spilled `buffer`'s incarnation in `domain` (its
  /// dirty ranges are already home). Runs under the governor lock on
  /// whatever thread triggered the eviction; must not block, throw, or
  /// call back into the runtime.
  virtual void on_evict(BufferId buffer, DomainId domain,
                        std::size_t bytes) noexcept {
    (void)buffer;
    (void)domain;
    (void)bytes;
  }
  /// A spilled (or dispatch-time) incarnation of `buffer` is being
  /// re-admitted into `domain`. May throw (e.g. Errc::quota_exceeded) to
  /// veto the re-admission, which fails the triggering action; must not
  /// block on runtime progress (it runs on dispatch paths).
  virtual void on_refetch(BufferId buffer, DomainId domain,
                          std::size_t bytes) {
    (void)buffer;
    (void)domain;
    (void)bytes;
  }
};

/// The runtime's decision on one transfer attempt (Runtime::transfer_attempt).
/// Executors pay it in their own clock.
struct TransferAttempt {
  enum class Verdict {
    run,      ///< move the bytes, after `stall_s` of injected link stall
    retry,    ///< transient failure: attempt again after `backoff_s`
    dropped,  ///< the action already failed (its `done` is a no-op)
  };
  Verdict verdict = Verdict::run;
  double stall_s = 0.0;
  /// Bytes per chunk of each hop: the whole length, unless a
  /// device->device move is pipelined in CoherenceConfig::pipeline_chunk
  /// pieces.
  std::size_t chunk = 0;
  double backoff_s = 0.0;
};

/// One entry of a pre-linked (captured-graph) launch batch: a fresh record
/// plus the indices of earlier batch entries it depends on. See
/// Runtime::admit_prelinked.
struct PrelinkedAction {
  std::shared_ptr<ActionRecord> record;
  /// Indices into the batch of earlier same-stream actions whose operands
  /// conflict with this one — the dependence analysis result, computed
  /// once at capture and reused every replay.
  std::span<const std::uint32_t> preds;
};

class Runtime {
 public:
  Runtime(RuntimeConfig config, std::unique_ptr<Executor> executor);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] const RuntimeConfig& config() const noexcept {
    return config_;
  }

  // --- Domains -----------------------------------------------------------
  [[nodiscard]] std::size_t domain_count() const noexcept {
    return domains_.size();
  }
  [[nodiscard]] const Domain& domain(DomainId id) const;
  /// False once the domain was declared lost.
  [[nodiscard]] bool domain_alive(DomainId id) const;
  /// Declares `id` permanently lost (an unplugged/faulted card). Every
  /// in-flight action on its streams is failed exactly-once, one
  /// device_lost error is queued for the next synchronization point, and
  /// all further work targeting the domain is refused with
  /// Errc::device_lost. Idempotent. transfer_attempt calls this on an
  /// injected device loss and on retry exhaustion; applications may call
  /// it to take a device out of rotation.
  void mark_domain_lost(DomainId id);
  /// Moves a buffer off the (typically lost) domain `from`: the
  /// incarnation in `to` is created if absent, refreshed from the host
  /// incarnation, and the `from` incarnation is dropped with its budget
  /// refunded. The host copy is only authoritative over ranges the
  /// device never wrote: if `from` is still alive and holds dirty ranges
  /// (device computes wrote them and nothing synced them back), those
  /// ranges are copied device->host first, so evacuation never
  /// resurrects stale host data. If `from` is dead and dirty, the only
  /// current copy died with it: the call fails with Errc::data_loss
  /// unless `discard_dirty` is set (recovery paths that restore from
  /// their own checkpoint, or will re-execute the producers, pass true).
  /// The buffer must be quiescent — synchronize first. Returns
  /// device_lost if `to` is dead, resource_exhausted if `to` lacks
  /// memory, not_found for unknown ids.
  Status evacuate(BufferId id, DomainId from, DomainId to,
                  bool discard_dirty = false);
  /// All domains of a given kind, in id order (domain discovery, §II).
  [[nodiscard]] std::vector<DomainId> domains_of_kind(DomainKind kind) const;
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  // --- Link health (fault-aware placement) -------------------------------
  /// Health state of the link to `domain`: an EWMA over transfer-attempt
  /// outcomes fed from the fault injector's decisions and retry notes.
  [[nodiscard]] LinkHealth link_health(DomainId id) const;
  /// Hysteresis verdict: true once the link's score fell below
  /// HealthPolicy::degrade_below and until it recovers above
  /// recover_above (sticky at device loss).
  [[nodiscard]] bool link_degraded(DomainId id) const;
  /// Placement helper: the first candidate that is alive and not
  /// degraded; falls back to the first alive candidate when every
  /// survivor is degraded (degraded beats dead), and throws
  /// Errc::device_lost when no candidate is alive. Counts a steered
  /// placement whenever the answer differs from the first candidate.
  [[nodiscard]] DomainId pick_healthy(std::span<const DomainId> candidates);

  // --- Buffers -----------------------------------------------------------
  /// Wraps user memory [base, base+size) as a buffer in the proxy space.
  BufferId buffer_create(void* base, std::size_t size, BufferProps props = {});
  /// Allocates the buffer's incarnation in `domain` (explicit, as in
  /// hStreams: "buffers currently need to be allocated before the data
  /// can be transferred"). Charges the buffer's size against the
  /// domain's budget for the buffer's memory kind; throws
  /// Errc::resource_exhausted when the kind is absent, or when it is full
  /// and eviction is disabled (or every resident incarnation is pinned).
  /// With eviction enabled (RuntimeConfig::eviction, the default), a full
  /// budget spills idle incarnations to make room instead of throwing.
  void buffer_instantiate(BufferId id, DomainId domain);
  /// Releases the incarnation in `domain` and refunds its budget. The
  /// buffer must have no in-flight actions (callers synchronize first).
  /// Fails with Errc::data_loss if the incarnation holds dirty ranges the
  /// host does not have (device-newer data) unless `discard_dirty` is set
  /// — mirror of evacuate's escape hatch; call sync_home first to keep
  /// the data. Deinstantiating a governor-spilled incarnation just clears
  /// its refetch eligibility.
  void buffer_deinstantiate(BufferId id, DomainId domain,
                            bool discard_dirty = false);
  void buffer_destroy(BufferId id);
  /// Remaining budget of `kind` memory in `domain` (domain discovery,
  /// §II: properties include "the amount of each kind of memory").
  [[nodiscard]] std::size_t memory_available(DomainId domain,
                                             MemKind kind) const;
  /// Proxy base and size of the buffer containing `proxy` (used by the
  /// compat layer, where heap arguments imply whole-buffer operands).
  [[nodiscard]] std::pair<void*, std::size_t> buffer_extent(
      const void* proxy);
  /// Destroys the buffer containing `proxy` (hStreams_DeAlloc style).
  void buffer_destroy_containing(const void* proxy);
  [[nodiscard]] std::size_t buffer_count() const;
  /// Proxy -> domain-local translation (used by TaskContext).
  [[nodiscard]] void* translate(const void* proxy, std::size_t len,
                                DomainId domain);
  /// Domain-local address of a buffer range (used by executors to move
  /// data between incarnations).
  [[nodiscard]] std::byte* buffer_local(BufferId id, DomainId domain,
                                        std::size_t offset, std::size_t len);
  /// The interconnect link between the host and `domain`.
  [[nodiscard]] const LinkModel& link_for(DomainId domain) const;
  /// Stages `bytes` through the COI-like transfer pool (statistics and
  /// modeled allocation cost; see BufferPool). Returns the modeled
  /// allocation seconds this staging incurred — zero in the pooled steady
  /// state, significant when the pool is disabled (§III).
  double account_transfer_staging(std::size_t bytes);

  // --- Streams -----------------------------------------------------------
  /// Creates a stream whose sink is (`domain`, `mask`). The mask selects
  /// logical hardware threads of the domain. Policy defaults to the
  /// runtime-wide policy.
  StreamId stream_create(DomainId domain, const CpuMask& mask,
                         std::optional<OrderPolicy> policy = std::nullopt);
  void stream_destroy(StreamId id);  ///< stream must be idle
  /// Drains a wedged stream's window: every action that has not started
  /// executing — undispatched actions plus dispatched event waits parked
  /// on unfired events — is completed as `cancelled` (its completion
  /// event still fires, so cross-stream waiters unblock). Actions whose
  /// effects are already in flight are left to finish. Returns the number
  /// of actions cancelled.
  std::size_t stream_cancel(StreamId id);
  [[nodiscard]] std::size_t stream_count() const;
  [[nodiscard]] DomainId stream_domain(StreamId id) const;
  [[nodiscard]] CpuMask stream_mask(StreamId id) const;
  [[nodiscard]] OrderPolicy stream_policy(StreamId id) const;
  /// Size in bytes of a registered buffer (graph capture/rebinding use).
  [[nodiscard]] std::size_t buffer_size(BufferId id) const;

  // --- Actions -----------------------------------------------------------
  /// Enqueues a compute task. Operands declare the proxy ranges the task
  /// reads/writes; they are the dependence analysis input.
  std::shared_ptr<EventState> enqueue_compute(
      StreamId stream, ComputePayload payload,
      std::span<const OperandRef> operands);

  /// Enqueues a transfer of [proxy, proxy+len) between the host
  /// incarnation and the stream's sink incarnation of the containing
  /// buffer. Host-as-target streams alias the transfer away.
  std::shared_ptr<EventState> enqueue_transfer(StreamId stream,
                                               const void* proxy,
                                               std::size_t len, XferDir dir);

  /// Enqueues a device->device transfer: [proxy, proxy+len) moves from
  /// `peer`'s incarnation into the stream's sink incarnation, staged
  /// through the host (the star topology has no direct device links).
  /// Executors pipeline the two hops in chunks above
  /// CoherenceConfig::pipeline_threshold, so large moves approach 2x the
  /// serial two-hop time. The host incarnation is refreshed as a side
  /// effect of the staging. `peer == kHostDomain` degenerates to a plain
  /// host->sink transfer.
  std::shared_ptr<EventState> enqueue_transfer_from(StreamId stream,
                                                    const void* proxy,
                                                    std::size_t len,
                                                    DomainId peer);

  /// Declares that host code wrote [proxy, proxy+len) directly (outside
  /// any enqueued action): device incarnations of the range are
  /// invalidated so later uploads are not elided against stale validity.
  /// Host writes that precede any device upload of the range need no
  /// declaration; writes *between* transfers of the same range do.
  void note_host_write(const void* proxy, std::size_t len);

  /// Enqueues an asynchronous sink-side allocation of `buffer`'s
  /// incarnation in the stream's domain (the §VII "forthcoming" feature:
  /// allocation pipelines behind other work instead of blocking the
  /// host). The buffer's budget is charged immediately; the modeled
  /// allocation time is paid in-stream. Later actions touching the
  /// buffer order after it via its whole-range operand.
  std::shared_ptr<EventState> enqueue_alloc(StreamId stream, BufferId buffer);

  /// Enqueues a wait on `event`. With operands, only later actions whose
  /// operands conflict are held back; with no operands the wait is a
  /// stream-wide barrier.
  std::shared_ptr<EventState> enqueue_event_wait(
      StreamId stream, std::shared_ptr<EventState> event,
      std::span<const OperandRef> operands = {});

  /// Enqueues a signal: the returned event fires once all earlier
  /// conflicting actions complete (all earlier actions if no operands).
  std::shared_ptr<EventState> enqueue_signal(
      StreamId stream, std::span<const OperandRef> operands = {});

  // --- Task-graph capture & replay (graph/) ---------------------------------
  /// Attaches/detaches the capture sink. While a sink is attached,
  /// enqueues into streams it claims are recorded as graph nodes instead
  /// of executing (and are not counted in the enqueue statistics).
  /// Exactly one capture may be active at a time.
  void set_capture(CaptureSink* sink);

  /// Admits one captured-graph launch as a single batch: one lock
  /// acquisition for the whole graph, and per-action dependence wiring
  /// that reuses the captured edges (`PrelinkedAction::preds`) instead of
  /// re-running the pairwise operand-conflict analysis. Actions are only
  /// scanned against the *residue* of earlier work still incomplete in
  /// their stream's window, so back-to-back replays pipeline with the
  /// same semantics eager enqueue would have. Entries must be ordered so
  /// every pred index refers to an earlier entry. `graph_id` tags the
  /// admitted actions (and their trace records).
  void admit_prelinked(std::span<const PrelinkedAction> batch,
                       std::uint32_t graph_id);

  /// Hands out the id of a finished capture (ids start at 1; 0 marks
  /// eager actions).
  [[nodiscard]] std::uint32_t note_graph_captured();

  // --- Synchronization (host side) ----------------------------------------
  void stream_synchronize(StreamId stream);
  void synchronize();  ///< all streams idle
  void event_wait_host(std::span<const std::shared_ptr<EventState>> events,
                       WaitMode mode = WaitMode::all);

  /// Deadline overloads: instead of blocking forever on a wedged stream,
  /// return Status{timed_out} after `timeout_s` seconds (wall seconds on
  /// the threaded backend, virtual seconds in simulation). On a drained
  /// wait, the oldest captured sink error (if any) is consumed and
  /// returned as a Status rather than rethrown.
  [[nodiscard]] Status synchronize(double timeout_s);
  [[nodiscard]] Status stream_synchronize(StreamId stream, double timeout_s);
  [[nodiscard]] Status event_wait_host(
      std::span<const std::shared_ptr<EventState>> events, WaitMode mode,
      double timeout_s);

  // --- Checkpoint support (checkpoint/) ------------------------------------
  /// Pulls every dirty range of `id` (device incarnations newer than the
  /// host) home through the evacuate sync-home path, without dropping any
  /// incarnation: after it returns ok, the host copy is the buffer's
  /// logical value over its whole extent. Quiesces the executor first;
  /// callers synchronize before asking (the checkpoint layer does).
  /// Errc::data_loss when a *dead* domain holds dirty ranges — the only
  /// current copy died with it; not_found for unknown ids.
  Status sync_home(BufferId id);
  /// Drains the buffer's changed-since-last-epoch ranges (see
  /// Buffer::take_ckpt_dirty). The epoch boundary: a subsequent call
  /// returns only changes made after this one.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  take_ckpt_dirty(BufferId id);
  /// Marks [offset, offset+len) changed-since-last-epoch (whole-buffer
  /// seeding when checkpoint tracking begins).
  void mark_ckpt_dirty(BufferId id, std::size_t offset, std::size_t len);
  /// Rebinds the tracked buffers of `manager` to this runtime's
  /// registered buffers, replays the last durable epoch's bytes into the
  /// host incarnations (declared via note_host_write, so device validity
  /// is invalidated and later uploads are not elided against stale
  /// state), and reports where execution should resume. Defined in
  /// checkpoint/checkpoint.cpp.
  Status restore_from_checkpoint(ckpt::CheckpointManager& manager,
                                 ckpt::RestoreInfo* info = nullptr);

  // --- Multi-tenant service mode (service/) --------------------------------
  /// Registers a tenant counter slice and returns its id (ids start at
  /// 1; 0 marks untagged work). Slices live for the runtime's lifetime.
  [[nodiscard]] std::uint32_t tenant_register();
  /// Number of registered tenants.
  [[nodiscard]] std::size_t tenant_count() const;
  /// Snapshot of one tenant's counter slice.
  [[nodiscard]] TenantStatsSlice tenant_slice(std::uint32_t tenant) const;
  /// Binds `stream` to (`tenant`, `session`): subsequent enqueues are
  /// stamped with the ids, counted into the tenant's slice, and gated by
  /// the admission hook. Bind before enqueuing (the binding is read
  /// without the stream lock on enqueue fast paths); tenant 0 unbinds.
  void stream_bind_tenant(StreamId stream, std::uint32_t tenant,
                          std::uint32_t session);
  /// The tenant a stream is bound to (0 = unbound).
  [[nodiscard]] std::uint32_t stream_tenant(StreamId stream) const;
  /// Installs the admission gate (nullptr detaches). The caller keeps
  /// ownership; the hook must outlive all runtime activity. Install
  /// before the first gated enqueue and detach only when idle.
  void set_admission_hook(AdmissionHook* hook) noexcept {
    admission_hook_.store(hook, std::memory_order_release);
  }

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] RuntimeStats stats() const { return counters_.totals(); }
  /// Adds `n` to counter `c` (core/counters.hpp) with one relaxed atomic
  /// add; lock-free, from any thread. A non-null `slice` (a tenant's
  /// cells, runtime-internal) takes the same add for a `tenant` row.
  void count(Counter c, std::uint64_t n = 1,
             CounterCells* slice = nullptr) const noexcept {
    counters_.add(c, n);
    if (slice != nullptr) {
      slice->add(c, n);
    }
  }
  [[nodiscard]] double now() const { return executor_->now(); }
  /// Attaches an execution-trace recorder (nullptr detaches). The caller
  /// keeps ownership; the recorder must outlive all runtime activity.
  void set_trace(TraceRecorder* trace) noexcept { trace_ = trace; }
  [[nodiscard]] OrderPolicy policy() const noexcept { return config_.policy; }
  [[nodiscard]] Executor& executor() noexcept { return *executor_; }
  [[nodiscard]] BufferPool& transfer_pool() noexcept { return pool_; }

  // --- Error containment ----------------------------------------------------
  /// A sink-side task body that throws does not crash the worker: the
  /// exception is captured, the action completes (its successors still
  /// run — matching an offload runtime, where a failed kernel cannot
  /// retract already-enqueued work), and captured errors are rethrown
  /// one per synchronize()/stream_synchronize() call, oldest first, from
  /// a bounded pending-error queue (so a second error captured between
  /// two sync calls is not lost). Returns whether an unreported sink
  /// error is pending.
  [[nodiscard]] bool has_pending_error() const;
  /// Drops all queued sink errors (recovery paths that already know the
  /// domain died). Returns how many were dropped.
  std::size_t clear_pending_errors();

  // --- Executor interface (not for application use) ------------------------
  /// Called by executors when an action's effects are complete. Ignored
  /// if the action was already completed by cancellation or domain loss.
  void complete_action(ActionId id);
  /// Called by executors when a task body threw; captures the error for
  /// the next synchronization point and completes the action.
  void fail_action(ActionId id, std::exception_ptr error);
  /// Decides attempt `attempt` (0-based) of transfer `action` into
  /// `sink`: the one place a transfer consults the FaultInjector (keyed
  /// by ActionRecord::transfer_seq, one decision per attempt however many
  /// chunks it moves), samples link health, applies RetryPolicy, counts
  /// transfers_retried and transfer_chunks, and escalates an injected
  /// device loss or retry exhaustion to mark_domain_lost. A transfer
  /// whose sink died while it queued, or a device->device move whose
  /// peer is lost (failed with device_lost), is `dropped`.
  [[nodiscard]] TransferAttempt transfer_attempt(const ActionRecord& action,
                                                 DomainId sink, int attempt);
  [[nodiscard]] FaultInjector& fault_injector() noexcept { return injector_; }
  /// Host-wait rendezvous lock + condition variable, used by
  /// Executor::wait implementations. Since the sharded-locking refactor
  /// this mutex no longer guards stream/dependence state — wait
  /// predicates are self-synchronizing — it only pairs with the
  /// condition variable so completion notifications are not lost.
  [[nodiscard]] std::mutex& mutex() noexcept { return mutex_; }
  [[nodiscard]] std::condition_variable& completion_cv() noexcept {
    return cv_;
  }

 private:
  /// An incomplete stream-wide barrier (event wait/signal with no
  /// operands): it conflicts with every action, so it cannot live in the
  /// byte-range index and is tracked by seq alongside it.
  struct BarrierRef {
    ActionId action;
    std::uint64_t seq = 0;
  };

  /// Per-stream admission state. `mu` serializes admissions into and
  /// completions out of this one stream; enqueues on different streams
  /// do not contend. Lock order: below streams_mutex_, above the dep
  /// shards (see DESIGN.md "Locking protocol").
  struct StreamState {
    StreamId id;
    DomainId domain;
    CpuMask mask;
    OrderPolicy policy;
    mutable std::mutex mu;
    std::uint64_t next_seq = 0;
    /// Incomplete actions in FIFO order (pending or dispatched).
    std::deque<std::shared_ptr<ActionRecord>> window;
    /// Byte-range dependence index over the incomplete window (relaxed
    /// streams on the index path only).
    StreamDepIndex index;
    /// Incomplete full-barrier actions, in seq order.
    std::vector<BarrierRef> barriers;
    /// Admission scratch (candidate uses), reused across admissions to
    /// keep the index fast path allocation-free. Guarded by `mu` like
    /// the index itself.
    mutable std::vector<DepUse> scratch_uses;
    /// Atomic so stream lookups need only the shared streams_mutex_.
    std::atomic<bool> alive{true};
    /// Service-mode binding (stream_bind_tenant). Written while the
    /// stream is quiescent, read lock-free on enqueue paths; `slice`
    /// points into tenant_slices_ (pointer-stable deque) so hot paths
    /// bump per-tenant counters without any tenant-table lock.
    std::atomic<std::uint32_t> tenant{0};
    std::atomic<std::uint32_t> session{0};
    std::atomic<CounterCells*> slice{nullptr};
  };

  // Dependence bookkeeping attached per action, keyed by id. The owning
  // shard's lock guards only the map's insert/find/erase; the fields are
  // mutated under the action's stream lock (values are pointer-stable
  // across rehash, and erasure happens only under that same stream lock).
  struct DepState {
    std::shared_ptr<ActionRecord> record;
    std::size_t blockers = 0;
    std::vector<ActionId> successors;
    StreamState* stream = nullptr;
  };

  /// One stripe of the action table. Striping by id keeps completions of
  /// unrelated actions off each other's locks.
  struct DepShard {
    std::mutex mu;
    std::unordered_map<ActionId, DepState> map;
  };
  static constexpr std::size_t kDepShards = 16;

  /// Self-locking lookups (shared streams_mutex_ inside); the returned
  /// reference stays valid for the runtime's lifetime (entries are
  /// pointer-stable and never erased).
  [[nodiscard]] StreamState& stream_state(StreamId id);
  [[nodiscard]] const StreamState& stream_state(StreamId id) const;
  /// Variants for callers already holding streams_mutex_ (shared_mutex
  /// acquisition is not recursive).
  [[nodiscard]] StreamState& stream_state_unlocked(StreamId id);
  [[nodiscard]] const StreamState& stream_state_unlocked(StreamId id) const;

  /// Locks `m`, counting a contended acquisition (try_lock miss) into
  /// lock_shard_contention.
  void lock_counted(std::mutex& m) const;

  [[nodiscard]] DepShard& shard_for(ActionId id) {
    return shards_[id.value % kDepShards];
  }
  /// Shard lookup; returns nullptr if absent. The returned pointer stays
  /// valid while the caller holds the action's stream lock (which blocks
  /// the only erasure path).
  [[nodiscard]] DepState* dep_find(ActionId id);

  /// Eager admission of one fully-formed record: gates it, wires it into
  /// its stream under the stream's lock, and dispatches it if already
  /// ready.
  std::shared_ptr<EventState> admit(StreamState& stream,
                                    std::shared_ptr<ActionRecord> record);

  /// The earlier work a newly admitted record is analyzed against: the
  /// first `window` window entries, equivalently the index uses with
  /// seq < `seq`. For an eager enqueue that is everything admitted so
  /// far; for a graph launch it is the pre-batch residue (edges among
  /// batch members come from the capture).
  struct Residue {
    std::size_t window = 0;
    std::uint64_t seq = 0;
  };

  /// The one per-record admission step, shared by eager and replayed
  /// actions (stream lock held): assigns id/seq/transfer_seq, adds the
  /// strict-FIFO chain edge or the residue blockers plus the captured
  /// `batch_preds` (indices into `batch`), inserts the record into the
  /// window, dependence index, barrier list and action table, counts the
  /// enqueue, and writes the trace enqueue record. Returns whether the
  /// record is ready to dispatch (already marked dispatched).
  bool wire_locked(StreamState& stream,
                   const std::shared_ptr<ActionRecord>& record,
                   Residue residue,
                   std::span<const PrelinkedAction> batch = {},
                   std::span<const std::uint32_t> batch_preds = {});

  /// Computes this record's blockers among the first `limit` window
  /// entries by the pairwise scan (stream lock held) — the reference
  /// semantics dep_oracle checks the index against.
  [[nodiscard]] std::vector<ActionId> legacy_blockers(
      const StreamState& stream, const ActionRecord& record,
      std::size_t limit) const;

  /// Computes blockers among the residue via the per-buffer interval
  /// index + live-barrier list (stream lock held), deduped and in
  /// admission (seq) order. Cross-checks against legacy_blockers when
  /// the oracle is on.
  [[nodiscard]] std::vector<ActionId> indexed_blockers(
      const StreamState& stream, const ActionRecord& record,
      Residue residue) const;

  /// Service-mode pre-admission: stamps the stream's tenant/session
  /// binding onto `record` and, when an admission hook is installed,
  /// runs before_admit (which may block for a fair-turn or throw
  /// quota_exceeded) with the transfer length (0 for computes/syncs) and
  /// the bytes `held` by earlier records of the same launch.
  /// Runs *before* any stream/shard lock is taken, so a blocked tenant
  /// holds nothing another tenant's enqueue or completion needs.
  void tag_and_gate(const StreamState& stream, ActionRecord& record,
                    std::size_t held = 0);

  /// Releases the fair-turn permit of a gated record whose admission
  /// finished (runs outside all runtime locks).
  void release_turn(const ActionRecord& record) noexcept;
  /// Settles a gated record's byte charge, exactly once: at completion,
  /// or when a refused launch never admits it (outside all locks).
  void settle_gate(const ActionRecord& record) noexcept;

  /// The per-tenant counter slice for `stream`'s binding (nullptr when
  /// unbound). Lock-free.
  [[nodiscard]] CounterCells* slice_of(const StreamState& stream) const {
    return stream.slice.load(std::memory_order_acquire);
  }

  /// Hands a ready action to the executor (no lock held).
  void dispatch(const std::shared_ptr<ActionRecord>& record);

  /// Online transfer elision, decided at dispatch time (every conflicting
  /// predecessor has completed, so the validity state of the range is
  /// settled). Returns true — after marking the record elided and
  /// counting stats — when source and destination incarnations are both
  /// valid over the transferred range (plus the host for device->device
  /// moves), i.e. the copy would move byte-identical data. Under the
  /// coherence oracle the claim is verified with memcmp first.
  [[nodiscard]] bool try_elide(const std::shared_ptr<ActionRecord>& record);

  /// Entry for an action whose completion is already claimed: pushes it
  /// onto the MPSC completion queue; the first pusher becomes the
  /// drainer and applies queued completions in FIFO order (single
  /// unblocking pass — deterministic, and recursion through completion
  /// callbacks stays bounded).
  void finish_action(std::shared_ptr<ActionRecord> record);

  /// Applies one completion: index/window maintenance, successor
  /// unblocking, completion-event fire, waiter notification.
  void process_completion(const std::shared_ptr<ActionRecord>& record);

  /// Queues a captured sink error (mutex_ held). The queue is bounded;
  /// overflow drops the newest error after logging it.
  void push_pending_error(std::exception_ptr error);

  /// Pops and converts the oldest pending error, ok() if none (no lock
  /// held on entry).
  [[nodiscard]] Status take_pending_status();

  /// Throws Errc::device_lost unless the domain is alive (lock-free).
  void require_domain_alive(DomainId id) const;

  /// Folds one transfer-attempt outcome into `domain`'s health EWMA
  /// (mutex_ held); counts degradation transitions.
  void health_sample(DomainId id, double outcome);

  /// True when every stream's window is empty (self-locking).
  [[nodiscard]] bool all_streams_idle() const;
  /// True when `stream`'s window is empty (self-locking).
  [[nodiscard]] bool stream_idle(StreamId stream) const;

  /// Wakes host waiters after a state change, with the mutex_ fence that
  /// prevents lost wakeups (waiters re-check predicates under mutex_).
  void notify_waiters();

  // --- Out-of-core memory governor (DESIGN.md "Out-of-core eviction") ---
  /// Admits (id, domain) into the budget for `kind` with `pins` initial
  /// pins, evicting idle incarnations while the budget is exceeded
  /// (gov_mu_ held). Already resident: only a recency touch, so callers
  /// that pin check residency first. A non-null `stall_s` accumulates
  /// the modeled seconds of victim writeback so simulated executors can
  /// charge it to the triggering action. Throws Errc::resource_exhausted
  /// when the budget cannot hold the buffer (eviction disabled, or every
  /// resident incarnation pinned).
  void govern_admit_locked(BufferId id, DomainId domain, MemKind kind,
                           std::size_t bytes, std::uint32_t pins,
                           double* stall_s);
  /// Spills one idle incarnation of (domain, kind): dirty ranges sync
  /// home (validity-map minimized), clean ranges drop free, the Buffer is
  /// deinstantiated and marked spilled for demand re-fetch. Throws
  /// Errc::resource_exhausted when every resident incarnation is pinned.
  /// Returns the modeled writeback seconds (gov_mu_ held).
  double evict_one_locked(DomainId domain, MemKind kind);
  /// Makes every incarnation `record` touches (sink-domain operands,
  /// transfer sink + d2d peer) resident and pinned, all or nothing, so
  /// in-flight actions' operands are never eviction victims; then
  /// re-uploads the spilled ranges the action reads. Called from
  /// dispatch, before try_elide, outside all locks. The residency
  /// decision is one gov_mu_ section: when the action's unpinned operand
  /// bytes do not fit beside the bytes other actions pin, it parks in
  /// ooc_deferred_ without evicting or pinning anything and returns
  /// false. Pins are recorded in record->pins and released exactly once
  /// in process_completion; once released — the action was claimed while
  /// its dispatch still ran — it pins nothing more. Throws to fail the
  /// action (its own operands can never fit, eviction is disabled, or the
  /// admission hook vetoed a refetch).
  bool prepare_residency(const std::shared_ptr<ActionRecord>& record);
  /// Releases the pins recorded in `record->pins` and closes the list
  /// (outside all locks). Returns true when the completion owes the wait
  /// list a wake pass: pins were released, or record->wake_owed.
  bool release_pins(const std::shared_ptr<ActionRecord>& record);
  /// One FIFO pass over the out-of-core wait list: re-dispatches each
  /// parked action whose cached need now fits beside the pinned bytes
  /// and the needs already woken in this pass; keeps the rest in order.
  /// Called outside all locks whenever pins drop or budget capacity
  /// frees (completion, deinstantiate, destroy), and at the completion
  /// of a woken action that left its promised bytes unused.
  void retry_deferred();

  RuntimeConfig config_;
  std::unique_ptr<Executor> executor_;
  Topology topology_;
  BufferPool pool_;

  /// Host-wait rendezvous only (see mutex()); also guards the cold state
  /// below that is not worth its own lock: health_, pending_errors_,
  /// injector decisions, and domain-loss transitions.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Guards the BufferPool's accounting (executor threads stage
  /// transfers concurrently).
  std::mutex pool_mutex_;

  /// Deque, not vector: Domain holds an atomic and never relocates.
  std::deque<Domain> domains_;
  /// Per-domain link health, indexed by domain id (host entry unused).
  std::vector<LinkHealth> health_;
  /// Per-domain enqueue-order transfer ids (the FaultInjector identity
  /// key), indexed by domain id. Sized once at construction.
  std::vector<std::atomic<std::uint64_t>> next_transfer_seq_;

  /// Guards the streams_ vector itself (create/destroy take it
  /// exclusively; lookups shared). Entries are pointer-stable.
  mutable std::shared_mutex streams_mutex_;
  std::vector<std::unique_ptr<StreamState>> streams_;

  /// Guards the BufferTable's structure (create/destroy exclusive,
  /// lookups shared); each Buffer's own state has a leaf lock.
  mutable std::shared_mutex buffers_mutex_;
  BufferTable buffers_;
  /// Serializes budget admission and eviction. Sits ABOVE buffers_mutex_
  /// in the lock order (gov_mu_ -> buffers_mutex_ shared -> Buffer::mu_):
  /// eviction writes dirty ranges home and deinstantiates victims while
  /// holding it, so residency decisions are atomic with the spill.
  /// Never taken while holding a stream, shard, or buffer lock.
  mutable std::mutex gov_mu_;
  /// Per-(domain, kind) budget ledger + resident-incarnation LRU/pin
  /// bookkeeping (gov_mu_).
  MemoryGovernor governor_;
  /// An action parked by out-of-core backpressure: its unpinned operand
  /// bytes on (domain, kind) did not fit beside the bytes other in-flight
  /// actions pin there.
  struct ParkedDispatch {
    std::shared_ptr<ActionRecord> record;
    DomainId domain;
    MemKind kind = MemKind::ddr;
    std::size_t need = 0;  ///< bytes it must pin there, at park time
  };
  /// The out-of-core wait list, oldest first. retry_deferred() wakes the
  /// entries whose need fits (gov_mu_ guards the list; dispatch happens
  /// outside it).
  std::vector<ParkedDispatch> ooc_deferred_;

  /// The striped action table (formerly one `deps_` map).
  std::array<DepShard, kDepShards> shards_;

  /// MPSC completion queue: producers are executor threads and
  /// cancellation paths; the first pusher drains (completion_draining_).
  std::mutex completion_mutex_;
  std::deque<std::shared_ptr<ActionRecord>> completion_queue_;
  bool completion_draining_ = false;

  /// One global atomic keeps ActionIds in enqueue order (ids assigned
  /// under the stream lock stay monotone within each stream's window).
  std::atomic<std::uint32_t> next_action_id_{0};
  std::atomic<std::uint32_t> next_graph_id_{1};  ///< 0 marks eager actions
  std::atomic<CaptureSink*> capture_{nullptr};
  /// Tenant counter slices, indexed by tenant id - 1. Deque: entries are
  /// pointer-stable, so StreamState::slice and hot paths never take
  /// tenants_mutex_ (which guards only registration and snapshots).
  std::deque<CounterCells> tenant_slices_;
  mutable std::shared_mutex tenants_mutex_;
  std::atomic<AdmissionHook*> admission_hook_{nullptr};
  /// Every counter's global total. Mutable: const introspection paths
  /// still count scan steps.
  mutable CounterCells counters_;
  /// Unreported sink errors, oldest first (bounded; see push_pending_error).
  std::deque<std::exception_ptr> pending_errors_;
  FaultInjector injector_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace hs
