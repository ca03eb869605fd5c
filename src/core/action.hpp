#pragma once

// Action records: the unit of work enqueued into a stream.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/buffer.hpp"
#include "core/event.hpp"
#include "core/types.hpp"

namespace hs {

class TaskContext;

/// Compute payload: a task body plus the hints cost models consume.
struct ComputePayload {
  std::function<void(TaskContext&)> body;
  std::string kernel = "task";  ///< cost-model key ("dgemm", "dpotrf", ...)
  double flops = 0.0;           ///< work estimate for GF/s and sim timing
  /// Additional modeled per-task cost charged by layered runtimes (the
  /// OmpSs front-end charges its dynamic task instantiation/scheduling
  /// overhead here; §III reports it at 15-50%).
  double layered_overhead_s = 0.0;
};

/// Transfer payload: moves `length` bytes of one buffer region between
/// the host incarnation and the sink-domain incarnation — or, when
/// `peer` names a device, from the peer incarnation to the sink
/// incarnation, staged through the host (the star topology's two-hop
/// device<->device path, pipelined in chunks by the executors).
struct TransferPayload {
  BufferId buffer;
  std::size_t offset = 0;
  std::size_t length = 0;
  XferDir dir = XferDir::src_to_sink;
  /// Source domain for device->device transfers; kHostDomain for the
  /// ordinary host<->sink forms.
  DomainId peer = kHostDomain;
};

/// One enqueued action. Owned by the runtime until completion.
struct ActionRecord {
  ActionId id;
  StreamId stream;
  ActionType type = ActionType::compute;
  std::uint64_t seq = 0;  ///< position within the stream's FIFO order
  /// For transfers on device streams: per-domain enqueue-order transfer
  /// id, assigned under the runtime lock at admission. This is the stable
  /// identity the FaultInjector keys decisions by — unlike dispatch or
  /// copier order, it does not depend on thread interleaving.
  std::uint64_t transfer_seq = 0;
  /// Id of the TaskGraph this action was replayed from (0 = eager
  /// enqueue). Carried into the trace so replayed spans are attributable.
  std::uint32_t graph = 0;
  /// Tenant and session that enqueued this action (0 = untagged: work
  /// outside the service layer). Stamped at admission from the stream's
  /// binding; carried into the trace so per-tenant timelines separate.
  std::uint32_t tenant = 0;
  std::uint32_t session = 0;
  /// True when an AdmissionHook::before_admit accepted this action; its
  /// on_complete is owed exactly once at completion (including
  /// cancellation and failure, so gate permits never leak).
  bool gated = false;

  /// Declared memory operands; the dependence analysis domain.
  std::vector<Operand> operands;

  /// Full-barrier actions conflict with every other action in the stream
  /// (a stream-wide synchronization; also used by strict-FIFO policy
  /// emulation of legacy sync APIs).
  bool full_barrier = false;

  ComputePayload compute;
  TransferPayload transfer;
  std::shared_ptr<EventState> wait_event;  ///< for event_wait actions

  /// Completion event; always present so cross-stream deps can attach.
  std::shared_ptr<EventState> completion = std::make_shared<EventState>();

  enum class State : std::uint8_t { pending, dispatched, done };
  State state = State::pending;

  /// Completion ownership. Exactly one path may complete an action: the
  /// executor's `done` callback in the common case, or the runtime itself
  /// when the action is cancelled or its domain is lost. The first path to
  /// set `claimed` (under the runtime lock) wins; late completions from
  /// the other path are ignored, which is what makes failure exactly-once.
  bool claimed = false;
  /// Set by stream_cancel / domain loss: the action completed without its
  /// effects having run.
  bool cancelled = false;
  /// Set by fail_action: the action's body threw (its effects are
  /// suspect). Recovery planning treats failed and cancelled records as
  /// seeds of the re-execution set.
  bool failed = false;
  /// Set by the runtime's online transfer elision: the destination range
  /// was already byte-identical to the source, so the transfer completed
  /// as a zero-cost no-op (never reached an executor; FIFO and event
  /// semantics unchanged).
  bool elided = false;
  /// Set (under the governor lock) when process_completion released the
  /// pins: a dispatch still pinning for this claimed action pins nothing
  /// more, so no pin outlives the action.
  bool pins_released = false;
  /// Set (under the governor lock) while this action's completion owes
  /// the out-of-core wait list a wake pass even if it releases no pins:
  /// a pass woke it and its dispatch has not pinned or parked again yet
  /// (the bytes that pass promised it are unused), or a refetch veto
  /// dropped pins it had taken.
  bool wake_owed = false;

  /// Residency pins taken at dispatch (Runtime::prepare_residency):
  /// (buffer, domain) incarnations that must not be evicted while this
  /// action is in flight. Guarded by the governor lock. Released exactly
  /// once in process_completion — on success, failure, cancellation, and
  /// elision alike. One entry per pin call, so duplicates (a compute with
  /// two operands on one buffer) balance.
  std::vector<std::pair<BufferId, DomainId>> pins;
  /// Modeled seconds of out-of-core work charged to this action at
  /// dispatch: victim writeback performed to admit its operands plus
  /// demand re-fetch uploads of spilled ranges. Simulated executors add
  /// it to the action's virtual duration; threaded execution pays the
  /// real memcpy cost on the dispatching thread and ignores this field.
  double ooc_stall_s = 0.0;

  /// True if this action's operands (or barrier flag) conflict with an
  /// earlier action's. This pairwise test is the *reference* dependence
  /// semantics: the admission fast path derives the same edge set from
  /// the per-stream interval index (core/buffer.hpp), and the
  /// RuntimeConfig::dep_oracle debug mode cross-checks the two on every
  /// admission.
  [[nodiscard]] bool conflicts_with(const ActionRecord& earlier) const {
    if (full_barrier || earlier.full_barrier) {
      return true;
    }
    for (const Operand& mine : operands) {
      for (const Operand& theirs : earlier.operands) {
        if (mine.conflicts_with(theirs)) {
          return true;
        }
      }
    }
    return false;
  }
};

}  // namespace hs
