#pragma once

// Executor: the pluggable backend that runs dependence-ready actions.
//
// The Runtime owns all *semantics* — FIFO windows, operand conflict
// analysis, event plumbing. An Executor owns *time and resources*: where
// and when a ready action actually runs. Two implementations exist:
//
//  * ThreadedExecutor (core/threaded_executor.hpp): real worker threads
//    per domain, real memcpy transfers. Functional backend for tests and
//    examples.
//  * SimExecutor (sim/sim_executor.hpp): single-threaded discrete-event
//    simulation against calibrated cost models — the stand-in for the
//    paper's Xeon + Xeon Phi testbed.
//
// Neither decides what a transfer attempt does: each asks
// Runtime::transfer_attempt, which owns the fault model
// (RuntimeConfig::faults), link health, retry policy and escalation to
// device loss, and pays the verdict in its own clock — a link stall or
// backoff as wall time on the threaded backend (a retry as a timed
// resubmit), as virtual time in the simulator.

#include <functional>
#include <memory>

#include "core/action.hpp"
#include "core/types.hpp"

namespace hs {

class Runtime;

/// Completion callback handed to Executor::execute. Executors invoke it
/// at most once, after the action's effects are visible; the runtime
/// ignores it if the action was already completed by cancellation or
/// domain loss.
using CompletionFn = std::function<void()>;

class Executor {
 public:
  virtual ~Executor() = default;

  /// Binds the executor to its runtime. Called once from the Runtime
  /// constructor, before any action is enqueued.
  virtual void attach(Runtime& runtime) = 0;

  /// Runs a dependence-ready action. Must not be called twice for the
  /// same action. The executor performs the action's effects (compute
  /// body, memcpy between incarnations, event wait/signal) and then calls
  /// `done`. The shared_ptr keeps the record alive across asynchronous
  /// continuations even if the runtime completes the action early
  /// (cancellation, domain loss).
  virtual void execute(const std::shared_ptr<ActionRecord>& action,
                       CompletionFn done) = 0;

  /// Blocks the host until `ready()` returns true. `ready` is
  /// self-synchronizing (the runtime's wait predicates take the locks
  /// they need); executors hold Runtime::mutex() only to pair the check
  /// with Runtime::completion_cv() so completion notifications are not
  /// lost. Executors that make progress on the calling thread (the
  /// simulator) advance their clock between polls.
  virtual void wait(const std::function<bool()>& ready) = 0;

  /// Deadline flavor of wait: returns false if `ready()` still does not
  /// hold after `timeout_s` seconds (wall seconds on the threaded
  /// backend, virtual seconds in the simulator).
  virtual bool wait_for(const std::function<bool()>& ready,
                        double timeout_s) = 0;

  /// Blocks until no action effects are in flight on executor-owned
  /// threads. Used before reclaiming storage (Runtime::evacuate): a
  /// claimed-failed action's body may still be running when its window
  /// entry has already drained. Single-threaded backends are trivially
  /// quiescent.
  virtual void quiesce() {}

  /// Whether this backend performs payload side effects (task bodies,
  /// transfer copies). Timing-only simulation turns them off; data
  /// movement in Runtime::evacuate is skipped accordingly.
  [[nodiscard]] virtual bool executes_payloads() const { return true; }

  /// Current time in seconds: wall clock for threaded execution, virtual
  /// clock for simulation.
  [[nodiscard]] virtual double now() const = 0;
};

}  // namespace hs
