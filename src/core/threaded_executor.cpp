#include "core/threaded_executor.hpp"

#include <chrono>
#include <cstring>
#include <vector>

#include "core/runtime.hpp"

namespace hs {

ThreadedExecutor::ThreadedExecutor(ThreadedExecutorConfig config)
    : config_(config), epoch_(std::chrono::steady_clock::now()) {
  require(config_.max_workers_per_domain > 0, "need at least one worker");
  require(config_.transfer_workers > 0, "need at least one copier");
}

ThreadedExecutor::~ThreadedExecutor() = default;

void ThreadedExecutor::attach(Runtime& runtime) {
  runtime_ = &runtime;
  copiers_ = std::make_unique<ThreadPool>(config_.transfer_workers);
  retry_timer_ = std::make_unique<RetryTimer>();
}

// --- RetryTimer --------------------------------------------------------------

ThreadedExecutor::RetryTimer::~RetryTimer() {
  std::vector<std::function<void()>> leftovers;
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
    // Deadlines no longer matter: hand every pending retry back now so
    // held resources (in-flight claims, completion callbacks) unwind
    // through the normal attempt path.
    for (auto& [deadline, fn] : pending_) {
      leftovers.push_back(std::move(fn));
    }
    pending_.clear();
    cv_.notify_all();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  for (auto& fn : leftovers) {
    fn();
  }
}

void ThreadedExecutor::RetryTimer::schedule_after(double delay_s,
                                                  std::function<void()> fn) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(delay_s));
  {
    const std::scoped_lock lock(mutex_);
    require(!stop_, "RetryTimer used after shutdown", Errc::internal);
    pending_.emplace(deadline, std::move(fn));
    if (!thread_.joinable()) {
      thread_ = std::thread([this] { timer_main(); });
    }
    // Notified under the lock: ~RetryTimer cannot destroy cv_ while a
    // scheduler is still inside notify_all.
    cv_.notify_all();
  }
}

void ThreadedExecutor::RetryTimer::timer_main() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (stop_) {
      return;
    }
    if (pending_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      continue;
    }
    const auto next = pending_.begin()->first;
    if (Clock::now() < next) {
      cv_.wait_until(lock, next);
      continue;
    }
    auto fn = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    lock.unlock();
    fn();
    lock.lock();
  }
}

double ThreadedExecutor::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count();
}

void ThreadedExecutor::begin_work() {
  const std::scoped_lock lock(work_mutex_);
  ++in_flight_;
}

void ThreadedExecutor::end_work() {
  // Notified under the lock, so a quiesce() that returns (and lets the
  // owner tear the executor down) never races a notify still running.
  const std::scoped_lock lock(work_mutex_);
  --in_flight_;
  work_cv_.notify_all();
}

void ThreadedExecutor::quiesce() {
  std::unique_lock lock(work_mutex_);
  work_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

ThreadPool& ThreadedExecutor::domain_pool(DomainId domain) {
  const std::scoped_lock lock(setup_mutex_);
  auto it = pools_.find(domain);
  if (it == pools_.end()) {
    const std::size_t workers =
        std::min(runtime_->domain(domain).hw_threads(),
                 config_.max_workers_per_domain);
    it = pools_.emplace(domain, std::make_unique<ThreadPool>(workers)).first;
  }
  return *it->second;
}

ThreadedExecutor::TeamEntry& ThreadedExecutor::stream_team(StreamId stream) {
  // Resolve pool outside setup_mutex_ to avoid self-deadlock.
  const DomainId domain = runtime_->stream_domain(stream);
  ThreadPool& pool = domain_pool(domain);

  const std::scoped_lock lock(setup_mutex_);
  auto it = teams_.find(stream);
  if (it == teams_.end()) {
    const CpuMask logical = runtime_->stream_mask(stream);
    // Fold the logical mask onto the (possibly smaller) physical pool.
    CpuMask physical;
    for (const std::size_t cpu : logical.cpus()) {
      physical.set(cpu % pool.worker_count());
    }
    TeamEntry entry;
    entry.team = std::make_unique<Team>(pool, physical);
    entry.logical_width = logical.count();
    it = teams_.emplace(stream, std::move(entry)).first;
  }
  return it->second;
}

void ThreadedExecutor::execute(const std::shared_ptr<ActionRecord>& action,
                               CompletionFn done) {
  switch (action->type) {
    case ActionType::compute:
      run_compute(action, std::move(done));
      return;
    case ActionType::transfer:
      run_transfer(action, std::move(done));
      return;
    case ActionType::event_wait:
      // Completes when the event fires; no thread is parked (§IV: "This
      // can save CPU spinning time").
      action->wait_event->on_fire(std::move(done));
      return;
    case ActionType::event_signal:
      // The action's own completion event *is* the signal.
      done();
      return;
    case ActionType::alloc:
      // Incarnation storage materializes lazily on first touch; the
      // wall-clock cost of the reservation itself is negligible here.
      done();
      return;
  }
}

void ThreadedExecutor::run_compute(const std::shared_ptr<ActionRecord>& action,
                                   CompletionFn done) {
  TeamEntry& entry = stream_team(action->stream);
  const DomainId domain = runtime_->stream_domain(action->stream);
  begin_work();
  entry.team->run_async([this, action, domain, logical = entry.logical_width,
                         done = std::move(done)](Team& team) {
    if (!runtime_->domain_alive(domain)) {
      // The domain died after dispatch; the runtime already failed this
      // action (the claim makes `done` a no-op). Skip the body so a dead
      // device produces no further side effects.
      end_work();
      done();
      return;
    }
    TaskContext ctx(*runtime_, domain, &team, logical, action.get());
    try {
      action->compute.body(ctx);
    } catch (...) {
      // Contain sink-side failures: the worker must survive, and the
      // error surfaces at the caller's next synchronization point.
      runtime_->fail_action(action->id, std::current_exception());
      end_work();
      return;
    }
    end_work();
    done();
  });
}

void ThreadedExecutor::run_transfer(const std::shared_ptr<ActionRecord>& action,
                                    CompletionFn done) {
  const DomainId domain = runtime_->stream_domain(action->stream);
  if (domain == kHostDomain) {
    // Host-as-target stream: both incarnations alias the user memory;
    // "any transfers en-queued in host streams are aliased and optimized
    // away" (§V).
    done();
    return;
  }
  begin_work();
  submit_transfer(action, domain, 0, std::move(done));
}

void ThreadedExecutor::submit_transfer(std::shared_ptr<ActionRecord> action,
                                       DomainId sink, int attempt,
                                       CompletionFn done) {
  const std::size_t copier =
      next_copier_.fetch_add(1, std::memory_order_relaxed) %
      copiers_->worker_count();
  copiers_->submit(copier, [this, copier, action = std::move(action), sink,
                            attempt, done = std::move(done)]() mutable {
    const TransferAttempt a =
        runtime_->transfer_attempt(*action, sink, attempt);
    if (a.verdict == TransferAttempt::Verdict::dropped) {
      end_work();
      done();  // the runtime already failed the action: a no-op
      return;
    }
    if (a.verdict == TransferAttempt::Verdict::retry) {
      // Requeue instead of sleeping: the copier stays free for other
      // domains' transfers while this one waits out its backoff (a
      // sleeping copier would head-of-line block everything sharing it).
      // The in-flight claim stays held so quiesce() outwaits the retry.
      retry_timer_->schedule_after(
          a.backoff_s, [this, action = std::move(action), sink, attempt,
                        done = std::move(done)]() mutable {
            submit_transfer(std::move(action), sink, attempt + 1,
                            std::move(done));
          });
      return;
    }
    if (a.stall_s > 0.0) {
      // The attempt succeeds, just late: pay the added latency in wall
      // time, then proceed with the copy.
      std::this_thread::sleep_for(std::chrono::duration<double>(a.stall_s));
    }
    const TransferPayload& t = action->transfer;
    if (t.peer == kHostDomain) {
      runtime_->account_transfer_staging(t.length);
      copy_hop(*action, sink, t.dir, 0, t.length);
      end_work();
      done();
      return;
    }
    struct Joint {
      std::atomic<std::size_t> remaining{0};
      CompletionFn done;
    };
    auto joint = std::make_shared<Joint>();
    const std::size_t count = (t.length + a.chunk - 1) / a.chunk;
    joint->remaining.store(count, std::memory_order_relaxed);
    joint->done = std::move(done);
    // Per-copier FIFO keeps hop 2 serial and in chunk order; picking the
    // *next* copier makes the two hops run on different threads when the
    // pool has more than one, which is where the overlap comes from.
    const std::size_t hop2_copier = (copier + 1) % copiers_->worker_count();
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t off = i * a.chunk;
      const std::size_t len = std::min(a.chunk, t.length - off);
      // Hop 1: peer -> host staging row, serial on this copier.
      runtime_->account_transfer_staging(len);
      copy_hop(*action, t.peer, XferDir::sink_to_src, off, len);
      // Hop 2: host staging row -> sink, chased chunk by chunk.
      copiers_->submit(hop2_copier, [this, action, sink, off, len, joint] {
        copy_hop(*action, sink, XferDir::src_to_sink, off, len);
        if (joint->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          end_work();
          joint->done();
        }
      });
    }
  });
}

void ThreadedExecutor::copy_hop(const ActionRecord& action, DomainId device,
                                XferDir dir, std::size_t off,
                                std::size_t len) {
  const TransferPayload& t = action.transfer;
  if (runtime_->domain_alive(device)) {
    std::byte* host =
        runtime_->buffer_local(t.buffer, kHostDomain, t.offset + off, len);
    std::byte* dev =
        runtime_->buffer_local(t.buffer, device, t.offset + off, len);
    if (dir == XferDir::src_to_sink) {
      std::memcpy(dev, host, len);
    } else {
      std::memcpy(host, dev, len);
    }
  }
  if (config_.time_dilation > 0.0) {
    const double modeled = runtime_->link_for(device).transfer_seconds(len);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(modeled * config_.time_dilation));
  }
}

void ThreadedExecutor::wait(const std::function<bool()>& ready) {
  // mutex() is the cv rendezvous only: the predicate takes the stream /
  // buffer locks it needs itself. Completers enter an empty mutex()
  // critical section before notifying (Runtime::notify_waiters), so a
  // completion cannot slip wholly between our predicate check and the cv
  // wait — the lost-wakeup fence survives the sharded-locking refactor.
  std::unique_lock lock(runtime_->mutex());
  runtime_->completion_cv().wait(lock, ready);
}

bool ThreadedExecutor::wait_for(const std::function<bool()>& ready,
                                double timeout_s) {
  std::unique_lock lock(runtime_->mutex());
  return runtime_->completion_cv().wait_for(
      lock, std::chrono::duration<double>(timeout_s), ready);
}

}  // namespace hs
