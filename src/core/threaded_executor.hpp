#pragma once

// ThreadedExecutor: the functional backend.
//
// Runs compute actions on real per-domain worker pools (one Team per
// stream, mapped from the stream's CPU mask), transfers on a small
// dedicated copier pool, and waits/signals without occupying any thread.
// Time is the wall clock. This backend is what tests and examples use to
// check that the runtime's semantics produce correct data.
//
// Because the evaluation container has a single physical core, pool sizes
// are capped (`max_workers_per_domain`): a stream's logical mask is folded
// onto the available workers, preserving semantics (FIFO order per team
// leader) while bounding oversubscription.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "core/executor.hpp"
#include "threading/team.hpp"
#include "threading/thread_pool.hpp"

namespace hs {

struct ThreadedExecutorConfig {
  std::size_t max_workers_per_domain = 8;
  std::size_t transfer_workers = 2;
  /// If > 0, transfers sleep model_time * time_dilation to emulate link
  /// pacing in wall time (off by default; tests want speed).
  double time_dilation = 0.0;
};

class ThreadedExecutor final : public Executor {
 public:
  explicit ThreadedExecutor(ThreadedExecutorConfig config = {});
  ~ThreadedExecutor() override;

  void attach(Runtime& runtime) override;
  void execute(const std::shared_ptr<ActionRecord>& action,
               CompletionFn done) override;
  void wait(const std::function<bool()>& ready) override;
  bool wait_for(const std::function<bool()>& ready,
                double timeout_s) override;
  void quiesce() override;
  [[nodiscard]] double now() const override;

 private:
  struct TeamEntry {
    std::unique_ptr<Team> team;
    std::size_t logical_width = 0;
  };

  [[nodiscard]] ThreadPool& domain_pool(DomainId domain);
  [[nodiscard]] TeamEntry& stream_team(StreamId stream);

  void run_compute(const std::shared_ptr<ActionRecord>& action,
                   CompletionFn done);
  void run_transfer(const std::shared_ptr<ActionRecord>& action,
                    CompletionFn done);
  /// The one transfer entry point: queues attempt `attempt` on a copier,
  /// which asks Runtime::transfer_attempt for its verdict and pays it in
  /// wall time. A retry is a timed resubmit via the retry timer instead
  /// of a sleeping copier (which would head-of-line block unrelated
  /// transfers sharing it); the in-flight claim (begin_work) is held
  /// across resubmits. A device->device move is the two-hop staging
  /// path, pipelined for real across copiers: the peer->host hop runs its
  /// chunks serially on the attempt's copier, and each landed chunk
  /// enqueues its host->sink hop onto the *next* copier (per-copier FIFO
  /// keeps hop 2 serial and ordered), so with >= 2 copiers the hops
  /// overlap. Completion fires when the last hop-2 chunk lands.
  void submit_transfer(std::shared_ptr<ActionRecord> action, DomainId sink,
                       int attempt, CompletionFn done);
  /// The copy of one hop: [off, off + len) of `action`'s range between
  /// the host and `device`, in direction `dir` (skipped when `device` is
  /// lost), then, with time_dilation, the link's modeled time for `len`
  /// bytes slept in scaled wall time.
  void copy_hop(const ActionRecord& action, DomainId device, XferDir dir,
                std::size_t off, std::size_t len);

  // In-flight work accounting for quiesce(): a claimed-failed action's
  // body may still be running on a pool thread after its window entry
  // drained; storage reclamation (Runtime::evacuate) must outwait it.
  void begin_work();
  void end_work();

  /// Timer thread for transfer-retry backoffs: closures run after their
  /// deadline on the timer thread (which immediately hands the attempt
  /// back to a copier). Keeping backoffs here instead of sleeping in the
  /// copier keeps copiers available for unrelated transfers.
  class RetryTimer {
   public:
    ~RetryTimer();
    void schedule_after(double delay_s, std::function<void()> fn);

   private:
    void timer_main();

    using Clock = std::chrono::steady_clock;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::multimap<Clock::time_point, std::function<void()>> pending_;
    bool stop_ = false;
    std::thread thread_;  // started lazily on first schedule
  };

  ThreadedExecutorConfig config_;
  Runtime* runtime_ = nullptr;
  // In-flight accounting, declared before every thread owner so it is
  // destroyed after them: pool threads (and retries the timer hands back
  // at shutdown) call end_work() until their pools have joined.
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::size_t in_flight_ = 0;
  std::mutex setup_mutex_;  // guards lazily-built pools/teams
  std::map<DomainId, std::unique_ptr<ThreadPool>> pools_;
  std::map<StreamId, TeamEntry> teams_;
  std::unique_ptr<ThreadPool> copiers_;
  // Declared after copiers_: destroyed first, so a late-firing retry can
  // still resubmit into a live copier pool during teardown.
  std::unique_ptr<RetryTimer> retry_timer_;
  std::atomic<std::size_t> next_copier_{0};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace hs
