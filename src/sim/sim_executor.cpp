#include "sim/sim_executor.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "core/runtime.hpp"

namespace hs::sim {

SimExecutor::SimExecutor(SimExecutorConfig config)
    : config_(std::move(config)) {
  require(!config_.models.empty(), "SimExecutor needs device models");
}

SimExecutor::SimExecutor(const SimPlatform& platform, bool execute_payloads)
    : SimExecutor(SimExecutorConfig{platform.models, execute_payloads}) {}

void SimExecutor::attach(Runtime& runtime) {
  runtime_ = &runtime;
  require(config_.models.size() >= runtime.domain_count(),
          "missing device models for some domains");
}

const DeviceModel& SimExecutor::model(DomainId domain) const {
  require(domain.value < config_.models.size(), "no model for domain",
          Errc::not_found);
  return config_.models[domain.value];
}

SimResource& SimExecutor::stream_resource(StreamId stream) {
  auto it = stream_resources_.find(stream);
  if (it == stream_resources_.end()) {
    it = stream_resources_
             .emplace(stream, std::make_unique<SimResource>(queue_, 1))
             .first;
  }
  return *it->second;
}

SimResource& SimExecutor::dma_resource(DomainId domain, XferDir dir) {
  const DmaKey key{domain, dir};
  auto it = dma_resources_.find(key);
  if (it == dma_resources_.end()) {
    const int engines = runtime_->link_for(domain).dma_engines_per_direction;
    it = dma_resources_
             .emplace(key, std::make_unique<SimResource>(
                               queue_, static_cast<std::size_t>(engines)))
             .first;
  }
  return *it->second;
}

double SimExecutor::stream_busy_seconds(StreamId stream) const {
  const auto it = stream_resources_.find(stream);
  return it == stream_resources_.end() ? 0.0 : it->second->busy_seconds();
}

void SimExecutor::execute(const std::shared_ptr<ActionRecord>& action,
                          CompletionFn done) {
  switch (action->type) {
    case ActionType::compute: {
      const DomainId domain = runtime_->stream_domain(action->stream);
      const std::size_t width = runtime_->stream_mask(action->stream).count();
      const DeviceModel& dev = model(domain);
      // ooc_stall_s: modeled victim-writeback + demand-refetch seconds
      // charged at dispatch (out-of-core). Virtual time must pay for the
      // data movement that execute_payloads=false runs never perform.
      const double duration =
          dev.task_seconds(action->compute.kernel, action->compute.flops,
                           width, action->compute.layered_overhead_s) +
          action->ooc_stall_s;
      // A throwing payload is contained: the action is marked failed and
      // the error surfaces at the next synchronization point. The
      // completion callback must not also run, so it is disarmed.
      auto failed = std::make_shared<bool>(false);
      stream_resource(action->stream)
          .submit(duration,
                  [this, action, domain, width, failed] {
                    // Skip the body if the domain died while this job
                    // queued; the runtime already failed the action.
                    if (config_.execute_payloads && action->compute.body &&
                        runtime_->domain_alive(domain)) {
                      TaskContext ctx(*runtime_, domain, nullptr, width,
                                      action.get());
                      try {
                        action->compute.body(ctx);
                      } catch (...) {
                        *failed = true;
                        runtime_->fail_action(action->id,
                                              std::current_exception());
                      }
                    }
                  },
                  [failed, done = std::move(done)] {
                    if (!*failed) {
                      done();
                    }
                  });
      return;
    }
    case ActionType::transfer: {
      const DomainId domain = runtime_->stream_domain(action->stream);
      if (domain == kHostDomain) {
        done();  // aliased away (§V)
        return;
      }
      if (action->transfer.peer != kHostDomain) {
        start_peer_attempt(action, domain, 0, std::move(done));
      } else {
        start_transfer_attempt(action, domain, 0, std::move(done));
      }
      return;
    }
    case ActionType::event_wait:
      action->wait_event->on_fire(std::move(done));
      return;
    case ActionType::event_signal:
      done();
      return;
    case ActionType::alloc: {
      // Sink-side allocation/registration cost, paid in stream order —
      // ~250 us/MB, the same constant the COI pool model charges. The
      // point of the async form is that it pipelines behind other
      // in-flight work instead of stalling the enqueueing host.
      constexpr double kAllocCostPerByte = 250e-6 / (1024.0 * 1024.0);
      const double duration =
          kAllocCostPerByte * static_cast<double>(action->transfer.length) +
          action->ooc_stall_s;
      stream_resource(action->stream).submit(duration, [] {}, std::move(done));
      return;
    }
  }
}

void SimExecutor::start_transfer_attempt(
    const std::shared_ptr<ActionRecord>& action, DomainId domain,
    int failures, CompletionFn done) {
  if (!runtime_->domain_alive(domain)) {
    // Lost while queued or backing off; the runtime already failed the
    // action (the claim makes `done` a no-op).
    done();
    return;
  }
  const FaultDecision fault = runtime_->next_transfer_fault(
      domain, action->transfer_seq, failures);
  if (fault.kind == FaultKind::device_loss) {
    runtime_->mark_domain_lost(domain);
    return;
  }
  if (fault.kind == FaultKind::transient_error) {
    const RetryPolicy& retry = runtime_->retry_policy();
    ++failures;
    if (failures >= retry.max_attempts) {
      // Retry budget exhausted: treat the link as gone for good.
      runtime_->mark_domain_lost(domain);
      return;
    }
    runtime_->count(Counter::transfers_retried);
    runtime_->note_transfer_retry(domain);
    // Exponential backoff in virtual time, then re-attempt.
    queue_.schedule_after(
        retry.backoff_seconds(failures),
        [this, action, domain, failures, done = std::move(done)]() mutable {
          start_transfer_attempt(action, domain, failures, std::move(done));
        });
    return;
  }
  const TransferPayload& t = action->transfer;
  const double staging = runtime_->account_transfer_staging(t.length);
  double duration =
      runtime_->link_for(domain).transfer_seconds(t.length) + staging;
  if (fault.kind == FaultKind::link_stall) {
    duration += fault.stall_s;  // the attempt succeeds, just late
  }
  if (failures == 0) {
    duration += action->ooc_stall_s;  // out-of-core spill/refetch time
  }
  dma_resource(domain, t.dir)
      .submit(duration,
              [this, action, domain] {
                if (!config_.execute_payloads ||
                    !runtime_->domain_alive(domain)) {
                  return;
                }
                const TransferPayload& p = action->transfer;
                std::byte* host = runtime_->buffer_local(
                    p.buffer, kHostDomain, p.offset, p.length);
                std::byte* sink = runtime_->buffer_local(
                    p.buffer, domain, p.offset, p.length);
                if (p.dir == XferDir::src_to_sink) {
                  std::memcpy(sink, host, p.length);
                } else {
                  std::memcpy(host, sink, p.length);
                }
              },
              std::move(done));
}

namespace {

/// Shared state of one chunked device->device move. The two hop lambdas
/// (stored as std::functions so they can resubmit themselves) form a
/// reference cycle through the owning shared_ptr; completion breaks it.
struct PeerPipeline {
  std::shared_ptr<ActionRecord> action;
  DomainId sink{0};
  DomainId peer{0};
  std::size_t chunk = 0;      ///< chunk size in bytes (== total when K = 1)
  std::size_t total = 0;
  std::size_t count = 0;      ///< K, the number of chunks
  std::size_t hop1_next = 0;  ///< next chunk to submit on the peer->host hop
  std::size_t hop1_done = 0;  ///< chunks landed in the host staging row
  std::size_t hop2_next = 0;  ///< next chunk to submit on the host->sink hop
  std::size_t hop2_done = 0;
  bool hop2_busy = false;     ///< hop 2 serialized within the action
  double start_s = 0.0;
  double stall_s = 0.0;       ///< link_stall fault, charged to the first chunk
  CompletionFn done;
  std::function<void()> advance_hop1;
  std::function<void()> try_hop2;

  [[nodiscard]] std::size_t len_of(std::size_t i) const {
    return std::min(chunk, total - i * chunk);
  }
};

std::uint64_t micros(double seconds) {
  return static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e6);
}

}  // namespace

void SimExecutor::start_peer_attempt(
    const std::shared_ptr<ActionRecord>& action, DomainId sink, int failures,
    CompletionFn done) {
  if (!runtime_->domain_alive(sink)) {
    done();
    return;
  }
  const DomainId peer = action->transfer.peer;
  if (!runtime_->domain_alive(peer)) {
    // The source incarnation is gone; without its bytes the transfer
    // cannot run. Surfaces at the next sync like any device loss.
    runtime_->fail_action(
        action->id,
        std::make_exception_ptr(
            Error(Errc::device_lost,
                  "device->device transfer: source (peer) domain lost")));
    return;
  }
  // One fault decision per attempt, keyed by the sink domain and the
  // admission-time transfer id, exactly like the single-hop path:
  // chunking must not multiply the injector's decision stream.
  const FaultDecision fault =
      runtime_->next_transfer_fault(sink, action->transfer_seq, failures);
  if (fault.kind == FaultKind::device_loss) {
    runtime_->mark_domain_lost(sink);
    return;
  }
  if (fault.kind == FaultKind::transient_error) {
    const RetryPolicy& retry = runtime_->retry_policy();
    ++failures;
    if (failures >= retry.max_attempts) {
      runtime_->mark_domain_lost(sink);
      return;
    }
    runtime_->count(Counter::transfers_retried);
    runtime_->note_transfer_retry(sink);
    queue_.schedule_after(
        retry.backoff_seconds(failures),
        [this, action, sink, failures, done = std::move(done)]() mutable {
          start_peer_attempt(action, sink, failures, std::move(done));
        });
    return;
  }
  const TransferPayload& t = action->transfer;
  const CoherenceConfig& coh = runtime_->config().coherence;
  auto p = std::make_shared<PeerPipeline>();
  p->action = action;
  p->sink = sink;
  p->peer = peer;
  p->total = t.length;
  p->chunk = (t.length > coh.pipeline_threshold && coh.pipeline_chunk > 0)
                 ? std::min(coh.pipeline_chunk, t.length)
                 : t.length;
  p->count = (t.length + p->chunk - 1) / p->chunk;
  p->start_s = queue_.now();
  p->stall_s = fault.kind == FaultKind::link_stall ? fault.stall_s : 0.0;
  if (failures == 0) {
    p->stall_s += action->ooc_stall_s;  // out-of-core spill/refetch time
  }
  p->done = std::move(done);
  if (p->count > 1) {
    runtime_->count(Counter::transfer_chunks, p->count);
  }
  // Hop 1 (peer -> host staging), chunks chained serially.
  p->advance_hop1 = [this, p] {
    if (p->hop1_next >= p->count) {
      return;
    }
    const std::size_t i = p->hop1_next++;
    const std::size_t off = i * p->chunk;
    const std::size_t len = p->len_of(i);
    double duration = runtime_->link_for(p->peer).transfer_seconds(len) +
                      runtime_->account_transfer_staging(len);
    if (i == 0) {
      duration += p->stall_s;
    }
    dma_resource(p->peer, XferDir::sink_to_src)
        .submit(duration,
                [this, p, off, len] {
                  if (!config_.execute_payloads ||
                      !runtime_->domain_alive(p->peer)) {
                    return;
                  }
                  const TransferPayload& tp = p->action->transfer;
                  std::byte* host = runtime_->buffer_local(
                      tp.buffer, kHostDomain, tp.offset + off, len);
                  std::byte* src = runtime_->buffer_local(
                      tp.buffer, p->peer, tp.offset + off, len);
                  std::memcpy(host, src, len);
                },
                [p] {
                  ++p->hop1_done;
                  p->advance_hop1();
                  p->try_hop2();
                });
  };
  // Hop 2 (host staging -> sink): starts as soon as a chunk has landed,
  // serialized within the action so a multi-engine link cannot give one
  // logical transfer more than one engine's bandwidth per hop.
  p->try_hop2 = [this, p] {
    if (p->hop2_busy || p->hop2_next >= p->hop1_done) {
      return;
    }
    const std::size_t i = p->hop2_next++;
    p->hop2_busy = true;
    const std::size_t off = i * p->chunk;
    const std::size_t len = p->len_of(i);
    dma_resource(p->sink, XferDir::src_to_sink)
        .submit(runtime_->link_for(p->sink).transfer_seconds(len),
                [this, p, off, len] {
                  if (!config_.execute_payloads ||
                      !runtime_->domain_alive(p->sink)) {
                    return;
                  }
                  const TransferPayload& tp = p->action->transfer;
                  std::byte* host = runtime_->buffer_local(
                      tp.buffer, kHostDomain, tp.offset + off, len);
                  std::byte* dst = runtime_->buffer_local(
                      tp.buffer, p->sink, tp.offset + off, len);
                  std::memcpy(dst, host, len);
                },
                [this, p] {
                  p->hop2_busy = false;
                  if (++p->hop2_done == p->count) {
                    if (p->count > 1) {
                      const double serial =
                          runtime_->link_for(p->peer).transfer_seconds(
                              p->total) +
                          runtime_->link_for(p->sink).transfer_seconds(
                              p->total);
                      // Micros; serial/actual is the hop-overlap ratio.
                      runtime_->count(Counter::pipeline_serial_us,
                                      micros(serial));
                      runtime_->count(Counter::pipeline_actual_us,
                                      micros(queue_.now() - p->start_s));
                    }
                    auto finish = std::move(p->done);
                    p->advance_hop1 = nullptr;  // break the shared_ptr cycle
                    p->try_hop2 = nullptr;
                    finish();
                  } else {
                    p->try_hop2();
                  }
                });
  };
  p->advance_hop1();
}

void SimExecutor::wait(const std::function<bool()>& ready) {
  // No lock around the poll: wait predicates are self-synchronizing
  // (see Executor::wait), and the simulator is single-threaded — all
  // completions happen inside queue_.step() on this thread.
  for (;;) {
    if (ready()) {
      return;
    }
    require(queue_.step(),
            "simulation deadlock: host is waiting but no events are pending "
            "(missing transfer/compute, or a wait on an event that nothing "
            "signals)",
            Errc::internal);
  }
}

bool SimExecutor::wait_for(const std::function<bool()>& ready,
                           double timeout_s) {
  const double deadline = queue_.now() + timeout_s;
  for (;;) {
    if (ready()) {
      return true;
    }
    // Timeout when the simulation cannot make `ready` true by the
    // deadline: either nothing is pending at all (a wedged stream) or the
    // next event lies beyond it. The clock still advances to the deadline
    // so timeouts consume virtual time like any other wait.
    if (queue_.empty() || queue_.next_time() > deadline) {
      queue_.advance_to(deadline);
      return false;
    }
    queue_.step();
  }
}

}  // namespace hs::sim
