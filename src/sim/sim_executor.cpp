#include "sim/sim_executor.hpp"

#include <algorithm>
#include <cstring>

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
      start_transfer(action, domain, 0, std::move(done));
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

struct SimExecutor::Relay {
  std::shared_ptr<ActionRecord> action;
  DomainId sink{0};
  std::size_t chunk = 0;   ///< bytes per chunk (the last may be short)
  std::size_t count = 0;   ///< number of chunks
  std::size_t landed = 0;  ///< chunks hop 1 staged in the host row
  std::size_t sent = 0;    ///< chunks handed to hop 2
  bool busy = false;       ///< hop 2 carries one chunk at a time
  double start_s = 0.0;
  CompletionFn done;

  [[nodiscard]] std::size_t len_of(std::size_t i) const {
    return std::min(chunk, action->transfer.length - i * chunk);
  }
};

namespace {

std::uint64_t micros(double seconds) {
  return static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e6);
}

}  // namespace

void SimExecutor::start_transfer(const std::shared_ptr<ActionRecord>& action,
                                 DomainId sink, int attempt,
                                 CompletionFn done) {
  const TransferAttempt a = runtime_->transfer_attempt(*action, sink, attempt);
  if (a.verdict == TransferAttempt::Verdict::dropped) {
    done();  // the runtime already failed the action: a no-op
    return;
  }
  if (a.verdict == TransferAttempt::Verdict::retry) {
    // Backoff in virtual time, then re-attempt.
    queue_.schedule_after(
        a.backoff_s,
        [this, action, sink, attempt, done = std::move(done)]() mutable {
          start_transfer(action, sink, attempt + 1, std::move(done));
        });
    return;
  }
  // The first hop's first chunk pays the injected stall and the
  // out-of-core spill/refetch time: only the attempt that runs gets here.
  const TransferPayload& t = action->transfer;
  const DomainId first = t.peer == kHostDomain ? sink : t.peer;
  const double duration = runtime_->link_for(first).transfer_seconds(a.chunk) +
                          runtime_->account_transfer_staging(a.chunk) +
                          a.stall_s + action->ooc_stall_s;
  if (t.peer == kHostDomain) {
    dma_resource(sink, t.dir)
        .submit(duration,
                [this, action, sink] {
                  copy_hop(*action, sink, action->transfer.dir, 0,
                           action->transfer.length);
                },
                std::move(done));
    return;
  }
  auto relay = std::make_shared<Relay>();
  relay->action = action;
  relay->sink = sink;
  relay->chunk = a.chunk;
  relay->count = (t.length + a.chunk - 1) / a.chunk;
  relay->start_s = queue_.now();
  relay->done = std::move(done);
  relay_hop1(relay, 0, duration);
}

void SimExecutor::copy_hop(const ActionRecord& action, DomainId device,
                           XferDir dir, std::size_t off, std::size_t len) {
  if (!config_.execute_payloads || !runtime_->domain_alive(device)) {
    return;
  }
  const TransferPayload& t = action.transfer;
  std::byte* host =
      runtime_->buffer_local(t.buffer, kHostDomain, t.offset + off, len);
  std::byte* dev = runtime_->buffer_local(t.buffer, device, t.offset + off, len);
  if (dir == XferDir::src_to_sink) {
    std::memcpy(dev, host, len);
  } else {
    std::memcpy(host, dev, len);
  }
}

void SimExecutor::relay_hop1(const std::shared_ptr<Relay>& relay,
                             std::size_t i, double duration) {
  const DomainId peer = relay->action->transfer.peer;
  const std::size_t off = i * relay->chunk;
  const std::size_t len = relay->len_of(i);
  dma_resource(peer, XferDir::sink_to_src)
      .submit(duration,
              [this, relay, peer, off, len] {
                copy_hop(*relay->action, peer, XferDir::sink_to_src, off, len);
              },
              [this, relay, peer, i] {
                ++relay->landed;
                if (i + 1 < relay->count) {
                  const std::size_t next = relay->len_of(i + 1);
                  relay_hop1(relay, i + 1,
                             runtime_->link_for(peer).transfer_seconds(next) +
                                 runtime_->account_transfer_staging(next));
                }
                relay_hop2(relay);
              });
}

void SimExecutor::relay_hop2(const std::shared_ptr<Relay>& relay) {
  if (relay->busy || relay->sent == relay->landed) {
    return;
  }
  relay->busy = true;
  const std::size_t i = relay->sent++;
  const std::size_t off = i * relay->chunk;
  const std::size_t len = relay->len_of(i);
  dma_resource(relay->sink, XferDir::src_to_sink)
      .submit(runtime_->link_for(relay->sink).transfer_seconds(len),
              [this, relay, off, len] {
                copy_hop(*relay->action, relay->sink, XferDir::src_to_sink,
                         off, len);
              },
              [this, relay] {
                relay->busy = false;
                if (relay->sent < relay->count) {
                  relay_hop2(relay);
                  return;
                }
                if (relay->count > 1) {
                  const std::size_t total = relay->action->transfer.length;
                  const double serial =
                      runtime_->link_for(relay->action->transfer.peer)
                          .transfer_seconds(total) +
                      runtime_->link_for(relay->sink).transfer_seconds(total);
                  // Micros; serial/actual is the hop-overlap ratio.
                  runtime_->count(Counter::pipeline_serial_us, micros(serial));
                  runtime_->count(Counter::pipeline_actual_us,
                                  micros(queue_.now() - relay->start_s));
                }
                relay->done();
              });
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
