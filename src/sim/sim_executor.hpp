#pragma once

// SimExecutor: the discrete-event simulation backend.
//
// Runs the same dependence-ready actions the ThreadedExecutor would, but
// in *virtual time* against calibrated cost models — the substitute for
// the paper's Xeon + Xeon Phi testbed (the evaluation host has one CPU
// core; see DESIGN.md). Resources:
//
//   * one capacity-1 server per stream (a stream's team runs one compute
//     task at a time, like a gang of threads);
//   * per-device, per-direction DMA servers with the link's engine count
//     (transfers contend for engines, so over-decomposed tiling exposes
//     the fixed per-message latency — the §III overhead observations).
//
// Payload side effects (task bodies, transfer memcpys) still execute for
// real by default, so simulated algorithms remain numerically checkable.

#include <map>
#include <memory>

#include "core/executor.hpp"
#include "sim/cost_model.hpp"
#include "sim/des.hpp"
#include "sim/platform.hpp"

namespace hs::sim {

struct SimExecutorConfig {
  std::vector<DeviceModel> models;  ///< per-domain, indexed by DomainId
  /// Execute compute bodies / transfer copies for real (numerics intact).
  /// Benches that only need timing can turn this off.
  bool execute_payloads = true;
};

class SimExecutor final : public Executor {
 public:
  explicit SimExecutor(SimExecutorConfig config);
  /// Convenience: models + link straight from a SimPlatform.
  explicit SimExecutor(const SimPlatform& platform, bool execute_payloads = true);

  void attach(Runtime& runtime) override;
  void execute(const std::shared_ptr<ActionRecord>& action,
               CompletionFn done) override;
  void wait(const std::function<bool()>& ready) override;
  bool wait_for(const std::function<bool()>& ready,
                double timeout_s) override;
  [[nodiscard]] bool executes_payloads() const override {
    return config_.execute_payloads;
  }
  [[nodiscard]] double now() const override { return queue_.now(); }

  [[nodiscard]] EventQueue& event_queue() noexcept { return queue_; }
  [[nodiscard]] const DeviceModel& model(DomainId domain) const;
  /// Total busy seconds of a stream's compute server (utilization probe).
  [[nodiscard]] double stream_busy_seconds(StreamId stream) const;

 private:
  struct DmaKey {
    DomainId domain;
    XferDir dir;
    auto operator<=>(const DmaKey&) const = default;
  };

  [[nodiscard]] SimResource& stream_resource(StreamId stream);
  [[nodiscard]] SimResource& dma_resource(DomainId domain, XferDir dir);

  /// The one transfer entry point: asks Runtime::transfer_attempt for
  /// attempt `attempt`'s verdict and pays it in virtual time — a backoff
  /// before re-attempting, or the move itself on the DMA servers. A
  /// device->device move is the star topology's two hops through the
  /// host, relayed chunk by chunk so chunk i's host->sink hop overlaps
  /// chunk i+1's peer->host hop; each hop stays serial within the action
  /// (one engine's bandwidth), so the speedup asymptote is 2x over the
  /// unchunked two-hop move (the one-chunk case of the same relay).
  void start_transfer(const std::shared_ptr<ActionRecord>& action,
                      DomainId sink, int attempt, CompletionFn done);

  /// The copy of one hop: [off, off + len) of `action`'s range between
  /// the host and `device`, in direction `dir`; skipped when payloads are
  /// off or `device` is lost.
  void copy_hop(const ActionRecord& action, DomainId device, XferDir dir,
                std::size_t off, std::size_t len);

  /// Sequencing state of one device->device move (sim_executor.cpp).
  struct Relay;
  /// Submits chunk `i` of hop 1 (peer -> host), taking `duration`; its
  /// completion submits chunk i+1 and offers the landed chunk to hop 2.
  void relay_hop1(const std::shared_ptr<Relay>& relay, std::size_t i,
                  double duration);
  /// Submits the next landed chunk on hop 2 (host -> sink) unless hop 2
  /// is busy; completes the move after its last chunk.
  void relay_hop2(const std::shared_ptr<Relay>& relay);

  SimExecutorConfig config_;
  Runtime* runtime_ = nullptr;
  EventQueue queue_;
  std::map<StreamId, std::unique_ptr<SimResource>> stream_resources_;
  std::map<DmaKey, std::unique_ptr<SimResource>> dma_resources_;
};

}  // namespace hs::sim
