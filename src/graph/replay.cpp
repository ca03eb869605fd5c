#include "graph/replay.hpp"

#include <utility>

#include "common/status.hpp"

namespace hs::graph {

GraphExec::GraphExec(Runtime& runtime, TaskGraph graph)
    : runtime_(runtime), graph_(std::move(graph)) {
  require(graph_.id != 0, "graph was not finished (id 0)");
  graph_.validate();
}

void GraphExec::map_stream(StreamId captured, StreamId replacement) {
  const GraphStreamInfo& info = graph_.stream_info(captured);
  // Cross-domain remaps are only legal when the captured domain died:
  // recovery must be able to re-home a dead card's subgraph, but a live
  // stream's placement is the application's decision, not the replayer's.
  require(runtime_.stream_domain(replacement) == info.domain ||
              !runtime_.domain_alive(info.domain),
          "stream remap must stay on the captured domain while it is alive");
  require(runtime_.stream_policy(replacement) == info.policy,
          "stream remap must keep the captured order policy");
  stream_map_[captured] = replacement;
}

void GraphExec::bind(BufferId captured, BufferId replacement) {
  require(runtime_.buffer_size(captured) ==
              runtime_.buffer_size(replacement),
          "rebound buffer must match the captured buffer's size");
  buffer_map_[captured] = replacement;
}

void GraphExec::clear_bindings() { buffer_map_.clear(); }

BufferId GraphExec::mapped(BufferId id) const {
  const auto it = buffer_map_.find(id);
  return it == buffer_map_.end() ? id : it->second;
}

StreamId GraphExec::mapped(StreamId id) const {
  const auto it = stream_map_.find(id);
  return it == stream_map_.end() ? id : it->second;
}

std::shared_ptr<ActionRecord> GraphExec::materialize(const GraphNode& node) {
  auto record = std::make_shared<ActionRecord>();
  record->type = node.type;
  record->stream = mapped(node.stream);
  record->full_barrier = node.full_barrier;
  record->operands = node.operands;
  for (Operand& op : record->operands) {
    op.buffer = mapped(op.buffer);
  }
  record->compute = node.compute;
  record->transfer = node.transfer;
  record->transfer.buffer = mapped(node.transfer.buffer);
  if (node.type == ActionType::alloc) {
    // Eager enqueue_alloc charges the budget at enqueue time;
    // buffer_instantiate is idempotent, so repeat launches no-op here
    // and only pay the modeled in-stream latency.
    runtime_.buffer_instantiate(record->transfer.buffer,
                                runtime_.stream_domain(record->stream));
  }
  return record;
}

GraphExec::Launch GraphExec::launch() {
  // The whole batch goes through Runtime::admit_prelinked, which locks
  // only the streams the graph touches (in ascending-id order) and wires
  // the captured edges verbatim; only the residue against pre-batch
  // window entries is re-analyzed, via the per-stream dependence index.
  const std::size_t n = graph_.nodes.size();
  std::vector<PrelinkedAction> batch(n);
  Launch out;
  out.events.reserve(n);
  out.records.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    const GraphNode& node = graph_.nodes[i];
    auto record = materialize(node);
    if (node.type == ActionType::event_wait) {
      record->wait_event = node.wait_node != kNoNode
                               ? out.records[node.wait_node]->completion
                               : node.external_event;
    }
    out.events.push_back(record->completion);
    batch[i] = PrelinkedAction{record, std::span(node.preds)};
    out.records[i] = std::move(record);
  }

  runtime_.admit_prelinked(batch, graph_.id);
  return out;
}

GraphExec::Launch GraphExec::launch_subset(
    std::span<const std::uint32_t> nodes, bool count_recovery) {
  const std::size_t n = graph_.nodes.size();
  Launch out;
  out.events.resize(n);
  out.records.resize(n);
  if (nodes.empty()) {
    return out;
  }

  // Membership map: node index -> subset position (or kNoNode).
  std::vector<std::uint32_t> position(n, kNoNode);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    require(nodes[i] < n, "launch_subset: node index out of range",
            Errc::out_of_range);
    require(i == 0 || nodes[i] > nodes[i - 1],
            "launch_subset: node indices must be strictly ascending");
    position[nodes[i]] = static_cast<std::uint32_t>(i);
  }

  std::vector<PrelinkedAction> batch(nodes.size());
  // Filtered pred edges, kept alive for the duration of admit_prelinked.
  std::vector<std::vector<std::uint32_t>> preds(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GraphNode& node = graph_.nodes[nodes[i]];
    auto record = materialize(node);
    if (node.type == ActionType::event_wait) {
      if (node.wait_node != kNoNode && position[node.wait_node] != kNoNode) {
        record->wait_event =
            out.records[nodes[position[node.wait_node]]]->completion;
      } else if (node.wait_node != kNoNode) {
        // The producer is outside the subset: it completed in the prior
        // launch, so the wait is already satisfied.
        auto satisfied = std::make_shared<EventState>();
        for (auto& callback : satisfied->fire()) {
          callback();  // no registered callbacks; fire before sharing
        }
        record->wait_event = std::move(satisfied);
      } else {
        record->wait_event = node.external_event;
      }
    }
    // Keep only in-subset pred edges; out-of-subset preds completed in
    // the prior launch. (Transitive ordering between subset members
    // survives this filter: the re-execution closure is successor-closed,
    // so any captured path between two members runs through members.)
    for (const std::uint32_t pred : node.preds) {
      if (position[pred] != kNoNode) {
        preds[i].push_back(position[pred]);
      }
    }
    out.events[nodes[i]] = record->completion;
    batch[i] = PrelinkedAction{record, std::span(preds[i])};
    out.records[nodes[i]] = std::move(record);
  }

  if (count_recovery) {
    runtime_.count(Counter::partial_recoveries);
    runtime_.count(Counter::actions_reexecuted, nodes.size());
  }
  runtime_.admit_prelinked(batch, graph_.id);
  return out;
}

}  // namespace hs::graph
