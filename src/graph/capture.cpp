#include "graph/capture.hpp"

#include <algorithm>
#include <utility>

#include "common/status.hpp"

namespace hs::graph {

GraphCapture::GraphCapture(Runtime& runtime,
                           std::span<const StreamId> streams)
    : runtime_(runtime) {
  require(!streams.empty(), "capture needs at least one stream");
  streams_.reserve(streams.size());
  for (const StreamId s : streams) {
    require(std::none_of(streams_.begin(), streams_.end(),
                         [s](const GraphStreamInfo& info) {
                           return info.stream == s;
                         }),
            "duplicate stream in capture set");
    streams_.push_back(GraphStreamInfo{s, runtime.stream_domain(s),
                                       runtime.stream_policy(s)});
  }
  runtime_.set_capture(this);
}

GraphCapture::~GraphCapture() {
  if (active_) {
    runtime_.set_capture(nullptr);
  }
}

bool GraphCapture::captures(StreamId stream) const {
  return std::any_of(streams_.begin(), streams_.end(),
                     [stream](const GraphStreamInfo& info) {
                       return info.stream == stream;
                     });
}

std::shared_ptr<EventState> GraphCapture::record(
    std::shared_ptr<ActionRecord> record) {
  GraphNode node;
  node.type = record->type;
  node.stream = record->stream;
  node.operands = std::move(record->operands);
  node.full_barrier = record->full_barrier;
  node.compute = std::move(record->compute);
  node.transfer = record->transfer;
  if (record->type == ActionType::event_wait) {
    // An event minted by this capture names an in-graph producer: the
    // wait becomes a graph edge, rewired to the producer's fresh
    // completion event at every replay. Anything else is external and
    // waited on verbatim.
    const std::uint32_t producer = node_of(record->wait_event.get());
    if (producer != kNoNode) {
      node.wait_node = producer;
    } else {
      node.external_event = record->wait_event;
    }
  }
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  // The record's completion event doubles as the node's placeholder: it
  // never fires, but capture-time code can thread it into later
  // enqueue_event_wait calls exactly as it would an eager event.
  placeholders_.push_back(record->completion);
  by_event_.emplace(record->completion.get(), index);
  return record->completion;
}

std::uint32_t GraphCapture::node_of(const EventState* placeholder) const {
  const auto it = by_event_.find(placeholder);
  return it == by_event_.end() ? kNoNode : it->second;
}

const std::shared_ptr<EventState>& GraphCapture::placeholder_of(
    std::uint32_t index) const {
  require(index < placeholders_.size(), "unknown graph node",
          Errc::not_found);
  return placeholders_[index];
}

TaskGraph GraphCapture::finish() {
  require(active_, "capture already finished");
  runtime_.set_capture(nullptr);
  active_ = false;

  // Dependence analysis, once per capture instead of once per enqueue:
  // the exact per-stream policy Runtime::admit applies eagerly. Nothing
  // completes "during" a capture, so the incomplete-window scan eager
  // admit performs degenerates to "all earlier same-stream nodes" —
  // which is what makes the captured edges exact, not conservative.
  std::unordered_map<StreamId, std::vector<std::uint32_t>> per_stream;
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    GraphNode& node = nodes_[i];
    std::vector<std::uint32_t>& earlier = per_stream[node.stream];
    const GraphStreamInfo& info = [&]() -> const GraphStreamInfo& {
      for (const GraphStreamInfo& s : streams_) {
        if (s.stream == node.stream) {
          return s;
        }
      }
      throw Error(Errc::internal, "captured node on undeclared stream");
    }();
    if (info.policy == OrderPolicy::strict_fifo) {
      if (!earlier.empty()) {
        node.preds.push_back(earlier.back());
      }
    } else {
      for (const std::uint32_t j : earlier) {
        if (node.conflicts_with(nodes_[j])) {
          node.preds.push_back(j);
        }
      }
    }
    earlier.push_back(i);
  }

  TaskGraph graph;
  runtime_.count(Counter::graphs_captured);
  graph.id = runtime_.note_graph_captured();
  graph.nodes = std::move(nodes_);
  graph.streams = std::move(streams_);
  graph.validate();
  return graph;
}

// --- GraphBuilder -----------------------------------------------------------

GraphBuilder::GraphBuilder(Runtime& runtime,
                           std::span<const StreamId> streams)
    : runtime_(runtime), capture_(runtime, streams) {}

std::uint32_t GraphBuilder::note(
    const std::shared_ptr<EventState>& placeholder) {
  const std::uint32_t index = capture_.node_of(placeholder.get());
  require(index != kNoNode, "enqueue was not captured (stream not in set?)",
          Errc::internal);
  return index;
}

std::uint32_t GraphBuilder::compute(StreamId stream, ComputePayload payload,
                                    std::span<const OperandRef> operands) {
  return note(runtime_.enqueue_compute(stream, std::move(payload), operands));
}

std::uint32_t GraphBuilder::transfer(StreamId stream, const void* proxy,
                                     std::size_t len, XferDir dir) {
  return note(runtime_.enqueue_transfer(stream, proxy, len, dir));
}

std::uint32_t GraphBuilder::alloc(StreamId stream, BufferId buffer) {
  return note(runtime_.enqueue_alloc(stream, buffer));
}

std::uint32_t GraphBuilder::signal(StreamId stream,
                                   std::span<const OperandRef> operands) {
  return note(runtime_.enqueue_signal(stream, operands));
}

std::uint32_t GraphBuilder::wait(StreamId stream, std::uint32_t producer,
                                 std::span<const OperandRef> operands) {
  return note(runtime_.enqueue_event_wait(
      stream, capture_.placeholder_of(producer), operands));
}

std::uint32_t GraphBuilder::wait_external(
    StreamId stream, std::shared_ptr<EventState> event,
    std::span<const OperandRef> operands) {
  return note(
      runtime_.enqueue_event_wait(stream, std::move(event), operands));
}

}  // namespace hs::graph
