#include "graph/passes.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/status.hpp"
#include "core/runtime.hpp"

namespace hs::graph {

namespace {

/// Rewrites one node's edge references through `remap` (old index ->
/// new index), dropping self-edges and duplicates that merging created.
void remap_edges(GraphNode& node, std::uint32_t self,
                 const std::vector<std::uint32_t>& remap) {
  std::vector<std::uint32_t> preds;
  preds.reserve(node.preds.size());
  for (const std::uint32_t p : node.preds) {
    const std::uint32_t q = remap[p];
    if (q != self &&
        std::find(preds.begin(), preds.end(), q) == preds.end()) {
      preds.push_back(q);
    }
  }
  node.preds = std::move(preds);
  if (node.wait_node != kNoNode) {
    node.wait_node = remap[node.wait_node];
  }
}

}  // namespace

std::size_t coalesce_transfers(TaskGraph& graph, Runtime* runtime) {
  std::vector<GraphNode> out;
  out.reserve(graph.nodes.size());
  std::vector<std::uint32_t> remap(graph.nodes.size(), kNoNode);
  // New index of the most recent kept node per stream: coalescing only
  // fires on *adjacent* transfers, with no node between them in stream
  // program order.
  std::unordered_map<StreamId, std::uint32_t> last_on_stream;
  std::size_t merged = 0;

  for (std::uint32_t i = 0; i < graph.nodes.size(); ++i) {
    GraphNode node = graph.nodes[i];
    const auto last = last_on_stream.find(node.stream);
    if (node.type == ActionType::transfer && last != last_on_stream.end()) {
      GraphNode& prev = out[last->second];
      if (prev.type == ActionType::transfer &&
          prev.transfer.buffer == node.transfer.buffer &&
          prev.transfer.dir == node.transfer.dir &&
          prev.transfer.offset + prev.transfer.length ==
              node.transfer.offset) {
        prev.transfer.length += node.transfer.length;
        // enqueue_transfer gives a transfer exactly one operand that
        // mirrors its byte range; keep that invariant for the union.
        prev.operands[0].length = prev.transfer.length;
        remap[i] = last->second;
        remap_edges(node, last->second, remap);
        for (const std::uint32_t p : node.preds) {
          if (std::find(prev.preds.begin(), prev.preds.end(), p) ==
              prev.preds.end()) {
            prev.preds.push_back(p);
          }
        }
        ++merged;
        continue;
      }
    }
    const auto index = static_cast<std::uint32_t>(out.size());
    remap[i] = index;
    remap_edges(node, index, remap);
    out.push_back(std::move(node));
    last_on_stream[out[index].stream] = index;
  }

  graph.nodes = std::move(out);
  graph.validate();
  if (runtime != nullptr && merged != 0) {
    runtime->count(Counter::transfers_coalesced, merged);
  }
  return merged;
}

double node_cost(const GraphNode& node, const CostParams& params) {
  switch (node.type) {
    case ActionType::compute:
      return node.compute.flops / params.compute_flops_per_s +
             node.compute.layered_overhead_s;
    case ActionType::transfer:
      return params.link_latency_s +
             static_cast<double>(node.transfer.length) /
                 params.link_bytes_per_s;
    case ActionType::alloc:
      return params.alloc_s_per_mb *
             (static_cast<double>(node.transfer.length) / (1 << 20));
    case ActionType::event_wait:
    case ActionType::event_signal:
      return params.sync_s;
  }
  return 0.0;
}

CriticalPathReport critical_path(const TaskGraph& graph,
                                 const CostParams& params) {
  const std::size_t n = graph.nodes.size();
  CriticalPathReport report;
  report.earliest_finish.assign(n, 0.0);
  report.slack.assign(n, 0.0);
  if (n == 0) {
    return report;
  }

  // Forward sweep: earliest finish = cost + latest predecessor finish.
  // The edge set is preds plus the in-graph wait edge; the node array is
  // topologically ordered, so one pass suffices.
  std::vector<double> cost(n);
  const auto each_pred = [&graph](std::uint32_t i, const auto& visit) {
    for (const std::uint32_t p : graph.nodes[i].preds) {
      visit(p);
    }
    if (graph.nodes[i].wait_node != kNoNode) {
      visit(graph.nodes[i].wait_node);
    }
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    cost[i] = node_cost(graph.nodes[i], params);
    double start = 0.0;
    each_pred(i, [&](std::uint32_t p) {
      start = std::max(start, report.earliest_finish[p]);
    });
    report.earliest_finish[i] = start + cost[i];
    report.makespan_s = std::max(report.makespan_s, report.earliest_finish[i]);
  }

  // Backward sweep: latest finish without growing the makespan.
  std::vector<double> latest(n, report.makespan_s);
  for (std::uint32_t i = static_cast<std::uint32_t>(n); i-- > 0;) {
    each_pred(i, [&](std::uint32_t p) {
      latest[p] = std::min(latest[p], latest[i] - cost[i]);
    });
    report.slack[i] = latest[i] - report.earliest_finish[i];
  }

  // Chain extraction: walk back from the makespan-defining node through
  // the predecessor that pins each start time.
  std::uint32_t tip = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (report.earliest_finish[i] > report.earliest_finish[tip]) {
      tip = i;
    }
  }
  std::vector<std::uint32_t> chain;
  for (std::uint32_t at = tip;;) {
    chain.push_back(at);
    std::uint32_t next = kNoNode;
    double best = 0.0;
    each_pred(at, [&](std::uint32_t p) {
      if (report.earliest_finish[p] >= best) {
        best = report.earliest_finish[p];
        next = p;
      }
    });
    if (next == kNoNode) {
      break;
    }
    at = next;
  }
  std::reverse(chain.begin(), chain.end());
  report.chain = std::move(chain);

  for (const std::uint32_t i : report.chain) {
    report.domain_seconds[graph.stream_info(graph.nodes[i].stream)
                              .domain.value] += cost[i];
  }
  return report;
}

std::string to_string(const CriticalPathReport& report,
                      const TaskGraph& graph, const CostParams& params) {
  std::ostringstream os;
  os << "critical path: " << report.chain.size() << "/" << graph.size()
     << " nodes, modeled " << report.makespan_s * 1e3 << " ms\n";
  for (const auto& [domain, seconds] : report.domain_seconds) {
    os << "  domain " << domain << ": " << seconds * 1e3 << " ms ("
       << (report.makespan_s > 0.0 ? 100.0 * seconds / report.makespan_s
                                   : 0.0)
       << "% of chain)\n";
  }
  for (const std::uint32_t i : report.chain) {
    const GraphNode& node = graph.nodes[i];
    os << "  [" << i << "] stream " << node.stream.value << " "
       << node.label() << " (" << node_cost(node, params) * 1e6 << " us)\n";
  }
  return os.str();
}

// --- Partial re-execution planning ------------------------------------------

RecoveryPlan plan_recovery(const TaskGraph& graph,
                           const std::function<bool(std::uint32_t)>& lost) {
  graph.validate();
  const std::size_t n = graph.nodes.size();

  // Forward adjacency over the captured edges (preds + in-graph waits).
  std::vector<std::vector<std::uint32_t>> successors(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const GraphNode& node = graph.nodes[i];
    for (const std::uint32_t pred : node.preds) {
      successors[pred].push_back(i);
    }
    if (node.wait_node != kNoNode) {
      successors[node.wait_node].push_back(i);
    }
  }

  // Per-buffer writer index: (node, written range). Alloc nodes are
  // excluded — their whole-buffer zero-fill is not a value co-writers
  // need rolled back (rule 2 in the header).
  struct Writer {
    std::uint32_t node;
    std::size_t offset;
    std::size_t length;
  };
  std::unordered_map<std::uint32_t, std::vector<Writer>> writers;
  for (std::uint32_t i = 0; i < n; ++i) {
    const GraphNode& node = graph.nodes[i];
    if (node.type == ActionType::alloc) {
      continue;
    }
    for (const Operand& op : node.operands) {
      if (writes(op.access)) {
        writers[op.buffer.value].push_back({i, op.offset, op.length});
      }
    }
  }

  std::vector<char> member(n, 0);
  std::vector<std::uint32_t> worklist;
  const auto add = [&](std::uint32_t i) {
    if (!member[i]) {
      member[i] = 1;
      worklist.push_back(i);
    }
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    if (lost(i)) {
      add(i);
    }
  }

  while (!worklist.empty()) {
    const std::uint32_t i = worklist.back();
    worklist.pop_back();
    for (const std::uint32_t succ : successors[i]) {
      add(succ);
    }
    const GraphNode& node = graph.nodes[i];
    if (node.type == ActionType::alloc) {
      continue;
    }
    for (const Operand& op : node.operands) {
      if (!writes(op.access)) {
        continue;
      }
      const auto it = writers.find(op.buffer.value);
      if (it == writers.end()) {
        continue;
      }
      for (const Writer& w : it->second) {
        if (w.offset < op.offset + op.length &&
            op.offset < w.offset + w.length) {
          add(w.node);
        }
      }
    }
  }

  RecoveryPlan plan;
  // Merged written intervals per buffer -> restore list.
  std::unordered_map<std::uint32_t, std::map<std::size_t, std::size_t>> spans;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!member[i]) {
      continue;
    }
    plan.rerun.push_back(i);
    const GraphNode& node = graph.nodes[i];
    if (node.type == ActionType::alloc) {
      continue;
    }
    for (const Operand& op : node.operands) {
      if (!writes(op.access) || op.length == 0) {
        continue;
      }
      auto& ranges = spans[op.buffer.value];
      std::size_t begin = op.offset;
      std::size_t end = op.offset + op.length;
      auto it = ranges.lower_bound(begin);
      if (it != ranges.begin()) {
        const auto prev = std::prev(it);
        if (prev->second >= begin) {
          begin = prev->first;
          end = std::max(end, prev->second);
          ranges.erase(prev);
        }
      }
      while (it != ranges.end() && it->first <= end) {
        end = std::max(end, it->second);
        it = ranges.erase(it);
      }
      ranges[begin] = end;
    }
  }
  for (const auto& [buffer, ranges] : spans) {
    for (const auto& [begin, end] : ranges) {
      plan.restore.push_back(
          Operand{BufferId{buffer}, begin, end - begin, Access::out});
    }
  }
  return plan;
}

// --- Restart-from-checkpoint planning ---------------------------------------

RestartPlan plan_restart(const TaskGraph& graph,
                         std::uint64_t nodes_completed) {
  graph.validate();
  const std::size_t n = graph.nodes.size();
  require(nodes_completed <= n, "plan_restart: cursor beyond graph",
          Errc::out_of_range);

  RestartPlan plan;
  plan.rerun.reserve(n - static_cast<std::size_t>(nodes_completed));
  for (std::size_t i = static_cast<std::size_t>(nodes_completed); i < n;
       ++i) {
    plan.rerun.push_back(static_cast<std::uint32_t>(i));
  }

  // Per-(domain, buffer) interval sets: `written` retires ranges an
  // in-suffix action (re)produces in that domain; `need` accumulates
  // device reads of not-yet-retired ranges — the refresh set. Host
  // entries never arise: the restored host copy is authoritative.
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  std::map<Key, IntervalSet> written;
  std::map<Key, IntervalSet> need;
  const auto demand = [&](DomainId domain, BufferId buffer,
                          std::size_t offset, std::size_t length) {
    if (length == 0 || domain == kHostDomain) {
      return;
    }
    const Key key{domain.value, buffer.value};
    IntervalSet want;
    want.add(offset, offset + length);
    for (const auto& [begin, len] : want.minus(written[key])) {
      need[key].add(begin, begin + len);
    }
  };
  const auto retire = [&](DomainId domain, BufferId buffer,
                          std::size_t offset, std::size_t length) {
    if (length == 0 || domain == kHostDomain) {
      return;
    }
    written[{domain.value, buffer.value}].add(offset, offset + length);
  };

  for (const std::uint32_t i : plan.rerun) {
    const GraphNode& node = graph.nodes[i];
    const DomainId sink = graph.stream_info(node.stream).domain;
    switch (node.type) {
      case ActionType::compute:
        // Reads see the domain incarnation; demand before retiring so an
        // inout operand's old value is refreshed.
        for (const Operand& op : node.operands) {
          if (op.access != Access::out) {
            demand(sink, op.buffer, op.offset, op.length);
          }
        }
        for (const Operand& op : node.operands) {
          if (writes(op.access)) {
            retire(sink, op.buffer, op.offset, op.length);
          }
        }
        break;
      case ActionType::transfer:
        if (node.transfer.dir == XferDir::src_to_sink) {
          // Reads the peer incarnation (device->device staging) or the
          // authoritative host; writes the sink incarnation.
          demand(node.transfer.peer, node.transfer.buffer,
                 node.transfer.offset, node.transfer.length);
          retire(sink, node.transfer.buffer, node.transfer.offset,
                 node.transfer.length);
        } else {
          // sink_to_src reads the sink incarnation into the host.
          demand(sink, node.transfer.buffer, node.transfer.offset,
                 node.transfer.length);
        }
        break;
      case ActionType::alloc:
        // Re-launch no-ops on an already-instantiated buffer; it neither
        // reads nor produces values.
        break;
      case ActionType::event_wait:
      case ActionType::event_signal:
        // Ordering only; operands scope the wait, they move no bytes.
        break;
    }
  }

  for (const auto& [key, ranges] : need) {
    for (const auto& [begin, end] : ranges.ranges()) {
      plan.refresh.push_back(RestartRefresh{
          DomainId{key.first},
          Operand{BufferId{key.second}, begin, end - begin, Access::in}});
    }
  }
  return plan;
}

}  // namespace hs::graph
