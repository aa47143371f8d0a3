#include "routing/dijkstra.h"

#include <algorithm>

#include "routing/indexed_heap.h"
#include "util/check.h"

namespace altroute {

Result<std::vector<EdgeId>> ShortestPathTree::PathTo(const RoadNetwork& net,
                                                     NodeId v) const {
  std::vector<EdgeId> edges;
  ALTROUTE_RETURN_NOT_OK(AppendPathTo(net, v, &edges));
  return edges;
}

Status ShortestPathTree::AppendPathTo(const RoadNetwork& net, NodeId v,
                                      std::vector<EdgeId>* edges) const {
  if (v >= dist.size()) return Status::InvalidArgument("node out of range");
  if (!Reached(v)) return Status::NotFound("node unreached in tree");
  const size_t first = edges->size();
  NodeId cur = v;
  while (cur != root) {
    const EdgeId e = parent_edge[cur];
    if (e == kInvalidEdge) return Status::Internal("broken tree parent chain");
    edges->push_back(e);
    cur = (direction == SearchDirection::kForward) ? net.tail(e) : net.head(e);
  }
  if (direction == SearchDirection::kForward) {
    std::reverse(edges->begin() + static_cast<ptrdiff_t>(first), edges->end());
  }
  return Status::OK();
}

struct Dijkstra::HeapHolder {
  explicit HeapHolder(size_t n) : heap(n) {}
  IndexedHeap<double> heap;
};

Dijkstra::Dijkstra(const RoadNetwork& net)
    : net_(net),
      dist_(net.num_nodes(), kInfCost),
      parent_(net.num_nodes(), kInvalidEdge),
      stamp_(net.num_nodes(), 0),
      heap_(std::make_shared<HeapHolder>(net.num_nodes())) {}

Status Dijkstra::ValidateInputs(NodeId source,
                                std::span<const double> weights) const {
  if (source >= net_.num_nodes()) {
    return Status::InvalidArgument("source node out of range");
  }
  if (weights.size() != net_.num_edges()) {
    return Status::InvalidArgument("weight vector size mismatch");
  }
  return Status::OK();
}

Result<RouteResult> Dijkstra::ShortestPath(NodeId source, NodeId target,
                                           std::span<const double> weights,
                                           const EdgeFilter& skip_edge,
                                           obs::SearchStats* stats,
                                           CancellationToken* cancel) {
  ALTROUTE_RETURN_NOT_OK(ValidateInputs(source, weights));
  if (target >= net_.num_nodes()) {
    return Status::InvalidArgument("target node out of range");
  }

  ++current_stamp_;
  auto& heap = heap_->heap;
  heap.Clear();
  last_settled_ = 0;

  // Register-resident counters; flushed to `stats` once after the loop so
  // the disabled path costs nothing beyond local increments.
  uint64_t relaxed = 0, pushes = 0;

  auto relax = [&](NodeId v, double d, EdgeId via) {
    ALT_DCHECK(d >= 0.0) << "negative path cost at node " << v;
    if (stamp_[v] != current_stamp_ || d < dist_[v]) {
      stamp_[v] = current_stamp_;
      dist_[v] = d;
      parent_[v] = via;
      heap.PushOrDecrease(v, d);
      ++pushes;
    }
  };

  Status interrupted = Status::OK();
  relax(source, 0.0, kInvalidEdge);
  while (!heap.Empty()) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      interrupted = Status::DeadlineExceeded("dijkstra search cancelled");
      break;
    }
    const auto [u, du] = heap.PopMin();
    // Settled-once/label-setting contract: the popped key is the final
    // distance label. With an indexed decrease-key heap each id is popped at
    // most once, so a mismatch means the heap or relax logic regressed.
    ALT_DCHECK(du == dist_[u] && stamp_[u] == current_stamp_)
        << "popped key diverges from distance label at node " << u;
    ++last_settled_;
    if (u == target) break;
    for (EdgeId e : net_.OutEdges(u)) {
      if (skip_edge && skip_edge(e)) continue;
      ALT_DCHECK(weights[e] >= 0.0) << "negative weight on edge " << e;
      ++relaxed;
      relax(net_.head(e), du + weights[e], e);
    }
  }

  if (stats != nullptr) {
    stats->nodes_settled += last_settled_;
    stats->edges_relaxed += relaxed;
    stats->heap_pushes += pushes;
    stats->heap_pops += last_settled_;
  }
  if (!interrupted.ok()) return interrupted;

  if (stamp_[target] != current_stamp_ || dist_[target] == kInfCost ||
      (target != source && parent_[target] == kInvalidEdge)) {
    return Status::NotFound("target unreachable from source");
  }

  RouteResult out;
  out.cost = dist_[target];
  NodeId cur = target;
  while (cur != source) {
    const EdgeId e = parent_[cur];
    out.edges.push_back(e);
    cur = net_.tail(e);
  }
  std::reverse(out.edges.begin(), out.edges.end());
  return out;
}

Result<RouteResult> Dijkstra::ShortestPathWithPotential(
    NodeId source, NodeId target, std::span<const double> weights,
    std::span<const double> potential, obs::SearchStats* stats,
    CancellationToken* cancel) {
  ALTROUTE_RETURN_NOT_OK(ValidateInputs(source, weights));
  if (target >= net_.num_nodes()) {
    return Status::InvalidArgument("target node out of range");
  }
  if (potential.size() != net_.num_nodes()) {
    return Status::InvalidArgument("potential vector size mismatch");
  }
  if (potential[source] == kInfCost) {
    // A feasible potential is a lower bound on the distance to the target;
    // an infinite bound at the source proves there is no path.
    return Status::NotFound("target unreachable from source");
  }

  ++current_stamp_;
  auto& heap = heap_->heap;
  heap.Clear();
  last_settled_ = 0;

  uint64_t relaxed = 0, pushes = 0, pops = 0;

  // dist_ holds true g-costs; the heap is ordered by g + potential. The
  // indexed heap keeps one entry per node, so no stale-entry filtering is
  // needed; ulp-level potential inconsistency merely re-expands a node.
  auto relax = [&](NodeId v, double d, EdgeId via) {
    ALT_DCHECK(d >= 0.0) << "negative path cost at node " << v;
    if (stamp_[v] != current_stamp_ || d < dist_[v]) {
      stamp_[v] = current_stamp_;
      dist_[v] = d;
      parent_[v] = via;
      heap.PushOrDecrease(v, d + potential[v]);
      ++pushes;
    }
  };

  Status interrupted = Status::OK();
  relax(source, 0.0, kInvalidEdge);
  while (!heap.Empty()) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      interrupted = Status::DeadlineExceeded("a-star search cancelled");
      break;
    }
    const auto [u, key] = heap.PopMin();
    ++pops;
    ++last_settled_;
    if (u == target) break;
    const double du = dist_[u];
    for (EdgeId e : net_.OutEdges(u)) {
      const NodeId v = net_.head(e);
      // potential == inf proves v cannot reach the target; skipping keeps
      // inf out of the heap-key arithmetic.
      if (potential[v] == kInfCost) continue;
      ALT_DCHECK(weights[e] >= 0.0) << "negative weight on edge " << e;
      ++relaxed;
      relax(v, du + weights[e], e);
    }
  }

  if (stats != nullptr) {
    stats->nodes_settled += last_settled_;
    stats->edges_relaxed += relaxed;
    stats->heap_pushes += pushes;
    stats->heap_pops += pops;
  }
  if (!interrupted.ok()) return interrupted;

  if (stamp_[target] != current_stamp_ || dist_[target] == kInfCost ||
      (target != source && parent_[target] == kInvalidEdge)) {
    return Status::NotFound("target unreachable from source");
  }

  RouteResult out;
  out.cost = dist_[target];
  NodeId cur = target;
  while (cur != source) {
    const EdgeId e = parent_[cur];
    out.edges.push_back(e);
    cur = net_.tail(e);
  }
  std::reverse(out.edges.begin(), out.edges.end());
  return out;
}

Result<ShortestPathTree> Dijkstra::BuildTree(NodeId root,
                                             std::span<const double> weights,
                                             SearchDirection direction,
                                             double max_cost,
                                             obs::SearchStats* stats,
                                             CancellationToken* cancel) {
  ALTROUTE_RETURN_NOT_OK(ValidateInputs(root, weights));

  ShortestPathTree tree;
  tree.root = root;
  tree.direction = direction;
  tree.dist.assign(net_.num_nodes(), kInfCost);
  tree.parent_edge.assign(net_.num_nodes(), kInvalidEdge);

  auto& heap = heap_->heap;
  heap.Clear();
  // The stamp marks settled nodes: stamp_[v] == current_stamp_ iff v is
  // settled in this build.
  ++current_stamp_;
  last_settled_ = 0;

  tree.dist[root] = 0.0;
  heap.PushOrDecrease(root, 0.0);

  uint64_t relaxed = 0, pushes = 1, pops = 0;
  Status interrupted = Status::OK();

  while (!heap.Empty()) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      interrupted = Status::DeadlineExceeded("tree build cancelled");
      break;
    }
    const auto [u, du] = heap.PopMin();
    ++pops;
    if (du > max_cost) break;
    ALT_DCHECK(stamp_[u] != current_stamp_)
        << "node " << u << " settled twice in BuildTree";
    ALT_DCHECK(du == tree.dist[u]) << "popped key diverges from tree label";
    stamp_[u] = current_stamp_;
    ++last_settled_;
    const auto edges = (direction == SearchDirection::kForward)
                           ? net_.OutEdges(u)
                           : net_.InEdges(u);
    for (EdgeId e : edges) {
      const NodeId v =
          (direction == SearchDirection::kForward) ? net_.head(e) : net_.tail(e);
      if (stamp_[v] == current_stamp_) continue;  // settled
      ++relaxed;
      const double dv = du + weights[e];
      if (dv < tree.dist[v]) {
        tree.dist[v] = dv;
        tree.parent_edge[v] = e;
        heap.PushOrDecrease(v, dv);
        ++pushes;
      }
    }
  }

  if (stats != nullptr) {
    stats->nodes_settled += last_settled_;
    stats->edges_relaxed += relaxed;
    stats->heap_pushes += pushes;
    stats->heap_pops += pops;
  }
  ALTROUTE_RETURN_NOT_OK(interrupted);
  return tree;
}

}  // namespace altroute
