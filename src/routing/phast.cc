#include "routing/phast.h"

#include <algorithm>

#include "util/check.h"

namespace altroute {

Phast::Phast(std::shared_ptr<const ContractionHierarchy> ch)
    : ch_(std::move(ch)) {
  ALT_CHECK(ch_ != nullptr) << "null hierarchy";
  heap_.Reset(ch_->ranks().size());
}

namespace {

/// The sweep polls cancellation at the first bucket boundary after every
/// this many arcs.
constexpr size_t kSweepPollArcs = 4096;

/// Phase 2: one linear pass over the sweep arcs in pull order. The arcs into
/// a node come after those into every node of higher rank, so each is
/// relaxed from a final label. They also lie next to each other (a bucket),
/// so the node's running minimum stays in a register and is stored once, at
/// the bucket's end: no arc waits on the store of the arc before it. `min`
/// does not depend on order, so the labels are those of relaxing the arcs
/// one by one. When kParents, the node's tree edge rides along the same
/// way: the end edge of an arc that lowers the minimum strictly, picked by
/// an integer select so the minimum stays a plain `min`. Returns the arcs
/// relaxed from reached nodes, or -1 when cancelled.
template <bool kForward, bool kParents>
int64_t Sweep(std::span<const ContractionHierarchy::Arc> arcs,
              std::span<const EdgeId> ends, std::span<double> dist,
              std::span<EdgeId> parent, CancellationToken* cancel) {
  if (arcs.empty()) return 0;
  const auto head = [](const ContractionHierarchy::Arc& a) {
    return kForward ? a.to : a.from;
  };
  int64_t relaxed = 0;
  size_t next_poll = kSweepPollArcs;
  NodeId node = head(arcs[0]);
  double best = dist[node];
  EdgeId best_edge = kInvalidEdge;
  if constexpr (kParents) best_edge = parent[node];
  for (size_t i = 0; i < arcs.size(); ++i) {
    const ContractionHierarchy::Arc& a = arcs[i];
    if (head(a) != node) {
      dist[node] = best;
      if constexpr (kParents) parent[node] = best_edge;
      if (cancel != nullptr && i >= next_poll) {
        if (cancel->StopNow()) return -1;
        next_poll = i + kSweepPollArcs;
      }
      node = head(a);
      best = dist[node];
      if constexpr (kParents) best_edge = parent[node];
    }
    // An unreached tail adds kInfCost, which never lowers the minimum.
    const double from = dist[kForward ? a.from : a.to];
    relaxed += static_cast<int64_t>(from != kInfCost);
    const double cand = from + a.weight;
    if constexpr (kParents) {
      // Loaded whether or not it is taken, so the select is a conditional
      // move, not a branch on an unpredictable compare.
      const EdgeId end = ends[i];
      best_edge = cand < best ? end : best_edge;
    }
    best = std::min(best, cand);
  }
  dist[node] = best;
  if constexpr (kParents) parent[node] = best_edge;
  return relaxed;
}

}  // namespace

template <bool kParents>
Status Phast::Run(NodeId source, SearchDirection direction,
                  std::span<double> dist, std::span<EdgeId> parent,
                  obs::SearchStats* stats, CancellationToken* cancel) {
  const bool forward = direction == SearchDirection::kForward;
  std::fill(dist.begin(), dist.end(), kInfCost);
  if constexpr (kParents) {
    std::fill(parent.begin(), parent.end(), kInvalidEdge);
  }

  // Local counters, flushed once (the nullptr path stays free).
  uint64_t settled = 0, relaxed = 0, pushes = 0, pops = 0;

  // Phase 1: upward Dijkstra from the source.
  heap_.Clear();
  dist[source] = 0.0;
  heap_.PushOrDecrease(source, 0.0);
  ++pushes;
  while (!heap_.Empty()) {
    const auto [u, du] = heap_.PopMin();
    ++pops;
    if (du > dist[u]) continue;
    ++settled;
    if (cancel != nullptr && (settled & 0xFF) == 0 && cancel->StopNow()) {
      return Status::DeadlineExceeded("phast upward phase cancelled");
    }
    const std::span<const ContractionHierarchy::Arc> arcs =
        ch_->UpwardArcs(u, direction);
    std::span<const EdgeId> ends;
    if constexpr (kParents) ends = ch_->UpwardEnds(u, direction);
    for (size_t i = 0; i < arcs.size(); ++i) {
      const ContractionHierarchy::Arc& a = arcs[i];
      const NodeId v = forward ? a.to : a.from;
      ++relaxed;
      const double dv = du + a.weight;
      if (dv < dist[v]) {
        dist[v] = dv;
        if constexpr (kParents) parent[v] = ends[i];
        if (heap_.PushOrDecrease(v, dv)) ++pushes;
      }
    }
  }

  const auto sweep = ch_->SweepArcs(direction);
  std::span<const EdgeId> ends;
  if constexpr (kParents) ends = ch_->SweepEnds(direction);
  const int64_t swept =
      forward ? Sweep<true, kParents>(sweep, ends, dist, parent, cancel)
              : Sweep<false, kParents>(sweep, ends, dist, parent, cancel);
  if (swept < 0) return Status::DeadlineExceeded("phast sweep cancelled");
  relaxed += static_cast<uint64_t>(swept);

  if (stats != nullptr) {
    stats->nodes_settled += settled;
    stats->edges_relaxed += relaxed;
    stats->heap_pushes += pushes;
    stats->heap_pops += pops;
  }
  return Status::OK();
}

Status Phast::DistancesInto(NodeId source, SearchDirection direction,
                            std::span<double> dist, obs::SearchStats* stats,
                            CancellationToken* cancel) {
  const size_t n = ch_->ranks().size();
  if (source >= n) return Status::InvalidArgument("source out of range");
  if (dist.size() != n) {
    return Status::InvalidArgument("distance buffer size mismatch");
  }
  return Run<false>(source, direction, dist, {}, stats, cancel);
}

Status Phast::TreeInto(NodeId source, SearchDirection direction,
                       ShortestPathTree* tree, obs::SearchStats* stats,
                       CancellationToken* cancel) {
  const size_t n = ch_->ranks().size();
  if (source >= n) return Status::InvalidArgument("source out of range");
  tree->root = source;
  tree->direction = direction;
  tree->dist.resize(n);
  tree->parent_edge.resize(n);
  tree->demoted = 0;
  ALTROUTE_RETURN_NOT_OK(Run<true>(source, direction, tree->dist,
                                   tree->parent_edge, stats, cancel));
#ifndef NDEBUG
  // Each parent obeys the label rule: it joins v to a neighbour of strictly
  // smaller label and realises v's label up to the re-association noise of
  // summing along shortcuts. A node without one would be a broken chain.
  const RoadNetwork& net = ch_->network();
  const std::vector<double>& weights = ch_->weights();
  const bool forward = direction == SearchDirection::kForward;
  for (NodeId v = 0; v < n; ++v) {
    const double dv = tree->dist[v];
    const EdgeId e = tree->parent_edge[v];
    if (v == source || dv == kInfCost) {
      ALT_DCHECK_EQ(e, kInvalidEdge) << "node " << v << " has a parent";
      continue;
    }
    ALT_DCHECK_NE(e, kInvalidEdge) << "reached node " << v << " has none";
    ALT_DCHECK_EQ(forward ? net.head(e) : net.tail(e), v)
        << "parent " << e << " of node " << v << " is not incident to it";
    const double du = tree->dist[forward ? net.tail(e) : net.head(e)];
    ALT_DCHECK(du < dv && du + weights[e] <= dv + 1e-9 * std::max(1.0, dv))
        << "parent " << e << " does not realise node " << v << "'s label";
  }
#endif
  return Status::OK();
}

Result<std::vector<double>> Phast::Distances(NodeId source) {
  std::vector<double> dist(ch_->ranks().size(), kInfCost);
  const Status status =
      DistancesInto(source, SearchDirection::kForward, dist);
  if (!status.ok()) return status;
  return dist;
}

}  // namespace altroute
