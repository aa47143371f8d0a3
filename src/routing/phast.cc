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
/// one by one. Returns the arcs relaxed from reached nodes, or -1 when
/// cancelled.
template <bool kForward>
int64_t Sweep(std::span<const ContractionHierarchy::Arc> arcs,
              std::span<double> dist, CancellationToken* cancel) {
  if (arcs.empty()) return 0;
  const auto head = [](const ContractionHierarchy::Arc& a) {
    return kForward ? a.to : a.from;
  };
  int64_t relaxed = 0;
  size_t next_poll = kSweepPollArcs;
  NodeId node = head(arcs[0]);
  double best = dist[node];
  for (size_t i = 0; i < arcs.size(); ++i) {
    const ContractionHierarchy::Arc& a = arcs[i];
    if (head(a) != node) {
      dist[node] = best;
      if (cancel != nullptr && i >= next_poll) {
        if (cancel->StopNow()) return -1;
        next_poll = i + kSweepPollArcs;
      }
      node = head(a);
      best = dist[node];
    }
    // An unreached tail adds kInfCost, which never lowers the minimum.
    const double from = dist[kForward ? a.from : a.to];
    relaxed += static_cast<int64_t>(from != kInfCost);
    best = std::min(best, from + a.weight);
  }
  dist[node] = best;
  return relaxed;
}

}  // namespace

Status Phast::DistancesInto(NodeId source, SearchDirection direction,
                            std::span<double> dist, obs::SearchStats* stats,
                            CancellationToken* cancel) {
  const size_t n = ch_->ranks().size();
  if (source >= n) return Status::InvalidArgument("source out of range");
  if (dist.size() != n) {
    return Status::InvalidArgument("distance buffer size mismatch");
  }
  const bool forward = direction == SearchDirection::kForward;

  std::fill(dist.begin(), dist.end(), kInfCost);

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
    for (const ContractionHierarchy::Arc& a : ch_->UpwardArcs(u, direction)) {
      const NodeId v = forward ? a.to : a.from;
      ++relaxed;
      const double dv = du + a.weight;
      if (dv < dist[v]) {
        dist[v] = dv;
        if (heap_.PushOrDecrease(v, dv)) ++pushes;
      }
    }
  }

  const auto sweep = ch_->SweepArcs(direction);
  const int64_t swept = forward ? Sweep<true>(sweep, dist, cancel)
                                : Sweep<false>(sweep, dist, cancel);
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

Result<std::vector<double>> Phast::Distances(NodeId source) {
  std::vector<double> dist(ch_->ranks().size(), kInfCost);
  const Status status =
      DistancesInto(source, SearchDirection::kForward, dist);
  if (!status.ok()) return status;
  return dist;
}

}  // namespace altroute
