#include "routing/phast.h"

#include <algorithm>

#include "util/check.h"

namespace altroute {

Phast::Phast(std::shared_ptr<const ContractionHierarchy> ch)
    : ch_(std::move(ch)) {
  ALT_CHECK(ch_ != nullptr) << "null hierarchy";
  heap_.Reset(ch_->ranks().size());
}

Status Phast::DistancesInto(NodeId source, SearchDirection direction,
                            std::span<double> dist, obs::SearchStats* stats,
                            CancellationToken* cancel) {
  const size_t n = ch_->ranks().size();
  if (source >= n) return Status::InvalidArgument("source out of range");
  if (dist.size() != n) {
    return Status::InvalidArgument("distance buffer size mismatch");
  }
  const auto& arcs = ch_->arcs();
  const bool forward = direction == SearchDirection::kForward;
  // Phase 1 walks the upward graph of the search direction: the up CSR
  // (bucketed by `from`) forward, the down CSR (bucketed by `to`, traversed
  // in reverse) backward.
  const auto& first = forward ? ch_->up_first() : ch_->down_first();
  const auto& arc_ids = forward ? ch_->up_arcs() : ch_->down_arcs();

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
    for (uint32_t k = first[u]; k < first[u + 1]; ++k) {
      const ContractionHierarchy::Arc& a = arcs[arc_ids[k]];
      const NodeId v = forward ? a.to : a.from;
      ++relaxed;
      const double dv = du + a.weight;
      if (dv < dist[v]) {
        dist[v] = dv;
        if (heap_.PushOrDecrease(v, dv)) ++pushes;
      }
    }
  }

  // Phase 2: one linear sweep in descending rank order. The sweep arcs are
  // pre-oriented so dist[a.to] is always improved from dist[a.from].
  const auto& sweep = forward ? ch_->forward_sweep() : ch_->backward_sweep();
  size_t i = 0;
  for (const ContractionHierarchy::SweepArc& a : sweep) {
    if (cancel != nullptr && (++i & 0xFFF) == 0 && cancel->StopNow()) {
      return Status::DeadlineExceeded("phast sweep cancelled");
    }
    if (dist[a.from] == kInfCost) continue;
    ++relaxed;
    const double d = dist[a.from] + a.weight;
    if (d < dist[a.to]) dist[a.to] = d;
  }

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
