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

/// Phase 2: one linear pass over the sweep arcs in pull order. The arcs into
/// a node come after those into every node of higher rank, so each is
/// relaxed from a final label. Returns the arcs relaxed from reached nodes,
/// or -1 when cancelled.
template <bool kForward>
int64_t Sweep(std::span<const ContractionHierarchy::Arc> arcs,
              std::span<double> dist, CancellationToken* cancel) {
  int64_t relaxed = 0;
  size_t i = 0;
  for (const ContractionHierarchy::Arc& a : arcs) {
    if (cancel != nullptr && (++i & 0xFFF) == 0 && cancel->StopNow()) {
      return -1;
    }
    const NodeId from = kForward ? a.from : a.to;
    const NodeId to = kForward ? a.to : a.from;
    if (dist[from] == kInfCost) continue;
    ++relaxed;
    const double d = dist[from] + a.weight;
    if (d < dist[to]) dist[to] = d;
  }
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
