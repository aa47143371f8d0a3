// PHAST (Delling et al.): one-to-all shortest-path distances over a
// contraction hierarchy — an upward Dijkstra from the source followed by a
// single linear sweep over downward arcs in descending rank order, read in
// pull order (the arcs into each node together; see
// ContractionHierarchy::SweepArcs). On road
// networks this computes full distance tables several times faster than
// Dijkstra, which matters here because the Plateaus and SSVP-D+ generators
// are dominated by full-tree construction (paper Sec. 2.2).
//
// Both orientations are supported: forward distances (source -> every node)
// and backward distances (every node -> source, i.e. PHAST over the reverse
// graph, whose upward phase walks the hierarchy's down-arcs in reverse and
// whose sweep walks the up-arcs in reverse). TreePair (routing/tree_pair.h)
// runs one of each per request for the Plateaus, Dissimilarity and Penalty
// generators, and one of each over the commercial hierarchy for Commercial.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "routing/contraction_hierarchy.h"
#include "routing/indexed_heap.h"

namespace altroute {

/// One-to-all engine bound to a hierarchy. Its only workspace is the
/// upward-phase heap, reused across calls; the sweep arcs belong to the
/// hierarchy. Thread-compatible, not thread-safe: one instance per thread;
/// distinct instances may share the immutable hierarchy concurrently.
class Phast {
 public:
  explicit Phast(std::shared_ptr<const ContractionHierarchy> ch);

  /// Distance table written into the caller-supplied buffer `dist`, whose
  /// size must equal the network's node count (InvalidArgument otherwise).
  /// For kForward, dist[v] is the source->v distance; for kBackward the
  /// v->source distance — identical to Dijkstra::BuildTree(...).dist in the
  /// matching direction up to floating-point noise; kInfCost when
  /// unreachable. Avoids the n-sized allocation/copy of Distances(), so the
  /// serving path can keep per-worker buffers. When `stats` is non-null the
  /// upward-phase and sweep counters are accumulated into it; `cancel` is
  /// polled cooperatively (the buffer contents are unspecified after a
  /// DeadlineExceeded return).
  Status DistancesInto(NodeId source, SearchDirection direction,
                       std::span<double> dist,
                       obs::SearchStats* stats = nullptr,
                       CancellationToken* cancel = nullptr);

  /// Convenience wrapper: allocates and returns the full n-sized table per
  /// call (forward orientation). Prefer DistancesInto on hot paths.
  Result<std::vector<double>> Distances(NodeId source);

  const ContractionHierarchy& hierarchy() const { return *ch_; }

 private:
  std::shared_ptr<const ContractionHierarchy> ch_;
  IndexedHeap<double> heap_;
};

}  // namespace altroute
