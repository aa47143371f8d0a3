// Contraction Hierarchies (Geisberger et al.): preprocessing-based exact
// shortest paths. The paper's related work leans on preprocessing-heavy
// indexes (hub labels [1], dynamic indexes [13]); CH is the canonical such
// substrate.
//
// The hierarchy is built for one fixed weight vector. PHAST
// (routing/phast.h) is its one reader: an upward search from the source
// over UpwardArcs, then one linear sweep over SweepArcs, reading the arcs'
// end edges (UpwardEnds, SweepEnds) when it records a tree.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/road_network.h"
#include "routing/dijkstra.h"

namespace altroute {

/// An immutable contraction hierarchy over a RoadNetwork + weight vector.
class ContractionHierarchy {
 public:
  /// Builds the hierarchy, choosing the contraction order by the classic
  /// edge-difference priority. `weights` must have one positive finite entry
  /// per edge of `net`; the hierarchy keeps a copy (see BuiltOver).
  static Result<std::shared_ptr<const ContractionHierarchy>> Build(
      std::shared_ptr<const RoadNetwork> net, std::span<const double> weights);

  /// Builds the hierarchy over `weights` in a given order: node v is
  /// contracted with rank `ranks[v]`, so ranks() returns `ranks`. No
  /// priority queue and no simulated contraction, so it builds faster than
  /// Build. Correctness does not depend on the order, only search cost
  /// does: another hierarchy's ranks() over related weights (the commercial
  /// weights scale the display weights per road class) give a hierarchy
  /// nearly as small. InvalidArgument unless `ranks` is a permutation of
  /// 0..n-1, or on the weight errors of Build.
  static Result<std::shared_ptr<const ContractionHierarchy>> BuildInOrder(
      std::shared_ptr<const RoadNetwork> net, std::span<const double> weights,
      std::span<const uint32_t> ranks);

  /// Contraction rank of each node (0 = contracted first).
  const std::vector<uint32_t>& ranks() const { return rank_; }

  /// Total arcs including shortcuts (instrumentation).
  size_t num_arcs() const { return arcs_.size(); }
  size_t num_shortcuts() const { return num_shortcuts_; }

  const RoadNetwork& network() const { return *net_; }
  /// The weights the hierarchy was built over, one per edge of network().
  const std::vector<double>& weights() const { return weights_; }

  /// One arc of the search graphs: `from` -> `to` at `weight`. Each arc is
  /// stored once, 16 bytes, and serves both search directions.
  struct Arc {
    NodeId from;
    NodeId to;
    double weight;
  };

  /// The arcs an upward search in `direction` relaxes from `v`. kForward:
  /// the up-arcs v -> w with rank[w] > rank[v]. kBackward: the down-arcs
  /// w -> v with rank[w] > rank[v], traversed head to tail.
  std::span<const Arc> UpwardArcs(NodeId v, SearchDirection direction) const;

  /// The linear sweep of PHAST in `direction`, in pull order: the arcs into
  /// each node, node by node in descending rank, so every arc is read after
  /// all arcs into the node it is read from. kForward: the down-arcs
  /// (dist[to] is improved from dist[from]). kBackward: the up-arcs
  /// (dist[from] is improved from dist[to]).
  std::span<const Arc> SweepArcs(SearchDirection direction) const;

  /// An arc stands for a path of original edges. These give, parallel to
  /// UpwardArcs(v, direction) and SweepArcs(direction), the original edge at
  /// the end of each arc that a search in `direction` labels: kForward, the
  /// head edge (the path's last edge, entering `to`); kBackward, the tail
  /// edge (its first, leaving `from`). An original arc's two end edges are
  /// its own edge. So the end edge is the tree edge of the node the arc
  /// labels.
  std::span<const EdgeId> UpwardEnds(NodeId v, SearchDirection direction) const;
  std::span<const EdgeId> SweepEnds(SearchDirection direction) const;

  /// True when the hierarchy was built over exactly `weights`, edge for
  /// edge. A hierarchy over other weights would give PHAST labels no
  /// original edge realises.
  bool BuiltOver(std::span<const double> weights) const;

 private:
  class Contractor;  // the build (contraction_hierarchy.cc)

  ContractionHierarchy() = default;

  /// Bucket index of `v`: buckets run in descending rank.
  uint32_t Bucket(NodeId v) const {
    return static_cast<uint32_t>(rank_.size() - 1 - rank_[v]);
  }

  std::shared_ptr<const RoadNetwork> net_;
  std::vector<double> weights_;  // the weights the hierarchy was built over
  std::vector<uint32_t> rank_;
  size_t num_shortcuts_ = 0;

  // Every arc once: first the up-arcs (rank[to] > rank[from]) bucketed by
  // tail, then the down-arcs bucketed by head, the buckets of each half in
  // descending rank. A bucket is one node's upward search graph; a half,
  // read in order, is the other direction's PHAST sweep.
  std::vector<Arc> arcs_;
  std::vector<EdgeId> tail_edge_;  // parallel to arcs_: the edge leaving from
  std::vector<EdgeId> head_edge_;  // parallel to arcs_: the edge entering to
  std::vector<uint32_t> up_first_;  // bucket b: [up_first_[b], up_first_[b+1])
  std::vector<uint32_t> down_first_;
};

}  // namespace altroute
