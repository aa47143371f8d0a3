// Contraction Hierarchies (Geisberger et al.): preprocessing-based exact
// shortest paths. The paper's related work leans on preprocessing-heavy
// indexes (hub labels [1], dynamic indexes [13]); CH is the canonical such
// substrate and gives the demo server sub-millisecond point-to-point queries.
//
// The hierarchy is built for one fixed weight vector. Queries run a
// bidirectional upward search and unpack shortcuts into original edge ids.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/road_network.h"
#include "routing/dijkstra.h"

namespace altroute {

/// Tuning knobs for CH preprocessing.
struct ChOptions {
  /// Witness searches stop after settling this many nodes; smaller builds
  /// faster hierarchies with a few redundant shortcuts (still correct).
  size_t witness_settle_limit = 60;
  /// Importance term weights (classic edge-difference heuristic).
  double edge_difference_weight = 4.0;
  double deleted_neighbors_weight = 2.0;
};

/// An immutable contraction hierarchy over a RoadNetwork + weight vector.
class ContractionHierarchy {
 public:
  class Query;

  /// Builds the hierarchy, choosing the contraction order by the classic
  /// edge-difference priority. `weights` must have one positive finite entry
  /// per edge of `net` and is captured by value (queries are
  /// self-contained).
  static Result<std::shared_ptr<const ContractionHierarchy>> Build(
      std::shared_ptr<const RoadNetwork> net, std::span<const double> weights,
      const ChOptions& options = {});

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

  /// Point-to-point query. Thread-compatible: each call allocates its own
  /// workspace (see the Query class below for the reusable-workspace variant
  /// that repeated queries should prefer). When `stats` is non-null,
  /// upward-search counters are accumulated into it.
  Result<RouteResult> ShortestPath(NodeId source, NodeId target,
                                   obs::SearchStats* stats = nullptr,
                                   CancellationToken* cancel = nullptr) const;

  /// Contraction rank of each node (0 = contracted first).
  const std::vector<uint32_t>& ranks() const { return rank_; }

  /// Total arcs including shortcuts (instrumentation).
  size_t num_arcs() const { return arcs_.size(); }
  size_t num_shortcuts() const { return num_shortcuts_; }

  const RoadNetwork& network() const { return *net_; }

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

  /// True when the hierarchy was built over `weights`: every arc that still
  /// stands for an original edge carries exactly that edge's weight. A
  /// hierarchy over other weights would give PHAST labels no original edge
  /// realises.
  bool BuiltOver(std::span<const double> weights) const;

 private:
  friend class Query;

  /// How to unpack an arc, in a parallel array so searches and sweeps read
  /// only the 16-byte Arc.
  struct Unpack {
    EdgeId orig_edge;  // kInvalidEdge for shortcuts
    uint32_t child1;   // arc ids of the two replaced arcs (shortcuts only)
    uint32_t child2;
  };
  static constexpr uint32_t kNoChild = static_cast<uint32_t>(-1);

  class Contractor;  // the build (contraction_hierarchy.cc)

  ContractionHierarchy() = default;

  /// Bucket index of `v`: buckets run in descending rank.
  uint32_t Bucket(NodeId v) const {
    return static_cast<uint32_t>(rank_.size() - 1 - rank_[v]);
  }

  void UnpackArc(uint32_t arc, std::vector<EdgeId>* out) const;

  std::shared_ptr<const RoadNetwork> net_;
  std::vector<uint32_t> rank_;
  size_t num_shortcuts_ = 0;

  // Every arc once: first the up-arcs (rank[to] > rank[from]) bucketed by
  // tail, then the down-arcs bucketed by head, the buckets of each half in
  // descending rank. A bucket is one node's upward search graph; a half,
  // read in order, is the other direction's PHAST sweep.
  std::vector<Arc> arcs_;
  std::vector<Unpack> unpack_;      // parallel to arcs_
  std::vector<uint32_t> up_first_;  // bucket b: [up_first_[b], up_first_[b+1])
  std::vector<uint32_t> down_first_;
};

/// Reusable-workspace CH query engine. Repeated point-to-point queries reuse
/// timestamped distance/parent arrays and heaps instead of allocating fresh
/// n-sized workspaces per call (ContractionHierarchy::ShortestPath does the
/// latter). Thread-compatible, not thread-safe: distinct Query instances over
/// the same (immutable) hierarchy may run concurrently; one instance must not
/// be shared across threads. Cancellation-token aware like the kernels.
///
/// Beyond plain shortest paths, RunBidirectional keeps the complete forward
/// and backward upward search spaces alive, which is exactly the state the
/// X-CHV via-node alternative generator needs: every node reached by both
/// searches is a candidate via node, and UnpackViaPath materialises the
/// s->via->t route in original edge ids.
class ContractionHierarchy::Query {
 public:
  /// Binds to a hierarchy whose lifetime the caller guarantees.
  explicit Query(const ContractionHierarchy& ch);
  /// Shares ownership (the Query keeps the hierarchy alive).
  explicit Query(std::shared_ptr<const ContractionHierarchy> ch);
  ~Query();

  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  /// Point-to-point query; same contract as
  /// ContractionHierarchy::ShortestPath but reusing this instance's
  /// workspace.
  Result<RouteResult> ShortestPath(NodeId source, NodeId target,
                                   obs::SearchStats* stats = nullptr,
                                   CancellationToken* cancel = nullptr);

  /// Outcome of one bidirectional upward run.
  struct BidirResult {
    double best_cost = kInfCost;    // optimal s-t cost
    NodeId meet = kInvalidNode;     // node minimising df(v) + db(v)
  };

  /// Runs both upward searches until every remaining heap entry exceeds
  /// `prune_factor * best_cost` (1.0 = plain shortest-path pruning; the
  /// via-node generator passes its stretch bound so candidate labels within
  /// the bound survive). NotFound when no s-t path exists. The labels and
  /// parent pointers stay valid until the next run on this instance.
  Result<BidirResult> RunBidirectional(NodeId source, NodeId target,
                                       double prune_factor = 1.0,
                                       obs::SearchStats* stats = nullptr,
                                       CancellationToken* cancel = nullptr);

  /// Distance labels of the last RunBidirectional (kInfCost when the node
  /// was not reached by that side). Labels of unsettled nodes are upper
  /// bounds realised by an actual upward/downward path.
  double forward_distance(NodeId v) const;
  double backward_distance(NodeId v) const;

  /// Nodes reached by BOTH searches in the last run — the candidate via set
  /// (unsorted). Valid until the next run.
  const std::vector<NodeId>& meeting_nodes() const { return meeting_; }

  /// The s->via->t route of the last run, unpacked to original edge ids.
  /// Its cost is forward_distance(via) + backward_distance(via) — exact for
  /// this route, an upper bound on d(s,via) + d(via,t). InvalidArgument when
  /// `via` was not reached by both searches.
  Result<RouteResult> UnpackViaPath(NodeId via) const;

 private:
  struct Workspace;  // heaps + timestamped label arrays (see .cc)

  const ContractionHierarchy& ch() const { return *ch_; }

  std::shared_ptr<const ContractionHierarchy> keepalive_;  // may be null
  const ContractionHierarchy* ch_;
  std::unique_ptr<Workspace> ws_;
  std::vector<NodeId> meeting_;
  NodeId last_source_ = kInvalidNode;
  NodeId last_target_ = kInvalidNode;
};

}  // namespace altroute
