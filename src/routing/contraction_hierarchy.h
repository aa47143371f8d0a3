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

  /// Builds the hierarchy. `weights` must have one positive finite entry per
  /// edge of `net` and is captured by value (queries are self-contained).
  static Result<std::shared_ptr<const ContractionHierarchy>> Build(
      std::shared_ptr<const RoadNetwork> net, std::span<const double> weights,
      const ChOptions& options = {});

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

  /// Internal arc representation, exposed for the preprocessing helpers.
  struct Arc {
    NodeId from;
    NodeId to;
    double weight;
    EdgeId orig_edge;   // kInvalidEdge for shortcuts
    uint32_t child1;    // arc ids of the two replaced arcs (shortcuts only)
    uint32_t child2;
  };
  static constexpr uint32_t kNoChild = static_cast<uint32_t>(-1);

  /// Read access to the search graphs for CH-based algorithms (PHAST).
  const std::vector<Arc>& arcs() const { return arcs_; }
  const std::vector<uint32_t>& up_first() const { return up_first_; }
  const std::vector<uint32_t>& up_arcs() const { return up_arcs_; }
  const std::vector<uint32_t>& down_first() const { return down_first_; }
  const std::vector<uint32_t>& down_arcs() const { return down_arcs_; }

  /// One arc of a PHAST sweep, oriented in relaxation order: dist[to] is
  /// improved from dist[from].
  struct SweepArc {
    NodeId from;
    NodeId to;
    double weight;
  };
  /// PHAST's linear sweeps, sorted once per hierarchy and shared by every
  /// Phast over it. The forward sweep holds the downward arcs in descending
  /// tail rank; the backward sweep holds the upward arcs traversed head ->
  /// tail (the reverse graph's downward arcs), in descending head rank.
  const std::vector<SweepArc>& forward_sweep() const { return forward_sweep_; }
  const std::vector<SweepArc>& backward_sweep() const {
    return backward_sweep_;
  }

  /// True when the hierarchy was built over `weights`: every arc that still
  /// stands for an original edge carries exactly that edge's weight. A
  /// hierarchy over other weights would give PHAST labels no original edge
  /// realises.
  bool BuiltOver(std::span<const double> weights) const;

 private:
  friend class Query;

  ContractionHierarchy() = default;

  void UnpackArc(uint32_t arc, std::vector<EdgeId>* out) const;

  std::shared_ptr<const RoadNetwork> net_;
  std::vector<uint32_t> rank_;
  std::vector<Arc> arcs_;
  size_t num_shortcuts_ = 0;

  // Upward graph for the forward search: arcs with rank[to] > rank[from].
  std::vector<uint32_t> up_first_;   // CSR by `from`
  std::vector<uint32_t> up_arcs_;
  // Upward graph for the backward search: arcs with rank[from] > rank[to],
  // bucketed by `to` (traversed in reverse).
  std::vector<uint32_t> down_first_;  // CSR by `to`
  std::vector<uint32_t> down_arcs_;

  std::vector<SweepArc> forward_sweep_;
  std::vector<SweepArc> backward_sweep_;
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
