// Dijkstra's algorithm over a RoadNetwork with an explicit edge-weight
// vector: one-to-one queries, one-to-all searches, and full shortest-path
// tree construction (forward trees rooted at a source, backward trees rooted
// at a target). Plateau and via-node alternative generators consume the
// trees directly (paper Sec. 2.2-2.3).
#pragma once

#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "graph/road_network.h"
#include "obs/search_stats.h"
#include "util/deadline.h"
#include "util/result.h"

namespace altroute {

inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// Search orientation. A forward tree holds shortest paths *from* the root;
/// a backward tree (run on reverse adjacency) holds shortest paths *to* it.
enum class SearchDirection { kForward, kBackward };

/// Dense shortest-path tree: per-node distance and the tree edge that reaches
/// the node (for forward trees, parent_edge[v] enters v; for backward trees,
/// parent_edge[v] leaves v toward the root).
struct ShortestPathTree {
  NodeId root = kInvalidNode;
  SearchDirection direction = SearchDirection::kForward;
  std::vector<double> dist;        // kInfCost when unreached
  std::vector<EdgeId> parent_edge;  // kInvalidEdge at root / unreached
  /// Reached nodes other than the root left without a parent edge: a walk
  /// through one sees a broken chain. Only a hand-built tree can have some;
  /// the trees Dijkstra and PHAST build have none.
  size_t demoted = 0;

  bool Reached(NodeId v) const { return dist[v] < kInfCost; }

  /// Edge sequence of the tree path between root and `v` in travel order
  /// (root->v for forward trees, v->root for backward trees). Empty when
  /// v == root; NotFound when v is unreached.
  Result<std::vector<EdgeId>> PathTo(const RoadNetwork& net, NodeId v) const;

  /// PathTo(net, v) appended to `edges`, for callers that assemble a route
  /// in a reused buffer. On an error `edges` may hold part of the path.
  Status AppendPathTo(const RoadNetwork& net, NodeId v,
                      std::vector<EdgeId>* edges) const;
};

/// A computed route: total cost under the query weights plus edge sequence.
struct RouteResult {
  double cost = kInfCost;
  std::vector<EdgeId> edges;
};

/// Optional per-edge predicate; edges where it returns true are skipped.
using EdgeFilter = std::function<bool(EdgeId)>;

/// Reusable Dijkstra engine. Holds workspace arrays sized to the network so
/// repeated queries do not reallocate. Not thread-safe; use one instance per
/// thread.
class Dijkstra {
 public:
  explicit Dijkstra(const RoadNetwork& net);

  /// One-to-one shortest path under `weights` (size num_edges). Returns
  /// NotFound when t is unreachable from s, InvalidArgument on bad inputs.
  /// When `stats` is non-null, search counters are accumulated into it
  /// (zero cost when null: counts are kept in locals and flushed once).
  /// When `cancel` is non-null the search polls it cooperatively every few
  /// hundred heap pops and returns DeadlineExceeded once it fires.
  Result<RouteResult> ShortestPath(NodeId source, NodeId target,
                                   std::span<const double> weights,
                                   const EdgeFilter& skip_edge = nullptr,
                                   obs::SearchStats* stats = nullptr,
                                   CancellationToken* cancel = nullptr);

  /// Goal-directed variant (A*): the heap is ordered by dist + potential[v].
  /// `potential` (size num_nodes) must be feasible and consistent under
  /// `weights` — potential[tail(e)] <= weights[e] + potential[head(e)] for
  /// every edge and potential[target] == 0. Exact distance-to-target tables
  /// under a lower bound of `weights` satisfy this; the Penalty generator
  /// passes its tree pair's backward distances under the *unpenalized* base
  /// weights (penalties only grow weights, so the bound stays valid across
  /// iterations). Nodes with potential[v] == kInfCost provably cannot reach
  /// the target and are never relaxed. Floating-point noise may re-expand a
  /// handful of nodes; results stay exact.
  Result<RouteResult> ShortestPathWithPotential(
      NodeId source, NodeId target, std::span<const double> weights,
      std::span<const double> potential, obs::SearchStats* stats = nullptr,
      CancellationToken* cancel = nullptr);

  /// Full shortest-path tree from `root` in the given direction. Nodes
  /// farther than `max_cost` may be left unreached (pruning bound).
  Result<ShortestPathTree> BuildTree(NodeId root, std::span<const double> weights,
                                     SearchDirection direction,
                                     double max_cost = kInfCost,
                                     obs::SearchStats* stats = nullptr,
                                     CancellationToken* cancel = nullptr);

  /// Number of nodes settled by the most recent query (instrumentation).
  size_t last_settled_count() const { return last_settled_; }

  const RoadNetwork& network() const { return net_; }

 private:
  Status ValidateInputs(NodeId source, std::span<const double> weights) const;

  const RoadNetwork& net_;
  // Timestamped workspace: entries are valid only when stamp matches.
  std::vector<double> dist_;
  std::vector<EdgeId> parent_;
  std::vector<uint32_t> stamp_;
  uint32_t current_stamp_ = 0;
  size_t last_settled_ = 0;

  // Heap is recreated cheaply per query via Clear(); allocation is retained.
  struct HeapHolder;
  std::shared_ptr<HeapHolder> heap_;
};

}  // namespace altroute
