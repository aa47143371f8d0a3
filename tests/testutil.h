// Shared helpers for the altroute test suite: canned networks, random
// connected graphs, and a brute-force shortest-path oracle.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/road_network.h"
#include "routing/dijkstra.h"
#include "routing/tree_pair.h"
#include "util/logging.h"
#include "util/random.h"

namespace altroute {

/// Test-only mutable access to RoadNetwork internals: validator and
/// serializer tests need networks that the public builders (correctly)
/// refuse to construct — NaN weights, out-of-range coordinates, dangling
/// endpoints. Befriended by RoadNetwork; never used outside tests.
struct RoadNetworkTestPeer {
  static std::vector<double>& travel_times(RoadNetwork& net) {
    return net.travel_time_s_;
  }
  static std::vector<double>& lengths(RoadNetwork& net) { return net.length_m_; }
  static std::vector<LatLng>& coords(RoadNetwork& net) { return net.coords_; }
  static std::vector<NodeId>& tails(RoadNetwork& net) { return net.tail_; }
  static std::vector<NodeId>& heads(RoadNetwork& net) { return net.head_; }
};

namespace testutil {

/// A directed chain 0 -> 1 -> ... -> n-1 (and back), every hop `hop_s`
/// seconds and `hop_m` meters, nodes spaced along a parallel of latitude.
std::shared_ptr<RoadNetwork> LineNetwork(int n, double hop_s = 60.0,
                                         double hop_m = 500.0);

/// A rows x cols bidirectional grid; hop cost `hop_s` seconds. Node (r, c)
/// has id r * cols + c. Coordinates spread around (0, 0) with `spacing_m`.
std::shared_ptr<RoadNetwork> GridNetwork(int rows, int cols,
                                         double hop_s = 60.0,
                                         double spacing_m = 400.0);

/// A random strongly connected network: a bidirectional random spanning tree
/// plus `extra_edges` random bidirectional edges with random weights in
/// [30, 300] seconds. Deterministic in `seed`.
std::shared_ptr<RoadNetwork> RandomConnectedNetwork(uint64_t seed, int n,
                                                    int extra_edges);

/// Two disjoint random strongly connected islands in one network: nodes
/// [0, n_per_island) and [n_per_island, 2 * n_per_island) with no edge
/// between them. Cross-island queries exercise the unreachable paths of
/// search kernels. Deterministic in `seed`.
std::shared_ptr<RoadNetwork> TwoIslandNetwork(uint64_t seed, int n_per_island,
                                              int extra_edges_per_island);

/// O(V*E) Bellman-Ford oracle: distance from `source` to every node under
/// `weights`; kInfCost when unreachable.
std::vector<double> BellmanFordDistances(const RoadNetwork& net, NodeId source,
                                         std::span<const double> weights);

/// The tree edge of reached non-root node `v` by the label rule, the oracle
/// for PHAST's parents: the first of v's in-edges (forward tree) or
/// out-edges (backward tree), in adjacency order, whose other end has a
/// strictly smaller label and which realises dist[v] under `weights` within
/// 1e-9 relative (of 1 s at least); kInvalidEdge when none does. When
/// `realising` is non-null it is set to how many edges do: where it is 1,
/// every shortest-path tree of these labels has this edge.
EdgeId FirstRealisingEdge(const RoadNetwork& net,
                          std::span<const double> weights,
                          const ShortestPathTree& tree, NodeId v,
                          int* realising = nullptr);

/// Expects `tree` to be a shortest-path tree of its own labels under
/// `weights`: every reached node but the root has a parent edge that is
/// incident to it, whose other end has a strictly smaller label, that
/// realises the node's label within 1e-9 relative (of 1 s at least), and
/// whose chain of parents reaches the root; the root and unreached nodes
/// have none. `where` prefixes each failure.
void ExpectConsistentParents(const RoadNetwork& net,
                             std::span<const double> weights,
                             const ShortestPathTree& tree,
                             const std::string& where = "");

/// Travel-time weight vector of a network as a std::vector.
inline std::vector<double> Weights(const RoadNetwork& net) {
  return {net.travel_times().begin(), net.travel_times().end()};
}

/// The contraction hierarchy of `weights` on `net`; aborts the test binary
/// on a build error.
std::shared_ptr<const ContractionHierarchy> Hierarchy(
    std::shared_ptr<const RoadNetwork> net, std::span<const double> weights);

/// A tree pair over the hierarchy of `weights` on `net` (by default its
/// travel times): what every tree-reading generator is built on.
std::shared_ptr<TreePair> Trees(std::shared_ptr<const RoadNetwork> net,
                                std::span<const double> weights);
std::shared_ptr<TreePair> Trees(std::shared_ptr<const RoadNetwork> net);

}  // namespace testutil
}  // namespace altroute
