#include "testutil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace altroute {
namespace testutil {

std::shared_ptr<RoadNetwork> LineNetwork(int n, double hop_s, double hop_m) {
  GraphBuilder builder("line");
  for (int i = 0; i < n; ++i) {
    builder.AddNode(LatLng(0.0, i * 0.005));
  }
  for (int i = 0; i + 1 < n; ++i) {
    builder.AddBidirectionalEdge(static_cast<NodeId>(i),
                                 static_cast<NodeId>(i + 1), hop_m, hop_s,
                                 RoadClass::kResidential);
  }
  auto net = builder.Build();
  ALT_CHECK(net.ok());
  return std::move(net).ValueOrDie();
}

std::shared_ptr<RoadNetwork> GridNetwork(int rows, int cols, double hop_s,
                                         double spacing_m) {
  GraphBuilder builder("grid");
  const double deg = spacing_m / 111320.0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      builder.AddNode(LatLng(r * deg, c * deg));
    }
  }
  auto id = [&](int r, int c) { return static_cast<NodeId>(r * cols + c); };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        builder.AddBidirectionalEdge(id(r, c), id(r, c + 1), spacing_m, hop_s,
                                     RoadClass::kResidential);
      }
      if (r + 1 < rows) {
        builder.AddBidirectionalEdge(id(r, c), id(r + 1, c), spacing_m, hop_s,
                                     RoadClass::kResidential);
      }
    }
  }
  auto net = builder.Build();
  ALT_CHECK(net.ok());
  return std::move(net).ValueOrDie();
}

std::shared_ptr<RoadNetwork> RandomConnectedNetwork(uint64_t seed, int n,
                                                    int extra_edges) {
  Rng rng(seed);
  GraphBuilder builder("random");
  for (int i = 0; i < n; ++i) {
    builder.AddNode(LatLng(rng.Uniform(-0.05, 0.05), rng.Uniform(-0.05, 0.05)));
  }
  // Random spanning tree: connect each node to a random earlier node.
  for (int i = 1; i < n; ++i) {
    const auto j = static_cast<NodeId>(rng.NextUint64(static_cast<uint64_t>(i)));
    const double w = rng.Uniform(30.0, 300.0);
    builder.AddBidirectionalEdge(static_cast<NodeId>(i), j, w * 10.0, w,
                                 RoadClass::kResidential);
  }
  for (int k = 0; k < extra_edges; ++k) {
    const auto a = static_cast<NodeId>(rng.NextUint64(static_cast<uint64_t>(n)));
    const auto b = static_cast<NodeId>(rng.NextUint64(static_cast<uint64_t>(n)));
    if (a == b) continue;
    const double w = rng.Uniform(30.0, 300.0);
    builder.AddBidirectionalEdge(a, b, w * 10.0, w, RoadClass::kSecondary);
  }
  auto net = builder.Build();
  ALT_CHECK(net.ok());
  return std::move(net).ValueOrDie();
}

std::shared_ptr<RoadNetwork> TwoIslandNetwork(uint64_t seed, int n_per_island,
                                              int extra_edges_per_island) {
  Rng rng(seed);
  GraphBuilder builder("two_islands");
  const int total = 2 * n_per_island;
  for (int i = 0; i < total; ++i) {
    builder.AddNode(LatLng(rng.Uniform(-0.05, 0.05), rng.Uniform(-0.05, 0.05)));
  }
  for (int island = 0; island < 2; ++island) {
    const int base = island * n_per_island;
    // Random spanning tree within the island, then extra edges.
    for (int i = 1; i < n_per_island; ++i) {
      const auto j = static_cast<NodeId>(
          base + rng.NextUint64(static_cast<uint64_t>(i)));
      const double w = rng.Uniform(30.0, 300.0);
      builder.AddBidirectionalEdge(static_cast<NodeId>(base + i), j, w * 10.0,
                                   w, RoadClass::kResidential);
    }
    for (int k = 0; k < extra_edges_per_island; ++k) {
      const auto a = static_cast<NodeId>(
          base + rng.NextUint64(static_cast<uint64_t>(n_per_island)));
      const auto b = static_cast<NodeId>(
          base + rng.NextUint64(static_cast<uint64_t>(n_per_island)));
      if (a == b) continue;
      const double w = rng.Uniform(30.0, 300.0);
      builder.AddBidirectionalEdge(a, b, w * 10.0, w, RoadClass::kSecondary);
    }
  }
  auto net = builder.Build();
  ALT_CHECK(net.ok());
  return std::move(net).ValueOrDie();
}

std::vector<double> BellmanFordDistances(const RoadNetwork& net, NodeId source,
                                         std::span<const double> weights) {
  std::vector<double> dist(net.num_nodes(), kInfCost);
  dist[source] = 0.0;
  for (size_t iter = 0; iter + 1 < net.num_nodes(); ++iter) {
    bool changed = false;
    for (EdgeId e = 0; e < net.num_edges(); ++e) {
      if (dist[net.tail(e)] == kInfCost) continue;
      const double d = dist[net.tail(e)] + weights[e];
      if (d < dist[net.head(e)]) {
        dist[net.head(e)] = d;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

EdgeId FirstRealisingEdge(const RoadNetwork& net,
                          std::span<const double> weights,
                          const ShortestPathTree& tree, NodeId v,
                          int* realising) {
  const bool forward = tree.direction == SearchDirection::kForward;
  const double dv = tree.dist[v];
  const double tol = 1e-9 * std::max(1.0, dv);
  EdgeId first = kInvalidEdge;
  int count = 0;
  for (EdgeId e : forward ? net.InEdges(v) : net.OutEdges(v)) {
    const double du = tree.dist[forward ? net.tail(e) : net.head(e)];
    if (du < dv && du + weights[e] <= dv + tol) {
      if (first == kInvalidEdge) first = e;
      ++count;
    }
  }
  if (realising != nullptr) *realising = count;
  return first;
}

void ExpectConsistentParents(const RoadNetwork& net,
                             std::span<const double> weights,
                             const ShortestPathTree& tree,
                             const std::string& where) {
  const bool forward = tree.direction == SearchDirection::kForward;
  const size_t n = net.num_nodes();
  ASSERT_EQ(tree.dist.size(), n) << where;
  ASSERT_EQ(tree.parent_edge.size(), n) << where;
  ASSERT_LT(tree.root, n) << where;
  EXPECT_EQ(tree.dist[tree.root], 0.0) << where;
  for (NodeId v = 0; v < n; ++v) {
    const EdgeId e = tree.parent_edge[v];
    if (v == tree.root || !tree.Reached(v)) {
      ASSERT_EQ(e, kInvalidEdge) << where << ": node " << v;
      continue;
    }
    ASSERT_NE(e, kInvalidEdge) << where << ": reached node " << v
                               << " has no parent";
    ASSERT_EQ(forward ? net.head(e) : net.tail(e), v)
        << where << ": parent " << e << " is not incident to node " << v;
    const double dv = tree.dist[v];
    const double du = tree.dist[forward ? net.tail(e) : net.head(e)];
    ASSERT_LT(du, dv) << where << ": node " << v;
    ASSERT_NEAR(du + weights[e], dv, 1e-9 * std::max(1.0, dv))
        << where << ": parent " << e << " of node " << v;
  }
  // Every chain reaches the root. Labels fall strictly along a chain, so a
  // chain cannot loop; each node is walked once, chains ending at a node
  // already known to reach the root.
  std::vector<uint8_t> reaches(n, 0);
  reaches[tree.root] = 1;
  std::vector<NodeId> chain;
  for (NodeId v = 0; v < n; ++v) {
    if (!tree.Reached(v)) continue;
    chain.clear();
    NodeId x = v;
    while (reaches[x] == 0) {
      chain.push_back(x);
      const EdgeId e = tree.parent_edge[x];
      ASSERT_NE(e, kInvalidEdge) << where << ": the chain of node " << v
                                 << " breaks at node " << x;
      ASSERT_LE(chain.size(), n) << where << ": the chain of node " << v
                                 << " loops";
      x = forward ? net.tail(e) : net.head(e);
    }
    for (NodeId c : chain) reaches[c] = 1;
  }
}

std::shared_ptr<const ContractionHierarchy> Hierarchy(
    std::shared_ptr<const RoadNetwork> net, std::span<const double> weights) {
  auto ch = ContractionHierarchy::Build(std::move(net), weights);
  ALT_CHECK(ch.ok()) << ch.status();
  return std::move(ch).ValueOrDie();
}

std::shared_ptr<TreePair> Trees(std::shared_ptr<const RoadNetwork> net,
                                std::span<const double> weights) {
  return std::make_shared<TreePair>(Hierarchy(std::move(net), weights));
}

std::shared_ptr<TreePair> Trees(std::shared_ptr<const RoadNetwork> net) {
  const std::span<const double> weights = net->travel_times();
  return Trees(std::move(net), weights);
}

}  // namespace testutil
}  // namespace altroute
