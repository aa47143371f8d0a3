#include "testutil.h"

#include <algorithm>
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
