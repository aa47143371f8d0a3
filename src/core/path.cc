#include "core/path.h"

#include <algorithm>

namespace altroute {

Result<Path> MakePath(const RoadNetwork& net, NodeId source, NodeId target,
                      std::vector<EdgeId> edges,
                      std::span<const double> weights) {
  if (source >= net.num_nodes() || target >= net.num_nodes()) {
    return Status::InvalidArgument("path endpoint out of range");
  }
  if (weights.size() != net.num_edges()) {
    return Status::InvalidArgument("weight vector size mismatch");
  }
  Path p;
  p.source = source;
  p.target = target;
  NodeId cur = source;
  for (EdgeId e : edges) {
    if (e >= net.num_edges()) {
      return Status::InvalidArgument("edge id out of range");
    }
    if (net.tail(e) != cur) {
      return Status::InvalidArgument("path edges are not contiguous");
    }
    cur = net.head(e);
    p.cost += weights[e];
    p.length_m += net.length_m(e);
    p.travel_time_s += net.travel_time_s(e);
  }
  if (cur != target) {
    return Status::InvalidArgument("path does not end at target");
  }
  p.edges = std::move(edges);
  return p;
}

std::vector<NodeId> PathNodes(const RoadNetwork& net, const Path& path) {
  std::vector<NodeId> nodes;
  nodes.reserve(path.edges.size() + 1);
  nodes.push_back(path.source);
  for (EdgeId e : path.edges) nodes.push_back(net.head(e));
  return nodes;
}

std::vector<LatLng> PathCoords(const RoadNetwork& net, const Path& path) {
  std::vector<LatLng> coords;
  coords.reserve(path.edges.size() + 1);
  for (NodeId n : PathNodes(net, path)) coords.push_back(net.coord(n));
  return coords;
}

bool IsLoopless(const RoadNetwork& net, const Path& path) {
  std::vector<NodeId> nodes = PathNodes(net, path);
  std::sort(nodes.begin(), nodes.end());
  return std::adjacent_find(nodes.begin(), nodes.end()) == nodes.end();
}

double CostUnder(const Path& path, std::span<const double> weights) {
  double total = 0.0;
  for (EdgeId e : path.edges) total += weights[e];
  return total;
}

}  // namespace altroute
