// Reproduces the structure of paper Fig. 1: the plateau construction
// walkthrough. For representative long queries it reports (a) the forward
// tree, (b) the backward tree, (c) the most prominent plateaus, and (d) the
// alternative paths generated from the top-5 plateaus.
#include "bench_util.h"
#include "core/plateau.h"
#include "util/random.h"
#include "util/check.h"

using namespace altroute;
using namespace altroute::bench;

int main() {
  std::printf("=== Fig. 1: Alternative paths using plateaus ===\n\n");
  auto net = City("melbourne");
  const std::vector<double> weights(net->travel_times().begin(),
                                    net->travel_times().end());

  AlternativeOptions options;
  options.max_routes = 5;  // Fig. 1(d) shows five alternative paths
  PlateauGenerator generator(
      std::make_shared<TreePair>(Hierarchy(net, weights)), options);
  Dijkstra probe(*net);

  Rng rng(20220101);
  int shown = 0;
  while (shown < 3) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    // Long cross-city trips, like Cambridge -> Manchester in the figure.
    if (HaversineMeters(net->coord(s), net->coord(t)) < 12000.0) continue;
    ++shown;

    std::printf("--- Query %d: %u -> %u (%.1f km apart) ---\n", shown, s, t,
                HaversineMeters(net->coord(s), net->coord(t)) / 1000.0);

    // (a) + (b): the two shortest-path trees.
    auto fwd = probe.BuildTree(s, weights, SearchDirection::kForward);
    auto bwd = probe.BuildTree(t, weights, SearchDirection::kBackward);
    ALT_CHECK(fwd.ok() && bwd.ok());
    size_t fwd_reached = 0, bwd_reached = 0;
    for (NodeId v = 0; v < net->num_nodes(); ++v) {
      fwd_reached += fwd->Reached(v);
      bwd_reached += bwd->Reached(v);
    }
    std::printf("(a) forward tree from s:  %zu nodes\n", fwd_reached);
    std::printf("(b) backward tree from t: %zu nodes\n", bwd_reached);

    // (c): the most prominent plateaus.
    auto plateaus = generator.ComputePlateaus(s, t);
    ALT_CHECK(plateaus.ok());
    std::printf("(c) %zu plateaus; top 5 by length:\n", plateaus->size());
    const double opt = fwd->dist[t];
    for (size_t i = 0; i < plateaus->size() && i < 5; ++i) {
      const Plateau& pl = (*plateaus)[i];
      std::printf("      plateau %zu: length %5.1f min (%zu edges), "
                  "route cost %5.1f min (stretch %.2f)\n",
                  i + 1, pl.length / 60.0, pl.edges.size(),
                  pl.route_cost / 60.0, pl.route_cost / opt);
    }

    // (d): alternative paths from the top plateaus.
    auto set = generator.Generate(s, t);
    ALT_CHECK(set.ok());
    std::printf("(d) %zu alternative paths generated:\n", set->routes.size());
    for (size_t i = 0; i < set->routes.size(); ++i) {
      const Path& p = set->routes[i];
      std::printf("      path %zu: %5.1f min, %5.1f km%s\n", i + 1,
                  p.travel_time_s / 60.0, p.length_m / 1000.0,
                  i == 0 ? "  (fastest)" : "");
    }
    std::printf("\n");
  }
  std::printf("Property checks (paper Sec. 2.2): plateaus are node-disjoint "
              "and the two shortest-path trees dominate the cost.\n");
  return 0;
}
