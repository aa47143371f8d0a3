// Time-of-day extension: the paper queries Google at 3:00 am to minimise
// traffic effects (Sec. 4.2). This bench quantifies what would have
// happened at other hours: how much the commercial engine's routes drift
// from its own 3 am routes, and how much slower they look on the OSM
// display — i.e. how much worse the data-mismatch confound would have been
// at rush hour.
#include "bench_util.h"
#include "core/commercial.h"
#include "core/similarity.h"
#include "traffic/traffic_model.h"
#include "util/random.h"
#include "util/check.h"

using namespace altroute;
using namespace altroute::bench;

int main() {
  std::printf("=== Time-of-day sensitivity of the commercial engine ===\n\n");
  auto net = City("melbourne", 0.6);
  const std::vector<double> osm(net->travel_times().begin(),
                                net->travel_times().end());

  Rng rng(20221010);
  std::vector<std::pair<NodeId, NodeId>> queries;
  while (queries.size() < 30) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s != t && HaversineMeters(net->coord(s), net->coord(t)) > 5000.0) {
      queries.emplace_back(s, t);
    }
  }

  // Reference: the paper's 3 am configuration.
  CommercialBaseline night(std::make_shared<TreePair>(
      Hierarchy(net, CommercialTrafficModel(3).Weights(*net))));
  std::vector<std::vector<Path>> night_routes;
  for (const auto& [s, t] : queries) {
    auto set = night.Generate(s, t);
    ALT_CHECK(set.ok());
    night_routes.push_back(std::move(set->routes));
  }

  std::printf("hour | headline=3am | sim-to-3am | displayed stretch (OSM)\n");
  std::printf("-----+--------------+------------+------------------------\n");
  for (int hour : {3, 6, 8, 12, 17, 20, 23}) {
    CommercialBaseline engine(std::make_shared<TreePair>(
        Hierarchy(net, CommercialTrafficModel(hour).Weights(*net))));
    int same_headline = 0;
    double sim_sum = 0.0, stretch_sum = 0.0;
    int n = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto set = engine.Generate(queries[i].first, queries[i].second);
      if (!set.ok()) continue;
      ++n;
      if (SameEdges(set->routes[0], night_routes[i][0])) ++same_headline;
      sim_sum += Similarity(*net, set->routes[0], night_routes[i][0],
                            SimilarityMeasure::kOverlapOverShorter);
      // Displayed stretch of the headline route vs the OSM optimum.
      double osm_opt = kInfCost;
      for (const Path& p : night_routes[i]) {
        osm_opt = std::min(osm_opt, CostUnder(p, osm));
      }
      for (const Path& p : set->routes) {
        osm_opt = std::min(osm_opt, CostUnder(p, osm));
      }
      stretch_sum += CostUnder(set->routes[0], osm) / osm_opt;
    }
    std::printf("%4d | %10d/%d | %10.3f | %10.3f\n", hour, same_headline, n,
                sim_sum / n, stretch_sum / n);
  }

  std::printf("\nReading: at 3 am the engine agrees with itself by "
              "definition; at rush hours (8, 17) congestion shifts its "
              "corridor choices, so fewer headlines match, similarity to the "
              "3 am route drops, and the routes look slower on the OSM "
              "display — the paper's choice of 3 am minimised exactly this "
              "confound.\n");
  return 0;
}
