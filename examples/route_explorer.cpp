// route_explorer: inspect alternative routes on any of the three study
// cities — per-route quality metrics, pairwise similarity matrix, and the
// plateau structure behind the Plateaus approach (paper Fig. 1).
//
//   ./examples/route_explorer [melbourne|dhaka|copenhagen] [num_queries] [seed]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "citygen/city_generator.h"
#include "core/engine_registry.h"
#include "core/plateau.h"
#include "core/quality.h"
#include "core/similarity.h"
#include "graph/statistics.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace altroute;

namespace {

citygen::CitySpec SpecFor(const std::string& name) {
  if (name == "dhaka") return citygen::DhakaSpec();
  if (name == "copenhagen") return citygen::CopenhagenSpec();
  return citygen::MelbourneSpec();
}

void ExploreQuery(const std::shared_ptr<RoadNetwork>& net, EngineSuite* suite,
                  NodeId s, NodeId t) {
  std::printf("=== Query %u -> %u (%.1f km apart) ===\n", s, t,
              HaversineMeters(net->coord(s), net->coord(t)) / 1000.0);

  for (Approach a : kAllApproaches) {
    auto set_or = suite->engine(a).Generate(s, t);
    if (!set_or.ok()) {
      std::printf("%-14s: %s\n", std::string(ApproachName(a)).c_str(),
                  set_or.status().ToString().c_str());
      continue;
    }
    const AlternativeSet& set = *set_or;
    std::printf("%-14s (%zu routes):\n", std::string(ApproachName(a)).c_str(),
                set.routes.size());
    for (size_t i = 0; i < set.routes.size(); ++i) {
      const Path& p = set.routes[i];
      const RouteQuality q = ComputeRouteQuality(
          *net, p, set.routes[0].travel_time_s, net->travel_times());
      std::printf("  #%zu %5.1f min, %5.1f km, stretch %.2f, turns/km %.1f\n",
                  i + 1, p.travel_time_s / 60.0, p.length_m / 1000.0, q.stretch,
                  q.turns_per_km);
    }
    // Pairwise similarity within the set.
    if (set.routes.size() > 1) {
      std::printf("  similarity:");
      for (size_t i = 0; i < set.routes.size(); ++i) {
        for (size_t j = i + 1; j < set.routes.size(); ++j) {
          std::printf(" (%zu,%zu)=%.2f", i + 1, j + 1,
                      Similarity(*net, set.routes[i], set.routes[j],
                                 SimilarityMeasure::kOverlapOverShorter));
        }
      }
      std::printf("\n");
    }
  }

  // Plateau walkthrough (Fig. 1): the structure behind approach B.
  PlateauGenerator plateau_probe(std::make_shared<TreePair>(suite->ch()));
  auto plateaus_or = plateau_probe.ComputePlateaus(s, t);
  if (plateaus_or.ok()) {
    const auto& plateaus = *plateaus_or;
    std::printf("plateaus: %zu total; top 5 by length:\n", plateaus.size());
    for (size_t i = 0; i < plateaus.size() && i < 5; ++i) {
      std::printf("  plateau %zu: %.1f min long, route cost %.1f min\n", i + 1,
                  plateaus[i].length / 60.0, plateaus[i].route_cost / 60.0);
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string city = argc > 1 ? ToLower(argv[1]) : "melbourne";
  const int num_queries = argc > 2 ? std::atoi(argv[2]) : 2;
  const uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 11;

  citygen::CitySpec spec = citygen::Scaled(SpecFor(city), 0.5);
  auto net_or = citygen::BuildCityNetwork(spec);
  if (!net_or.ok()) {
    std::fprintf(stderr, "%s\n", net_or.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<RoadNetwork> net = std::move(net_or).ValueOrDie();
  std::printf("City: %s\n%s\n", net->name().c_str(),
              FormatNetworkStatistics(ComputeNetworkStatistics(*net)).c_str());

  auto suite_or = EngineSuite::MakePaperSuite(net);
  if (!suite_or.ok()) {
    std::fprintf(stderr, "%s\n", suite_or.status().ToString().c_str());
    return 1;
  }
  EngineSuite suite = std::move(suite_or).ValueOrDie();

  Rng rng(seed);
  for (int q = 0; q < num_queries; ++q) {
    NodeId s = 0, t = 0;
    while (s == t ||
           HaversineMeters(net->coord(s), net->coord(t)) < 3000.0) {
      s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
      t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    }
    ExploreQuery(net, &suite, s, t);
  }
  return 0;
}
