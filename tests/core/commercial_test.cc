#include "core/commercial.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "citygen/city_generator.h"
#include "traffic/traffic_model.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {
namespace {

std::shared_ptr<RoadNetwork> City() {
  static std::shared_ptr<RoadNetwork> net = [] {
    auto n = citygen::BuildCityNetwork(
        citygen::Scaled(citygen::MelbourneSpec(), 0.3));
    ALT_CHECK(n.ok());
    return std::move(n).ValueOrDie();
  }();
  return net;
}

TEST(CommercialTest, ReturnsRoutesOnGrid) {
  auto net = testutil::GridNetwork(7, 7);
  CommercialBaseline gen(
      testutil::Trees(net, CommercialTrafficModel(3).Weights(*net)));
  auto set = gen.Generate(0, 48);
  ASSERT_TRUE(set.ok());
  EXPECT_GE(set->routes.size(), 1u);
  EXPECT_LE(set->routes.size(), 3u);
}

TEST(CommercialTest, FirstRouteIsOptimalOnItsOwnData) {
  auto net = City();
  const auto commercial = CommercialTrafficModel(3).Weights(*net);
  CommercialBaseline gen(testutil::Trees(net, commercial));
  Dijkstra dijkstra(*net);
  Rng rng(42);
  for (int q = 0; q < 5; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    auto set = gen.Generate(s, t);
    ASSERT_TRUE(set.ok());
    auto sp = dijkstra.ShortestPath(s, t, commercial);
    ASSERT_TRUE(sp.ok());
    EXPECT_NEAR(set->routes[0].cost, sp->cost, 1e-6);
    EXPECT_NEAR(set->optimal_cost, sp->cost, 1e-6);
  }
}

TEST(CommercialTest, RespectsItsOwnStretchBound) {
  auto net = City();
  AlternativeOptions options;
  options.stretch_bound = 1.4;
  CommercialBaseline gen(
      testutil::Trees(net, CommercialTrafficModel(3).Weights(*net)), options);
  auto set = gen.Generate(10, static_cast<NodeId>(net->num_nodes() - 10));
  ASSERT_TRUE(set.ok());
  for (const Path& p : set->routes) {
    EXPECT_LE(p.cost, options.stretch_bound * set->optimal_cost + 1e-6);
  }
}

TEST(CommercialTest, RoutesAreNotNearDuplicates) {
  auto net = City();
  CommercialBaseline gen(
      testutil::Trees(net, CommercialTrafficModel(3).Weights(*net)));
  auto set = gen.Generate(5, static_cast<NodeId>(net->num_nodes() - 5));
  ASSERT_TRUE(set.ok());
  for (size_t i = 0; i < set->routes.size(); ++i) {
    for (size_t j = i + 1; j < set->routes.size(); ++j) {
      EXPECT_LE(Similarity(*net, set->routes[i], set->routes[j],
                           SimilarityMeasure::kOverlapOverShorter),
                0.8 + 1e-9);
    }
  }
}

TEST(CommercialTest, SometimesDisagreesWithFreeFlowRouting) {
  // The engine exists to model the data-mismatch effect: across a set of
  // queries, at least one headline route must differ from the free-flow
  // optimal route.
  auto net = City();
  const auto freeflow = testutil::Weights(*net);
  CommercialBaseline gen(
      testutil::Trees(net, CommercialTrafficModel(3).Weights(*net)));
  Dijkstra dijkstra(*net);
  Rng rng(7);
  int disagreements = 0;
  for (int q = 0; q < 20; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    auto set = gen.Generate(s, t);
    auto sp = dijkstra.ShortestPath(s, t, freeflow);
    if (!set.ok() || !sp.ok()) continue;
    if (set->routes[0].edges != sp->edges) ++disagreements;
  }
  EXPECT_GT(disagreements, 0);
}

TEST(CommercialTest, UnreachableIsNotFound) {
  GraphBuilder builder;
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddEdge(1, 0, 10, 5);
  auto net = std::move(builder.Build()).ValueOrDie();
  CommercialBaseline gen(
      testutil::Trees(net, CommercialTrafficModel(3).Weights(*net)));
  EXPECT_TRUE(gen.Generate(0, 1).status().IsNotFound());
}

}  // namespace
}  // namespace altroute
