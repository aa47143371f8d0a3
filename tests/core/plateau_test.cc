#include "core/plateau.h"

#include <algorithm>
#include <unordered_set>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "core/similarity.h"
#include "util/check.h"

namespace altroute {
namespace {

TEST(PlateauTest, FirstRouteIsTheShortestPath) {
  auto net = testutil::GridNetwork(6, 6);
  PlateauGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(0, 35);
  ASSERT_TRUE(set.ok());
  ASSERT_FALSE(set->routes.empty());
  Dijkstra dijkstra(*net);
  auto sp = dijkstra.ShortestPath(0, 35, net->travel_times());
  ASSERT_TRUE(sp.ok());
  EXPECT_DOUBLE_EQ(set->routes[0].cost, sp->cost);
}

TEST(PlateauTest, TheShortestPathIsItselfAPlateau) {
  // Every edge of the optimal route lies on both trees, so the longest
  // plateau through the corridor contains the whole optimal path.
  auto net = testutil::GridNetwork(5, 5);
  PlateauGenerator gen(testutil::Trees(net));
  auto plateaus = gen.ComputePlateaus(0, 24);
  ASSERT_TRUE(plateaus.ok());
  ASSERT_FALSE(plateaus->empty());
  Dijkstra dijkstra(*net);
  auto sp = dijkstra.ShortestPath(0, 24, net->travel_times());
  ASSERT_TRUE(sp.ok());
  // One plateau's route cost must equal the optimal cost.
  bool found_optimal = false;
  for (const Plateau& pl : *plateaus) {
    if (std::abs(pl.route_cost - sp->cost) < 1e-9) found_optimal = true;
  }
  EXPECT_TRUE(found_optimal);
}

TEST(PlateauTest, PlateausAreNodeDisjoint) {
  // The paper (Sec. 2.2): "the plateaus do not intersect each other".
  auto net = testutil::RandomConnectedNetwork(7, 200, 260);
  PlateauGenerator gen(testutil::Trees(net));
  auto plateaus = gen.ComputePlateaus(0, 100);
  ASSERT_TRUE(plateaus.ok());
  std::unordered_set<NodeId> used;
  for (const Plateau& pl : *plateaus) {
    NodeId cur = pl.start;
    EXPECT_TRUE(used.insert(cur).second) << "plateau start reused";
    for (EdgeId e : pl.edges) {
      cur = net->head(e);
      EXPECT_TRUE(used.insert(cur).second) << "plateau node reused";
    }
    EXPECT_EQ(cur, pl.end);
  }
}

TEST(PlateauTest, PlateausAreSortedByLengthDescending) {
  auto net = testutil::RandomConnectedNetwork(8, 150, 200);
  PlateauGenerator gen(testutil::Trees(net));
  auto plateaus = gen.ComputePlateaus(3, 120);
  ASSERT_TRUE(plateaus.ok());
  for (size_t i = 1; i < plateaus->size(); ++i) {
    EXPECT_GE((*plateaus)[i - 1].length, (*plateaus)[i].length - 1e-9);
  }
}

TEST(PlateauTest, PlateauChainsAreContiguous) {
  auto net = testutil::GridNetwork(7, 7);
  PlateauGenerator gen(testutil::Trees(net));
  auto plateaus = gen.ComputePlateaus(0, 48);
  ASSERT_TRUE(plateaus.ok());
  for (const Plateau& pl : *plateaus) {
    NodeId cur = pl.start;
    double len = 0.0;
    for (EdgeId e : pl.edges) {
      EXPECT_EQ(net->tail(e), cur);
      cur = net->head(e);
      len += net->travel_time_s(e);
    }
    EXPECT_EQ(cur, pl.end);
    EXPECT_NEAR(len, pl.length, 1e-9);
  }
}

TEST(PlateauTest, RoutesRespectStretchBoundAndAreLoopless) {
  auto net = testutil::GridNetwork(8, 8);
  AlternativeOptions options;
  options.stretch_bound = 1.4;
  options.max_routes = 3;
  PlateauGenerator gen(testutil::Trees(net), options);
  auto set = gen.Generate(0, 63);
  ASSERT_TRUE(set.ok());
  for (const Path& p : set->routes) {
    EXPECT_LE(p.cost, 1.4 * set->optimal_cost + 1e-6);
    EXPECT_TRUE(IsLoopless(*net, p));
  }
}

TEST(PlateauTest, UnreachableIsNotFound) {
  GraphBuilder builder;
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddEdge(1, 0, 10, 5);
  auto net = std::move(builder.Build()).ValueOrDie();
  PlateauGenerator gen(testutil::Trees(net));
  EXPECT_TRUE(gen.Generate(0, 1).status().IsNotFound());
}

/// |got - want| within 1e-9 relative: PHAST sums its labels along
/// shortcuts, so an optimum may differ from Dijkstra's in the last bits.
void ExpectOptimum(double got, double want) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, want));
}

TEST(PlateauChTest, PhastTreesMatchDijkstraOptimum) {
  auto net = testutil::GridNetwork(8, 8);
  PlateauGenerator gen(testutil::Trees(net));
  EXPECT_EQ(gen.name(), "plateau_ch");
  auto set = gen.Generate(0, 63);
  auto optimum = Dijkstra(*net).ShortestPath(0, 63, net->travel_times());
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(optimum.ok());
  ASSERT_FALSE(set->routes.empty());
  ExpectOptimum(set->optimal_cost, optimum->cost);
  ExpectOptimum(set->routes[0].cost, optimum->cost);
}

class PlateauChPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlateauChPropertyTest, ChBackedInvariantsOnRandomNetworks) {
  auto net = testutil::RandomConnectedNetwork(GetParam(), 180, 240);
  PlateauGenerator gen(testutil::Trees(net));
  Dijkstra oracle(*net);
  Rng rng(GetParam() + 700);
  for (int q = 0; q < 6; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    auto optimum = oracle.ShortestPath(s, t, net->travel_times());
    auto got = gen.Generate(s, t);
    ASSERT_TRUE(optimum.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_FALSE(got->routes.empty());
    // PHAST-built trees must reproduce the Dijkstra optimum; tie-breaking
    // inside the trees may differ, so route sets are held to the generator
    // invariants rather than to Dijkstra's edges.
    ExpectOptimum(got->optimal_cost, optimum->cost);
    ExpectOptimum(got->routes[0].cost, optimum->cost);
    for (size_t i = 0; i < got->routes.size(); ++i) {
      const Path& p = got->routes[i];
      EXPECT_TRUE(IsLoopless(*net, p));
      EXPECT_LE(p.cost, 1.4 * got->optimal_cost + 1e-6);
      for (size_t j = i + 1; j < got->routes.size(); ++j) {
        EXPECT_FALSE(SameEdges(p, got->routes[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlateauChPropertyTest,
                         ::testing::Values(95, 96, 97));

TEST(PlateauChTest, ChBackedUnreachableIsNotFound) {
  auto net = testutil::TwoIslandNetwork(904, 30, 20);
  PlateauGenerator gen(testutil::Trees(net));
  EXPECT_TRUE(gen.Generate(0, 31).status().IsNotFound());
}

class PlateauPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlateauPropertyTest, InvariantsOnRandomNetworks) {
  auto net = testutil::RandomConnectedNetwork(GetParam(), 180, 240);
  PlateauGenerator gen(testutil::Trees(net));
  Rng rng(GetParam() + 600);
  for (int q = 0; q < 8; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    auto set = gen.Generate(s, t);
    ASSERT_TRUE(set.ok());
    ASSERT_FALSE(set->routes.empty());
    for (size_t i = 0; i < set->routes.size(); ++i) {
      const Path& p = set->routes[i];
      EXPECT_EQ(p.source, s);
      EXPECT_EQ(p.target, t);
      EXPECT_TRUE(IsLoopless(*net, p));
      EXPECT_LE(p.cost, 1.4 * set->optimal_cost + 1e-6);
      for (size_t j = i + 1; j < set->routes.size(); ++j) {
        EXPECT_FALSE(SameEdges(p, set->routes[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlateauPropertyTest,
                         ::testing::Values(91, 92, 93, 94));

}  // namespace
}  // namespace altroute
