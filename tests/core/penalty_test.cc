#include "core/penalty.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "core/similarity.h"
#include "util/check.h"

namespace altroute {
namespace {

TEST(PenaltyTest, FirstRouteIsTheShortestPath) {
  auto net = testutil::GridNetwork(6, 6);
  PenaltyGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(0, 35);
  ASSERT_TRUE(set.ok());
  ASSERT_FALSE(set->routes.empty());
  Dijkstra dijkstra(*net);
  auto sp = dijkstra.ShortestPath(0, 35, net->travel_times());
  ASSERT_TRUE(sp.ok());
  EXPECT_DOUBLE_EQ(set->routes[0].cost, sp->cost);
  EXPECT_DOUBLE_EQ(set->optimal_cost, sp->cost);
}

TEST(PenaltyTest, ProducesUpToKDistinctRoutes) {
  auto net = testutil::GridNetwork(6, 6);
  AlternativeOptions options;
  options.max_routes = 3;
  PenaltyGenerator gen(testutil::Trees(net), options);
  auto set = gen.Generate(0, 35);
  ASSERT_TRUE(set.ok());
  EXPECT_LE(set->routes.size(), 3u);
  EXPECT_GE(set->routes.size(), 2u);  // a grid has alternatives
  for (size_t i = 0; i < set->routes.size(); ++i) {
    for (size_t j = i + 1; j < set->routes.size(); ++j) {
      EXPECT_FALSE(SameEdges(set->routes[i], set->routes[j]));
    }
  }
}

TEST(PenaltyTest, RespectsStretchBound) {
  auto net = testutil::GridNetwork(7, 7);
  AlternativeOptions options;
  options.stretch_bound = 1.4;
  PenaltyGenerator gen(testutil::Trees(net), options);
  auto set = gen.Generate(3, 45);
  ASSERT_TRUE(set.ok());
  for (const Path& p : set->routes) {
    EXPECT_LE(p.cost, options.stretch_bound * set->optimal_cost + 1e-6);
  }
}

TEST(PenaltyTest, RoutesAreRealPaths) {
  auto net = testutil::GridNetwork(5, 8);
  PenaltyGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(0, 39);
  ASSERT_TRUE(set.ok());
  for (const Path& p : set->routes) {
    NodeId cur = p.source;
    for (EdgeId e : p.edges) {
      EXPECT_EQ(net->tail(e), cur);
      cur = net->head(e);
    }
    EXPECT_EQ(cur, p.target);
    EXPECT_EQ(p.source, 0u);
    EXPECT_EQ(p.target, 39u);
  }
}

TEST(PenaltyTest, LineGraphYieldsOnlyTheSinglePath) {
  auto net = testutil::LineNetwork(6);
  PenaltyGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(0, 5);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->routes.size(), 1u);
}

TEST(PenaltyTest, UnreachableIsNotFound) {
  GraphBuilder builder;
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddEdge(1, 0, 10, 5);
  auto net = std::move(builder.Build()).ValueOrDie();
  PenaltyGenerator gen(testutil::Trees(net));
  EXPECT_TRUE(gen.Generate(0, 1).status().IsNotFound());
}

TEST(PenaltyTest, DoesNotMutateCallerWeights) {
  auto net = testutil::GridNetwork(4, 4);
  const auto weights = testutil::Weights(*net);
  PenaltyGenerator gen(testutil::Trees(net, weights));
  ASSERT_TRUE(gen.Generate(0, 15).ok());
  // The generator's stored weights must still match the originals.
  EXPECT_EQ(gen.weights(), weights);
  for (EdgeId e = 0; e < net->num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(net->travel_time_s(e), weights[e]);
  }
}

TEST(PenaltyTest, HigherPenaltyFactorDiversifiesFaster) {
  auto net = testutil::GridNetwork(8, 8);
  AlternativeOptions mild;
  mild.penalty_factor = 1.05;
  mild.max_routes = 3;
  mild.max_iterations = 4;
  AlternativeOptions strong = mild;
  strong.penalty_factor = 2.0;
  PenaltyGenerator gen_mild(testutil::Trees(net), mild);
  PenaltyGenerator gen_strong(testutil::Trees(net), strong);
  auto set_mild = gen_mild.Generate(0, 63);
  auto set_strong = gen_strong.Generate(0, 63);
  ASSERT_TRUE(set_mild.ok());
  ASSERT_TRUE(set_strong.ok());
  // Within the same iteration budget, a stronger penalty finds at least as
  // many distinct routes.
  EXPECT_GE(set_strong->routes.size(), set_mild->routes.size());
}

TEST(PenaltyTest, RepeatedQueriesAreDeterministic) {
  auto net = testutil::GridNetwork(6, 6);
  PenaltyGenerator gen(testutil::Trees(net));
  auto a = gen.Generate(1, 34);
  auto b = gen.Generate(1, 34);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->routes.size(), b->routes.size());
  for (size_t i = 0; i < a->routes.size(); ++i) {
    EXPECT_TRUE(SameEdges(a->routes[i], b->routes[i]));
  }
}

TEST(PenaltyTest, PenalizesAllParallelEdgesOfAStreet) {
  // Regression: the generator used to penalize the reverse direction via
  // FindEdge, which returns only the FIRST matching edge — on a multigraph
  // the parallel twin kept its base weight and came back as a sham
  // "alternative" that is geometrically the same street. Build a multigraph
  // with a near-duplicate direct edge (100 vs 100.5) and a genuine detour
  // via node 2 (60 + 60 = 120), all within the 1.4 stretch bound.
  GraphBuilder builder("multigraph");
  builder.set_keep_parallel_edges(true);
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddNode(LatLng(0.005, 0.005));
  builder.AddEdge(0, 1, 1000, 100.0);
  builder.AddEdge(0, 1, 1000, 100.5);  // parallel twin
  builder.AddEdge(1, 0, 1000, 100.0);
  builder.AddEdge(1, 0, 1000, 100.5);  // parallel twin, reverse
  builder.AddBidirectionalEdge(0, 2, 600, 60.0);
  builder.AddBidirectionalEdge(2, 1, 600, 60.0);
  auto net = std::move(builder.Build()).ValueOrDie();

  AlternativeOptions options;
  options.max_routes = 2;
  options.stretch_bound = 1.4;
  PenaltyGenerator gen(testutil::Trees(net), options);
  auto set = gen.Generate(0, 1);
  ASSERT_TRUE(set.ok());
  EXPECT_DOUBLE_EQ(set->optimal_cost, 100.0);
  ASSERT_EQ(set->routes.size(), 2u);
  // The alternative must be the real detour through node 2, not the
  // unpenalized parallel twin of the optimal street.
  EXPECT_NEAR(set->routes[1].cost, 120.0, 1e-9);
  bool via_detour = false;
  for (EdgeId e : set->routes[1].edges) {
    if (net->head(e) == 2u) via_detour = true;
  }
  EXPECT_TRUE(via_detour) << "alternative does not use the detour node";
}

/// |got - want| within 1e-9 relative: the potential is PHAST's labels,
/// summed along shortcuts, so an optimum may differ from Dijkstra's in the
/// last bits.
void ExpectOptimum(double got, double want) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, want));
}

TEST(PenaltyChTest, GoalDirectedSearchMatchesDijkstraOptimum) {
  auto net = testutil::GridNetwork(7, 7);
  PenaltyGenerator gen(testutil::Trees(net));
  EXPECT_EQ(gen.name(), "penalty_ch");
  auto set = gen.Generate(3, 45);
  auto optimum = Dijkstra(*net).ShortestPath(3, 45, net->travel_times());
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(optimum.ok());
  ASSERT_FALSE(set->routes.empty());
  // A* may break shortest-path ties differently from Dijkstra, which can
  // steer the penalization sequence elsewhere — so the comparison is
  // cost-level: the optimum, and every route within the bound.
  ExpectOptimum(set->optimal_cost, optimum->cost);
  ExpectOptimum(set->routes[0].cost, optimum->cost);
  for (const Path& p : set->routes) {
    EXPECT_TRUE(IsLoopless(*net, p));
    EXPECT_LE(p.cost, 1.4 * set->optimal_cost + 1e-6);
  }
}

class PenaltyChPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PenaltyChPropertyTest, ChBackedInvariantsOnRandomNetworks) {
  auto net = testutil::RandomConnectedNetwork(GetParam(), 150, 220);
  PenaltyGenerator gen(testutil::Trees(net));
  Dijkstra oracle(*net);
  Rng rng(GetParam() + 800);
  for (int q = 0; q < 6; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    auto optimum = oracle.ShortestPath(s, t, net->travel_times());
    auto got = gen.Generate(s, t);
    ASSERT_TRUE(optimum.ok());
    ASSERT_TRUE(got.ok());
    ASSERT_FALSE(got->routes.empty());
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

INSTANTIATE_TEST_SUITE_P(Seeds, PenaltyChPropertyTest,
                         ::testing::Values(85, 86, 87));

TEST(PenaltyChTest, ChBackedUnreachableIsNotFound) {
  auto net = testutil::TwoIslandNetwork(905, 30, 20);
  PenaltyGenerator gen(testutil::Trees(net));
  EXPECT_TRUE(gen.Generate(0, 31).status().IsNotFound());
}

class PenaltyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PenaltyPropertyTest, InvariantsOnRandomNetworks) {
  auto net = testutil::RandomConnectedNetwork(GetParam(), 150, 220);
  PenaltyGenerator gen(testutil::Trees(net));
  Rng rng(GetParam() + 500);
  for (int q = 0; q < 10; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    auto set = gen.Generate(s, t);
    ASSERT_TRUE(set.ok());
    ASSERT_FALSE(set->routes.empty());
    for (size_t i = 0; i < set->routes.size(); ++i) {
      const Path& p = set->routes[i];
      EXPECT_LE(p.cost, 1.4 * set->optimal_cost + 1e-6);
      EXPECT_GE(p.cost, set->optimal_cost - 1e-6);
      for (size_t j = i + 1; j < set->routes.size(); ++j) {
        EXPECT_FALSE(SameEdges(p, set->routes[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PenaltyPropertyTest,
                         ::testing::Values(81, 82, 83, 84));

}  // namespace
}  // namespace altroute
