#include "core/dissimilarity.h"

#include <gtest/gtest.h>

#include "../testutil.h"

namespace altroute {
namespace {

TEST(DissimilarityTest, FirstRouteIsTheShortestPath) {
  auto net = testutil::GridNetwork(6, 6);
  DissimilarityGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(0, 35);
  ASSERT_TRUE(set.ok());
  ASSERT_FALSE(set->routes.empty());
  Dijkstra dijkstra(*net);
  auto sp = dijkstra.ShortestPath(0, 35, net->travel_times());
  ASSERT_TRUE(sp.ok());
  EXPECT_DOUBLE_EQ(set->routes[0].cost, sp->cost);
}

TEST(DissimilarityTest, GuaranteesPairwiseDissimilarityAboveTheta) {
  // The defining property of the approach (paper Sec. 2.3).
  auto net = testutil::GridNetwork(8, 8);
  AlternativeOptions options;
  options.dissimilarity_threshold = 0.5;
  options.max_routes = 3;
  DissimilarityGenerator gen(testutil::Trees(net), options);
  auto set = gen.Generate(0, 63);
  ASSERT_TRUE(set.ok());
  for (size_t i = 1; i < set->routes.size(); ++i) {
    std::vector<Path> previous(set->routes.begin(),
                               set->routes.begin() + static_cast<long>(i));
    EXPECT_GT(DissimilarityToSet(*net, set->routes[i], previous), 0.5);
  }
}

TEST(DissimilarityTest, HigherThetaYieldsFewerOrEquallyManyRoutes) {
  auto net = testutil::GridNetwork(8, 8);
  AlternativeOptions loose;
  loose.dissimilarity_threshold = 0.1;
  AlternativeOptions strict;
  strict.dissimilarity_threshold = 0.9;
  DissimilarityGenerator gen_loose(testutil::Trees(net), loose);
  DissimilarityGenerator gen_strict(testutil::Trees(net), strict);
  auto set_loose = gen_loose.Generate(0, 63);
  auto set_strict = gen_strict.Generate(0, 63);
  ASSERT_TRUE(set_loose.ok());
  ASSERT_TRUE(set_strict.ok());
  EXPECT_GE(set_loose->routes.size(), set_strict->routes.size());
}

TEST(DissimilarityTest, ViaPathsAreOrderedByLength) {
  // Routes after the first must be nondecreasing in cost (candidates are
  // visited in ascending via-path length).
  auto net = testutil::GridNetwork(7, 7);
  AlternativeOptions options;
  options.max_routes = 5;
  options.dissimilarity_threshold = 0.3;
  DissimilarityGenerator gen(testutil::Trees(net), options);
  auto set = gen.Generate(0, 48);
  ASSERT_TRUE(set.ok());
  for (size_t i = 2; i < set->routes.size(); ++i) {
    EXPECT_GE(set->routes[i].cost, set->routes[i - 1].cost - 1e-9);
  }
}

TEST(DissimilarityTest, RespectsStretchBoundAndLooplessness) {
  auto net = testutil::GridNetwork(8, 8);
  DissimilarityGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(1, 62);
  ASSERT_TRUE(set.ok());
  for (const Path& p : set->routes) {
    EXPECT_LE(p.cost, 1.4 * set->optimal_cost + 1e-6);
    EXPECT_TRUE(IsLoopless(*net, p));
  }
}

TEST(DissimilarityTest, LineGraphYieldsOnlyOneRoute) {
  auto net = testutil::LineNetwork(8);
  DissimilarityGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(0, 7);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->routes.size(), 1u);
}

TEST(DissimilarityTest, UnreachableIsNotFound) {
  GraphBuilder builder;
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddEdge(1, 0, 10, 5);
  auto net = std::move(builder.Build()).ValueOrDie();
  DissimilarityGenerator gen(testutil::Trees(net));
  EXPECT_TRUE(gen.Generate(0, 1).status().IsNotFound());
}

TEST(DissimilarityTest, PlateauMatesShareOneExaminedViaPath) {
  // On a line every node lies on the one s-t path, and every edge is on
  // both trees, so all via nodes are plateau-mates with the same via path.
  // The scan examines it once (and rejects it as the shortest path again);
  // the other mates are skipped and not counted.
  auto net = testutil::LineNetwork(8);
  DissimilarityGenerator gen(testutil::Trees(net));
  obs::SearchStats stats;
  auto set = gen.Generate(0, 7, &stats);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->routes.size(), 1u);
  EXPECT_EQ(stats.paths_generated, 2u);
  EXPECT_EQ(stats.paths_rejected_similarity, 1u);
}

TEST(DissimilarityTest, EveryCountedCandidateIsShippedOrRejected) {
  // Counter contract: paths_generated counts the shortest path and each via
  // path the scan examines; each is either shipped or rejected exactly once.
  // Skipped plateau-mates are counted in neither.
  std::vector<std::shared_ptr<RoadNetwork>> nets = {
      testutil::GridNetwork(8, 8), testutil::RandomConnectedNetwork(11, 160, 220),
      testutil::RandomConnectedNetwork(12, 200, 320)};
  for (const auto& net : nets) {
    for (double theta : {0.1, 0.5, 0.9}) {
      for (int max_routes : {3, 9}) {
        AlternativeOptions options;
        options.dissimilarity_threshold = theta;
        options.max_routes = max_routes;
        DissimilarityGenerator gen(testutil::Trees(net), options);
        Rng rng(31);
        for (int q = 0; q < 10; ++q) {
          const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
          const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
          obs::SearchStats stats;
          auto set = gen.Generate(s, t, &stats);
          ASSERT_TRUE(set.ok());
          EXPECT_EQ(stats.paths_generated - stats.paths_rejected_total(),
                    set->routes.size())
              << "theta " << theta << " k " << max_routes << " " << s << "->"
              << t;
        }
      }
    }
  }
}

class DissimilarityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DissimilarityPropertyTest, ThetaInvariantOnRandomNetworks) {
  auto net = testutil::RandomConnectedNetwork(GetParam(), 160, 220);
  AlternativeOptions options;
  options.dissimilarity_threshold = 0.5;
  DissimilarityGenerator gen(testutil::Trees(net), options);
  Rng rng(GetParam() + 700);
  for (int q = 0; q < 8; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    auto set = gen.Generate(s, t);
    ASSERT_TRUE(set.ok());
    for (size_t i = 1; i < set->routes.size(); ++i) {
      std::vector<Path> previous(set->routes.begin(),
                                 set->routes.begin() + static_cast<long>(i));
      EXPECT_GT(DissimilarityToSet(*net, set->routes[i], previous),
                options.dissimilarity_threshold);
      EXPECT_TRUE(IsLoopless(*net, set->routes[i]));
      EXPECT_LE(set->routes[i].cost, 1.4 * set->optimal_cost + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DissimilarityPropertyTest,
                         ::testing::Values(101, 102, 103, 104));

}  // namespace
}  // namespace altroute
