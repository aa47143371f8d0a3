#include "core/dissimilarity.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "../testutil.h"
#include "util/check.h"

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

// Fixtures for the scan's fast verdicts, on hand-built networks and trees.
// The source is node 0 and the target node 1. A tree lists, for each node it
// reaches, the neighbour toward its root; a node's distance is the travel
// time along that chain. Every candidate is within the stretch bound, and
// each fixture pins the routes and the path counters the walk of every
// candidate gives (in Debug builds the scan re-walks each fast verdict).

struct Arc {
  NodeId tail;
  NodeId head;
  double length_m;
  double time_s;
};

std::shared_ptr<RoadNetwork> HandNetwork(int nodes, const std::vector<Arc>& arcs) {
  GraphBuilder builder("hand-built");
  for (int i = 0; i < nodes; ++i) builder.AddNode(LatLng(0.0, 0.001 * i));
  for (const Arc& a : arcs) builder.AddEdge(a.tail, a.head, a.length_m, a.time_s);
  auto net = builder.Build();
  ALT_CHECK(net.ok()) << net.status();
  return std::move(net).ValueOrDie();
}

EdgeId EdgeOf(const RoadNetwork& net, NodeId tail, NodeId head) {
  for (EdgeId e : net.OutEdges(tail)) {
    if (net.head(e) == head) return e;
  }
  ALT_UNREACHABLE();
}

/// A tree rooted at `root` with the chains `links` (node, its neighbour
/// toward the root). `orphans` are reached nodes left without a parent, at
/// the given distance: demotions.
ShortestPathTree HandTree(const RoadNetwork& net, NodeId root,
                          SearchDirection direction,
                          const std::vector<std::pair<NodeId, NodeId>>& links,
                          const std::vector<std::pair<NodeId, double>>& orphans = {}) {
  const bool forward = direction == SearchDirection::kForward;
  ShortestPathTree tree;
  tree.root = root;
  tree.direction = direction;
  tree.dist.assign(net.num_nodes(), kInfCost);
  tree.parent_edge.assign(net.num_nodes(), kInvalidEdge);
  tree.dist[root] = 0.0;
  for (const auto& [node, dist] : orphans) tree.dist[node] = dist;
  tree.demoted = orphans.size();
  for (const auto& [node, next] : links) {
    tree.parent_edge[node] =
        forward ? EdgeOf(net, next, node) : EdgeOf(net, node, next);
  }
  for (size_t pass = 0; pass < links.size(); ++pass) {
    for (const auto& [node, next] : links) {
      tree.dist[node] =
          tree.dist[next] + net.travel_time_s(tree.parent_edge[node]);
    }
  }
  return tree;
}

using Routes = std::vector<std::vector<NodeId>>;

struct Scanned {
  Routes routes;  // node sequences
  obs::SearchStats stats;
};

Scanned Scan(const RoadNetwork& net, const ShortestPathTree& fwd,
             const ShortestPathTree& bwd, double theta) {
  AlternativeOptions options;
  options.dissimilarity_threshold = theta;
  options.max_routes = 9;
  options.stretch_bound = 10.0;
  DissimilarityScan scan(net);
  Scanned out;
  auto set = scan.Run(fwd, bwd, net.travel_times(), options,
                      SimilarityMeasure::kOverlapOverCandidate, &out.stats);
  EXPECT_TRUE(set.ok()) << set.status();
  if (set.ok()) {
    for (const Path& p : set->routes) out.routes.push_back(PathNodes(net, p));
  }
  return out;
}

/// Candidates counted, rejected as loops, rejected as similar.
void ExpectCounts(const obs::SearchStats& stats, uint64_t generated,
                  uint64_t loops, uint64_t similar) {
  EXPECT_EQ(stats.paths_generated, generated);
  EXPECT_EQ(stats.paths_rejected_filter, loops);
  EXPECT_EQ(stats.paths_rejected_similarity, similar);
  EXPECT_EQ(stats.paths_rejected_stretch, 0u);
}

constexpr auto kFwd = SearchDirection::kForward;
constexpr auto kBwd = SearchDirection::kBackward;

TEST(DissimilarityScanVerdictTest, UTurnIsALoop) {
  // Route 0 is 0 2 1, and the spur 2 <-> 3 hangs off 2. Via 3 the
  // candidate is 0 2 3 2 1: 3's predecessor is also its next hop.
  auto net = HandNetwork(4, {{0, 2, 1000, 60}, {2, 1, 1000, 60},
                             {2, 3, 100, 10}, {3, 2, 100, 10}});
  const auto fwd = HandTree(*net, 0, kFwd, {{2, 0}, {1, 2}, {3, 2}});
  const auto bwd = HandTree(*net, 1, kBwd, {{0, 2}, {2, 1}, {3, 2}});
  const Scanned got = Scan(*net, fwd, bwd, 0.5);
  EXPECT_EQ(got.routes, (Routes{{0, 2, 1}}));
  // Route 0; via 0, route 0 again (similar; 2 and 1 are its mates); via 3.
  ExpectCounts(got.stats, 3, 1, 1);
}

TEST(DissimilarityScanVerdictTest, HalvesMeetingOnRouteZeroLoop) {
  // Route 0 is 0 2 3 1. Via 8 the candidate leaves it at 3 (i = 2) and
  // rejoins it at 3 (j = i, r[i] != v): 0 2 3 7 8 9 3 1. Via 5 it leaves at
  // 3 and rejoins at 2 (j < i): 0 2 3 4 5 6 2 3 1. Neither is a U-turn.
  auto net = HandNetwork(10, {{0, 2, 1000, 60}, {2, 3, 1000, 60},
                              {3, 1, 1000, 60}, {3, 4, 50, 5}, {4, 5, 50, 5},
                              {5, 6, 50, 5}, {6, 2, 50, 5}, {3, 7, 50, 5},
                              {7, 8, 50, 5}, {8, 9, 50, 5}, {9, 3, 50, 5}});
  const auto fwd = HandTree(*net, 0, kFwd,
                            {{2, 0}, {3, 2}, {1, 3}, {4, 3}, {5, 4}, {7, 3}, {8, 7}});
  const auto bwd = HandTree(*net, 1, kBwd,
                            {{3, 1}, {2, 3}, {0, 2}, {6, 2}, {5, 6}, {9, 3}, {8, 9}});
  const Scanned got = Scan(*net, fwd, bwd, 0.5);
  EXPECT_EQ(got.routes, (Routes{{0, 2, 3, 1}}));
  // Route 0; via 0 (similar); via 8 and via 5 (loops).
  ExpectCounts(got.stats, 4, 2, 1);
}

TEST(DissimilarityScanVerdictTest, BoundDecidesALooplessCandidate) {
  // Route 0 is 0 2 3 4 1, 1000 m a hop. Via 5 the candidate 0 2 5 3 4 1
  // shares 3000 of its 3200 m with it: similar unless theta < 0.0625.
  auto net = HandNetwork(6, {{0, 2, 1000, 60}, {2, 3, 1000, 60},
                             {3, 4, 1000, 60}, {4, 1, 1000, 60},
                             {2, 5, 100, 40}, {5, 3, 100, 40}});
  const auto fwd =
      HandTree(*net, 0, kFwd, {{2, 0}, {3, 2}, {4, 3}, {1, 4}, {5, 2}});
  const auto bwd =
      HandTree(*net, 1, kBwd, {{4, 1}, {3, 4}, {2, 3}, {0, 2}, {5, 3}});
  const Scanned similar = Scan(*net, fwd, bwd, 0.5);
  EXPECT_EQ(similar.routes, (Routes{{0, 2, 3, 4, 1}}));
  ExpectCounts(similar.stats, 3, 0, 2);
  const Scanned accepted = Scan(*net, fwd, bwd, 0.05);
  EXPECT_EQ(accepted.routes, (Routes{{0, 2, 3, 4, 1}, {0, 2, 5, 3, 4, 1}}));
  ExpectCounts(accepted.stats, 3, 0, 1);
}

TEST(DissimilarityScanVerdictTest, BoundFindsABackwardNodeRepeatingAForwardOne) {
  // Route 0 is 0 2 3 4 1. Via 5: 0 2 5 9 3 4 1, loopless and similar. Via
  // 7: 0 2 5 6 7 8 5 9 3 4 1, whose backward half passes 5 again.
  auto net = HandNetwork(10, {{0, 2, 1000, 60}, {2, 3, 1000, 60},
                              {3, 4, 1000, 60}, {4, 1, 1000, 60},
                              {2, 5, 50, 30}, {5, 6, 50, 30}, {6, 7, 50, 30},
                              {7, 8, 50, 30}, {8, 5, 50, 30}, {5, 9, 50, 30},
                              {9, 3, 50, 30}});
  const auto fwd = HandTree(*net, 0, kFwd,
                            {{2, 0}, {3, 2}, {4, 3}, {1, 4}, {5, 2}, {6, 5}, {7, 6}});
  const auto bwd = HandTree(
      *net, 1, kBwd,
      {{4, 1}, {3, 4}, {2, 3}, {0, 2}, {9, 3}, {5, 9}, {8, 5}, {7, 8}});
  const Scanned got = Scan(*net, fwd, bwd, 0.5);
  EXPECT_EQ(got.routes, (Routes{{0, 2, 3, 4, 1}}));
  // Route 0; via 0 and via 5 (similar); via 7 (loop).
  ExpectCounts(got.stats, 4, 1, 2);
}

TEST(DissimilarityScanVerdictTest, BoundFindsABackwardNodeOnTheRoutePrefix) {
  // Route 0 is 0 2 3 4 1; the backward tree reaches 2 by the equally fast
  // 2 7 4, so route 0's backward-tree suffix starts at 3. Via 5:
  // 0 2 3 5 6 2 7 4 1, whose backward half passes 2, on route 0 before 3.
  // Via 0 (0 2 7 4 1) the bound cannot tell, so it is walked.
  auto net = HandNetwork(8, {{0, 2, 1000, 60}, {2, 3, 1000, 60},
                             {3, 4, 1000, 60}, {4, 1, 1000, 60},
                             {2, 7, 50, 60}, {7, 4, 50, 60}, {3, 5, 50, 30},
                             {5, 6, 50, 30}, {6, 2, 50, 30}});
  const auto fwd = HandTree(*net, 0, kFwd,
                            {{2, 0}, {3, 2}, {4, 3}, {1, 4}, {7, 2}, {5, 3}});
  const auto bwd = HandTree(
      *net, 1, kBwd, {{4, 1}, {3, 4}, {7, 4}, {2, 7}, {0, 2}, {6, 2}, {5, 6}});
  const Scanned got = Scan(*net, fwd, bwd, 0.5);
  EXPECT_EQ(got.routes, (Routes{{0, 2, 3, 4, 1}}));
  // Route 0; via 0 (similar; 2 and 7 are its mates); via 1, route 0 again
  // (similar; 4 and 3 are its mates); via 5 (loop).
  ExpectCounts(got.stats, 4, 1, 2);
}

TEST(DissimilarityScanVerdictTest, BoundAgainstAViaRoute) {
  // Route 0 is 0 2 3 1 and shares nothing with route 1, 0 4 5 6 1 via 4.
  // From 4 the trees tie: 4 7 6 in the forward tree, 4 5 6 in the backward
  // one. Via 6 (the same via cost as 4): 0 4 7 6 1. It meets route 1 at 4
  // and again at 6 = v, where the halves join: loopless, and similar to
  // route 1. Via 8: 0 4 7 6 8 9 5 6 1, whose forward half passes 6, on
  // route 1 after 5, where its backward half joins route 1.
  auto net = HandNetwork(10, {{0, 2, 1000, 60}, {2, 3, 1000, 60},
                              {3, 1, 1000, 60}, {0, 4, 1000, 100},
                              {4, 5, 1000, 10}, {5, 6, 1000, 10},
                              {6, 1, 1000, 100}, {4, 7, 50, 10}, {7, 6, 50, 10},
                              {6, 8, 50, 10}, {8, 9, 50, 10}, {9, 5, 50, 10}});
  const auto fwd = HandTree(*net, 0, kFwd,
                            {{2, 0}, {3, 2}, {1, 3}, {4, 0}, {7, 4}, {6, 7}, {8, 6}});
  const auto bwd = HandTree(
      *net, 1, kBwd, {{3, 1}, {2, 3}, {0, 2}, {6, 1}, {5, 6}, {4, 5}, {9, 5}, {8, 9}});
  ASSERT_EQ(fwd.dist[4] + bwd.dist[4], fwd.dist[6] + bwd.dist[6]);
  const Scanned got = Scan(*net, fwd, bwd, 0.5);
  EXPECT_EQ(got.routes, (Routes{{0, 2, 3, 1}, {0, 4, 5, 6, 1}}));
  // Route 0; via 0 (similar); via 4 (accepted); via 6 (similar); via 8
  // (loop).
  ExpectCounts(got.stats, 5, 1, 2);
}

TEST(DissimilarityScanVerdictTest, CandidateInsideTheMarginIsWalked) {
  // Via 4, 0 2 4 3 1 shares exactly half its 2000 m with route 0 0 2 3 1:
  // 1 - 0.5 <= theta = 0.5, so it is similar, and only just.
  auto net = HandNetwork(5, {{0, 2, 500, 60}, {2, 3, 1000, 60},
                             {3, 1, 500, 60}, {2, 4, 500, 40}, {4, 3, 500, 40}});
  const auto fwd = HandTree(*net, 0, kFwd, {{2, 0}, {3, 2}, {1, 3}, {4, 2}});
  const auto bwd = HandTree(*net, 1, kBwd, {{3, 1}, {2, 3}, {0, 2}, {4, 3}});
  const Scanned at = Scan(*net, fwd, bwd, 0.5);
  EXPECT_EQ(at.routes, (Routes{{0, 2, 3, 1}}));
  ExpectCounts(at.stats, 3, 0, 2);
  const Scanned below = Scan(*net, fwd, bwd, 0.4999);
  EXPECT_EQ(below.routes, (Routes{{0, 2, 3, 1}, {0, 2, 4, 3, 1}}));
  ExpectCounts(below.stats, 3, 0, 1);
}

TEST(DissimilarityScanVerdictTest, DemotionKeepsTheWalksCounts) {
  // As UTurnIsALoop with a longer spur 2 <-> 3 <-> 4, but node 3 lost its
  // forward parent. The walk skips 3 and 4, whose chains break at 3,
  // without counting them, though 4 is a U-turn.
  auto net = HandNetwork(5, {{0, 2, 1000, 60}, {2, 1, 1000, 60},
                             {2, 3, 100, 10}, {3, 2, 100, 10},
                             {3, 4, 100, 10}, {4, 3, 100, 10}});
  const auto fwd =
      HandTree(*net, 0, kFwd, {{2, 0}, {1, 2}, {4, 3}}, /*orphans=*/{{3, 70.0}});
  const auto bwd = HandTree(*net, 1, kBwd, {{0, 2}, {2, 1}, {3, 2}, {4, 3}});
  ASSERT_EQ(fwd.demoted, 1u);
  const Scanned got = Scan(*net, fwd, bwd, 0.5);
  EXPECT_EQ(got.routes, (Routes{{0, 2, 1}}));
  ExpectCounts(got.stats, 2, 0, 1);
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
