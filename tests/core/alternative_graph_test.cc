#include "core/alternative_graph.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "core/penalty.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {
namespace {

Path PathThrough(const RoadNetwork& net, const std::vector<NodeId>& nodes) {
  std::vector<EdgeId> edges;
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    edges.push_back(net.FindEdge(nodes[i], nodes[i + 1]));
  }
  auto p = MakePath(net, nodes.front(), nodes.back(), std::move(edges),
                    net.travel_times());
  ALT_CHECK(p.ok());
  return std::move(p).ValueOrDie();
}

TEST(AlternativeGraphTest, EmptySet) {
  auto net = testutil::LineNetwork(3);
  const AlternativeGraph g = BuildAlternativeGraph(*net, {});
  EXPECT_EQ(g.num_unique_segments, 0u);
  EXPECT_DOUBLE_EQ(g.total_distance_ratio, 1.0);
}

TEST(AlternativeGraphTest, SingleRouteIsItsOwnGraph) {
  auto net = testutil::GridNetwork(3, 4);
  const Path p = PathThrough(*net, {0, 1, 2, 3});
  const AlternativeGraph g = BuildAlternativeGraph(*net, {{p}});
  EXPECT_EQ(g.num_unique_segments, 3u);
  EXPECT_EQ(g.num_nodes, 4u);
  EXPECT_EQ(g.num_decision_nodes, 0u);
  EXPECT_DOUBLE_EQ(g.total_distance_ratio, 1.0);
  EXPECT_DOUBLE_EQ(g.average_distance_ratio, 1.0);
}

TEST(AlternativeGraphTest, DisjointAlternativeDoublesTheGraph) {
  auto net = testutil::GridNetwork(3, 4);
  const Path top = PathThrough(*net, {0, 1, 2, 3});
  const Path bottom = PathThrough(*net, {0, 4, 5, 6, 7, 3});
  const AlternativeGraph g = BuildAlternativeGraph(*net, {{top, bottom}});
  EXPECT_EQ(g.num_unique_segments, 8u);
  // Fork at node 0, merge at node 3 -> exactly one decision node (0).
  EXPECT_EQ(g.num_decision_nodes, 1u);
  EXPECT_NEAR(g.total_distance_ratio, 8.0 / 3.0, 1e-9);
  EXPECT_NEAR(g.average_distance_ratio, (3.0 + 5.0) / (2 * 3.0), 1e-9);
}

TEST(AlternativeGraphTest, SharedSegmentsCountOnce) {
  auto net = testutil::GridNetwork(3, 4);
  const Path a = PathThrough(*net, {0, 1, 2, 3});
  const Path b = PathThrough(*net, {0, 1, 2, 6, 7, 3});  // shares 0-1-2
  const AlternativeGraph g = BuildAlternativeGraph(*net, {{a, b}});
  EXPECT_EQ(g.num_unique_segments, 3u + 3u);  // 2 shared + 1 + 3 distinct
  // Decision at node 2 (continue to 3 or drop to 6).
  EXPECT_EQ(g.num_decision_nodes, 1u);
}

TEST(AlternativeGraphTest, ReverseTwinsAreOneSegment) {
  auto net = testutil::GridNetwork(3, 3);
  const Path there = PathThrough(*net, {0, 1, 2});
  const Path back = PathThrough(*net, {2, 1, 0});
  const AlternativeGraph g = BuildAlternativeGraph(*net, {{there, back}});
  EXPECT_EQ(g.num_unique_segments, 2u);
  EXPECT_NEAR(g.total_distance_ratio, 1.0, 1e-9);
}

TEST(AlternativeGraphTest, RealGeneratorOutputHasDecisions) {
  auto net = testutil::GridNetwork(8, 8);
  PenaltyGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(0, 63);
  ASSERT_TRUE(set.ok());
  ASSERT_GE(set->routes.size(), 2u);
  const AlternativeGraph g = BuildAlternativeGraph(*net, set->routes);
  EXPECT_GE(g.num_decision_nodes, 1u);
  EXPECT_GT(g.total_distance_ratio, 1.0);
  EXPECT_GE(g.average_distance_ratio, 1.0);
  EXPECT_LE(g.average_distance_ratio, 1.4 + 1e-9);  // stretch-bounded routes
}

}  // namespace
}  // namespace altroute
