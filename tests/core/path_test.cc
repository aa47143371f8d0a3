#include "core/path.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "routing/dijkstra.h"

namespace altroute {
namespace {

TEST(PathTest, MakePathValidatesContiguity) {
  auto net = testutil::LineNetwork(4);
  const auto weights = testutil::Weights(*net);
  const EdgeId e01 = net->FindEdge(0, 1);
  const EdgeId e12 = net->FindEdge(1, 2);
  const EdgeId e23 = net->FindEdge(2, 3);

  auto good = MakePath(*net, 0, 3, {e01, e12, e23}, weights);
  ASSERT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(good->cost, 180.0);
  EXPECT_DOUBLE_EQ(good->length_m, 1500.0);
  EXPECT_DOUBLE_EQ(good->travel_time_s, 180.0);

  // Gap in the chain.
  EXPECT_TRUE(MakePath(*net, 0, 3, {e01, e23}, weights)
                  .status()
                  .IsInvalidArgument());
  // Wrong target.
  EXPECT_TRUE(MakePath(*net, 0, 2, {e01, e12, e23}, weights)
                  .status()
                  .IsInvalidArgument());
  // Wrong source.
  EXPECT_TRUE(MakePath(*net, 1, 3, {e01, e12, e23}, weights)
                  .status()
                  .IsInvalidArgument());
}

TEST(PathTest, EmptyPathRequiresSourceEqualsTarget) {
  auto net = testutil::LineNetwork(3);
  const auto weights = testutil::Weights(*net);
  auto empty = MakePath(*net, 1, 1, {}, weights);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_TRUE(MakePath(*net, 0, 1, {}, weights).status().IsInvalidArgument());
}

TEST(PathTest, OutOfRangeInputsRejected) {
  auto net = testutil::LineNetwork(3);
  const auto weights = testutil::Weights(*net);
  EXPECT_TRUE(MakePath(*net, 9, 1, {}, weights).status().IsInvalidArgument());
  EXPECT_TRUE(
      MakePath(*net, 0, 1, {999}, weights).status().IsInvalidArgument());
}

TEST(PathTest, PathNodesAndCoords) {
  auto net = testutil::LineNetwork(4);
  const auto weights = testutil::Weights(*net);
  auto p = MakePath(*net, 0, 2,
                    {net->FindEdge(0, 1), net->FindEdge(1, 2)}, weights);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(PathNodes(*net, *p), (std::vector<NodeId>{0, 1, 2}));
  const auto coords = PathCoords(*net, *p);
  ASSERT_EQ(coords.size(), 3u);
  EXPECT_EQ(coords[1], net->coord(1));
}

TEST(PathTest, LooplessDetection) {
  auto net = testutil::LineNetwork(3);
  const auto weights = testutil::Weights(*net);
  auto straight = MakePath(*net, 0, 2,
                           {net->FindEdge(0, 1), net->FindEdge(1, 2)}, weights);
  ASSERT_TRUE(straight.ok());
  EXPECT_TRUE(IsLoopless(*net, *straight));

  // 0 -> 1 -> 0 -> 1 -> 2 revisits nodes.
  auto loopy = MakePath(*net, 0, 2,
                        {net->FindEdge(0, 1), net->FindEdge(1, 0),
                         net->FindEdge(0, 1), net->FindEdge(1, 2)},
                        weights);
  ASSERT_TRUE(loopy.ok());
  EXPECT_FALSE(IsLoopless(*net, *loopy));
}

TEST(PathTest, LoopBackToTheSourceIsNotLoopless) {
  // 0 -> 1 -> 2 -> 0 on a grid cycle: only the first and last node repeat.
  auto net = testutil::GridNetwork(2, 2);  // 0 1 / 2 3
  const auto weights = testutil::Weights(*net);
  auto cycle = MakePath(*net, 0, 0,
                        {net->FindEdge(0, 1), net->FindEdge(1, 3),
                         net->FindEdge(3, 2), net->FindEdge(2, 0)},
                        weights);
  ASSERT_TRUE(cycle.ok()) << cycle.status();
  EXPECT_FALSE(IsLoopless(*net, *cycle));
  auto open = MakePath(*net, 0, 2,
                       {net->FindEdge(0, 1), net->FindEdge(1, 3),
                        net->FindEdge(3, 2)},
                       weights);
  ASSERT_TRUE(open.ok()) << open.status();
  EXPECT_TRUE(IsLoopless(*net, *open));
}

TEST(PathTest, CostUnderAlternativeWeights) {
  auto net = testutil::LineNetwork(3);
  const auto weights = testutil::Weights(*net);
  auto p = MakePath(*net, 0, 2,
                    {net->FindEdge(0, 1), net->FindEdge(1, 2)}, weights);
  ASSERT_TRUE(p.ok());
  std::vector<double> other(net->num_edges(), 7.0);
  EXPECT_DOUBLE_EQ(CostUnder(*p, other), 14.0);
}

TEST(PathTest, SameEdgesComparesExactSequences) {
  auto net = testutil::LineNetwork(3);
  const auto weights = testutil::Weights(*net);
  auto a = MakePath(*net, 0, 2, {net->FindEdge(0, 1), net->FindEdge(1, 2)},
                    weights);
  auto b = MakePath(*net, 0, 2, {net->FindEdge(0, 1), net->FindEdge(1, 2)},
                    weights);
  auto c = MakePath(*net, 0, 1, {net->FindEdge(0, 1)}, weights);
  EXPECT_TRUE(SameEdges(*a, *b));
  EXPECT_FALSE(SameEdges(*a, *c));
}

}  // namespace
}  // namespace altroute
