#include "routing/tree_pair.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "../core/study_ods.h"
#include "../testutil.h"
#include "traffic/traffic_model.h"
#include "util/check.h"

namespace altroute {
namespace {

std::shared_ptr<const ContractionHierarchy> Ch(
    const std::shared_ptr<RoadNetwork>& net) {
  return testutil::Hierarchy(net, net->travel_times());
}

TEST(TreePairTest, PhastPairMatchesDijkstraLabels) {
  auto net = testutil::RandomConnectedNetwork(32, 150, 220);
  TreePair pair(Ch(net));
  const std::vector<double>& weights = pair.weights();
  EXPECT_EQ(&pair.network(), net.get());
  EXPECT_EQ(weights, testutil::Weights(*net));
  TreePair::Reader reader;
  ASSERT_TRUE(
      pair.Acquire(5, 101, TreePair::Need::kBothTrees, &reader).ok());
  Dijkstra dijkstra(*net);
  auto fwd = dijkstra.BuildTree(5, weights, SearchDirection::kForward);
  auto bwd = dijkstra.BuildTree(101, weights, SearchDirection::kBackward);
  ASSERT_TRUE(fwd.ok() && bwd.ok());
  for (NodeId v = 0; v < net->num_nodes(); ++v) {
    EXPECT_NEAR(pair.forward().dist[v], fwd->dist[v], 1e-6);
    EXPECT_NEAR(pair.backward().dist[v], bwd->dist[v], 1e-6);
  }
  testutil::ExpectConsistentParents(*net, weights, pair.forward());
  testutil::ExpectConsistentParents(*net, weights, pair.backward());
}

TEST(TreePairTest, SecondReaderReadsWithoutWork) {
  auto net = testutil::GridNetwork(7, 7);
  TreePair pair(Ch(net));
  TreePair::Reader first, second;
  obs::SearchStats built, read;
  auto a = pair.Acquire(0, 48, TreePair::Need::kBothTrees, &first, &built);
  ASSERT_TRUE(a.ok());
  EXPECT_GT(*a, 0u);
  EXPECT_EQ(built.trees_built, 2u);
  auto b = pair.Acquire(0, 48, TreePair::Need::kBothTrees, &second, &read);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 0u);
  EXPECT_TRUE(read.IsZero());
}

TEST(TreePairTest, RereadingOrAnotherQueryStartsANewPair) {
  auto net = testutil::GridNetwork(7, 7);
  TreePair pair(Ch(net));
  TreePair::Reader reader, other;
  ASSERT_TRUE(pair.Acquire(0, 48, TreePair::Need::kBothTrees, &reader).ok());
  // The same consumer asking again: a new request, so a new pair.
  obs::SearchStats again;
  ASSERT_TRUE(
      pair.Acquire(0, 48, TreePair::Need::kBothTrees, &reader, &again).ok());
  EXPECT_EQ(again.trees_built, 2u);
  // Another consumer asking for another query.
  obs::SearchStats moved;
  ASSERT_TRUE(
      pair.Acquire(1, 48, TreePair::Need::kBothTrees, &other, &moved).ok());
  EXPECT_EQ(moved.trees_built, 2u);
  EXPECT_EQ(pair.forward().root, 1u);
  // Reset forgets the pair even for a consumer that has not read it.
  TreePair::Reader fresh;
  pair.Reset();
  obs::SearchStats after_reset;
  ASSERT_TRUE(pair.Acquire(1, 48, TreePair::Need::kBothTrees, &fresh,
                           &after_reset)
                  .ok());
  EXPECT_EQ(after_reset.trees_built, 2u);
}

TEST(TreePairTest, BackwardDistancesAloneCostOneSweep) {
  auto net = testutil::GridNetwork(7, 7);
  auto ch = Ch(net);
  TreePair pair(ch);
  TreePair::Reader penalty, plateau;
  obs::SearchStats one_sweep;
  ASSERT_TRUE(pair.Acquire(2, 40, TreePair::Need::kBackwardDistances,
                           &penalty, &one_sweep)
                  .ok());
  EXPECT_EQ(one_sweep.trees_built, 1u);
  // The distances are the sweep's raw labels.
  Phast phast(ch);
  std::vector<double> raw(net->num_nodes());
  ASSERT_TRUE(
      phast.DistancesInto(40, SearchDirection::kBackward, raw).ok());
  EXPECT_EQ(pair.backward().dist, raw);
  // The backward tree came with its parents, so a consumer that needs both
  // trees then builds only the forward one.
  testutil::ExpectConsistentParents(*net, testutil::Weights(*net),
                                    pair.backward());
  obs::SearchStats rest;
  ASSERT_TRUE(
      pair.Acquire(2, 40, TreePair::Need::kBothTrees, &plateau, &rest).ok());
  EXPECT_EQ(rest.trees_built, 1u);
  EXPECT_EQ(pair.backward().dist, raw);
}

TEST(TreePairTest, CancelledBuildIsNotKept) {
  // Large enough that the build polls the token: PHAST's sweep every 4096
  // arcs.
  auto net = testutil::GridNetwork(50, 50);
  const auto target = static_cast<NodeId>(net->num_nodes() - 1);
  TreePair pair(Ch(net));
  TreePair::Reader first, second;
  CancellationToken cancelled;
  cancelled.RequestCancel();
  const auto status = pair.Acquire(0, target, TreePair::Need::kBothTrees,
                                   &first, nullptr, &cancelled)
                          .status();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status;
  // The next consumer builds complete trees instead of reading a torn pair.
  obs::SearchStats next;
  ASSERT_TRUE(
      pair.Acquire(0, target, TreePair::Need::kBothTrees, &second, &next)
          .ok());
  EXPECT_EQ(next.trees_built, 2u);
  EXPECT_TRUE(pair.forward().Reached(target));
  EXPECT_EQ(pair.backward().root, target);
}

TEST(TreePairTest, RejectsBadNodes) {
  auto net = testutil::GridNetwork(4, 4);
  TreePair pair(Ch(net));
  TreePair::Reader reader;
  EXPECT_TRUE(pair.Acquire(99, 0, TreePair::Need::kBothTrees, &reader)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(pair.Acquire(0, 99, TreePair::Need::kBackwardDistances, &reader)
                  .status()
                  .IsInvalidArgument());
}

class StudyCityTreeTest : public ::testing::TestWithParam<std::string> {};

// Both pairs a study city serves: over the display hierarchy, and over the
// commercial weights contracted in its order. Each tree is a shortest-path
// tree of its labels. Where one edge alone realises a node's label every
// such tree has that edge, so it is the one the label rule picks; where
// several do, the tree keeps the edge of the arc that set the label, which
// may be another.
TEST_P(StudyCityTreeTest, TreesKeepTheLabelRulesParents) {
  std::shared_ptr<const RoadNetwork> net =
      testutil::StudyCity(GetParam(), 0.2);
  auto display = testutil::Hierarchy(net, FreeFlowModel().Weights(*net));
  auto commercial = ContractionHierarchy::BuildInOrder(
      net, CommercialTrafficModel(3).Weights(*net), display->ranks());
  ASSERT_TRUE(commercial.ok()) << commercial.status();
  TreePair display_pair(display);
  TreePair commercial_pair(std::move(commercial).ValueOrDie());
  Rng rng(24);
  uint64_t nodes = 0;
  uint64_t tied = 0;
  for (int q = 0; q < 40; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    for (TreePair* pair : {&display_pair, &commercial_pair}) {
      TreePair::Reader reader;
      ASSERT_TRUE(pair->Acquire(s, t, TreePair::Need::kBothTrees, &reader).ok());
      for (const ShortestPathTree* tree : {&pair->forward(), &pair->backward()}) {
        const std::string where =
            GetParam() +
            (pair == &display_pair ? " display " : " commercial ") +
            (tree == &pair->forward() ? "forward from " : "backward to ") +
            std::to_string(tree->root);
        testutil::ExpectConsistentParents(*net, pair->weights(), *tree, where);
        for (NodeId v = 0; v < net->num_nodes(); ++v) {
          if (v == tree->root || !tree->Reached(v)) continue;
          ++nodes;
          int realising = 0;
          const EdgeId want = testutil::FirstRealisingEdge(
              *net, pair->weights(), *tree, v, &realising);
          if (realising > 1) {
            ++tied;
            continue;
          }
          ASSERT_EQ(tree->parent_edge[v], want) << where << ": node " << v;
        }
      }
    }
  }
  std::printf("%s: %" PRIu64 " of %" PRIu64
              " tree nodes have more than one realising edge\n",
              GetParam().c_str(), tied, nodes);
}

INSTANTIATE_TEST_SUITE_P(Cities, StudyCityTreeTest,
                         ::testing::Values("melbourne", "dhaka", "copenhagen"));

}  // namespace
}  // namespace altroute
