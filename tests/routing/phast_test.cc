#include "routing/phast.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "../testutil.h"
#include "citygen/city_generator.h"
#include "traffic/traffic_model.h"
#include "util/check.h"
#include "util/random.h"

namespace altroute {
namespace {

std::shared_ptr<const ContractionHierarchy> Ch(
    const std::shared_ptr<RoadNetwork>& net) {
  auto ch = ContractionHierarchy::Build(net, net->travel_times());
  ALT_CHECK(ch.ok());
  return std::move(ch).ValueOrDie();
}

TEST(PhastTest, MatchesDijkstraTreeOnGrid) {
  auto net = testutil::GridNetwork(8, 8);
  Phast phast(Ch(net));
  Dijkstra dijkstra(*net);
  for (NodeId source : {0u, 27u, 63u}) {
    auto got = phast.Distances(source);
    ASSERT_TRUE(got.ok());
    auto tree = dijkstra.BuildTree(source, net->travel_times(),
                                   SearchDirection::kForward);
    ASSERT_TRUE(tree.ok());
    for (NodeId v = 0; v < net->num_nodes(); ++v) {
      EXPECT_NEAR((*got)[v], tree->dist[v], 1e-6) << "source " << source
                                                  << " node " << v;
    }
  }
}

class PhastOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PhastOracleTest, MatchesDijkstraOnRandomGraphs) {
  auto net = testutil::RandomConnectedNetwork(GetParam(), 150, 200);
  Phast phast(Ch(net));
  Dijkstra dijkstra(*net);
  Rng rng(GetParam() + 4000);
  for (int q = 0; q < 5; ++q) {
    const auto source = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    auto got = phast.Distances(source);
    ASSERT_TRUE(got.ok());
    auto tree = dijkstra.BuildTree(source, net->travel_times(),
                                   SearchDirection::kForward);
    ASSERT_TRUE(tree.ok());
    for (NodeId v = 0; v < net->num_nodes(); ++v) {
      EXPECT_NEAR((*got)[v], tree->dist[v], 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhastOracleTest,
                         ::testing::Values(111, 112, 113));

TEST(PhastTest, HandlesUnreachableNodes) {
  // One-way pair: from node 0, node 1 is reachable but not vice versa.
  GraphBuilder builder;
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddNode(LatLng(0, 0.02));
  builder.AddEdge(0, 1, 10, 5);
  builder.AddEdge(1, 2, 10, 5);
  auto net = std::move(builder.Build()).ValueOrDie();
  Phast phast(Ch(net));
  auto from2 = phast.Distances(2);
  ASSERT_TRUE(from2.ok());
  EXPECT_DOUBLE_EQ((*from2)[2], 0.0);
  EXPECT_EQ((*from2)[0], kInfCost);
  EXPECT_EQ((*from2)[1], kInfCost);
}

TEST(PhastTest, RepeatedQueriesAreIndependent) {
  auto net = testutil::GridNetwork(6, 6);
  Phast phast(Ch(net));
  auto first = phast.Distances(0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(phast.Distances(35).ok());
  auto again = phast.Distances(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*first, *again);
}

TEST(PhastTest, RejectsOutOfRangeSource) {
  auto net = testutil::LineNetwork(4);
  Phast phast(Ch(net));
  EXPECT_TRUE(phast.Distances(99).status().IsInvalidArgument());
}

TEST(PhastTest, BackwardMatchesReverseDijkstraTree) {
  auto net = testutil::RandomConnectedNetwork(121, 150, 200);
  Phast phast(Ch(net));
  Dijkstra dijkstra(*net);
  std::vector<double> dist(net->num_nodes(), -1.0);
  for (NodeId target : {0u, 42u, 149u}) {
    ASSERT_TRUE(phast
                    .DistancesInto(target, SearchDirection::kBackward,
                                   std::span<double>(dist))
                    .ok());
    auto tree = dijkstra.BuildTree(target, net->travel_times(),
                                   SearchDirection::kBackward);
    ASSERT_TRUE(tree.ok());
    for (NodeId v = 0; v < net->num_nodes(); ++v) {
      EXPECT_NEAR(dist[v], tree->dist[v], 1e-6)
          << "target " << target << " node " << v;
    }
  }
}

TEST(PhastTest, BackwardHandlesOneWayReachability) {
  // 0 -> 1 -> 2 one-way: backward from 0, only node 0 reaches it.
  GraphBuilder builder;
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddNode(LatLng(0, 0.02));
  builder.AddEdge(0, 1, 10, 5);
  builder.AddEdge(1, 2, 10, 5);
  auto net = std::move(builder.Build()).ValueOrDie();
  Phast phast(Ch(net));
  std::vector<double> dist(net->num_nodes(), 0.0);
  ASSERT_TRUE(phast
                  .DistancesInto(0, SearchDirection::kBackward,
                                 std::span<double>(dist))
                  .ok());
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_EQ(dist[1], kInfCost);
  EXPECT_EQ(dist[2], kInfCost);
  // Backward from 2 sees the whole chain.
  ASSERT_TRUE(phast
                  .DistancesInto(2, SearchDirection::kBackward,
                                 std::span<double>(dist))
                  .ok());
  EXPECT_DOUBLE_EQ(dist[0], 10.0);
  EXPECT_DOUBLE_EQ(dist[1], 5.0);
  EXPECT_DOUBLE_EQ(dist[2], 0.0);
}

TEST(PhastTest, DistancesIntoValidatesBufferAndReusesIt) {
  auto net = testutil::GridNetwork(6, 6);
  Phast phast(Ch(net));
  std::vector<double> wrong(net->num_nodes() - 1);
  EXPECT_TRUE(phast
                  .DistancesInto(0, SearchDirection::kForward,
                                 std::span<double>(wrong))
                  .IsInvalidArgument());

  // Same buffer across calls: results match the allocating overload.
  std::vector<double> dist(net->num_nodes());
  for (NodeId source : {0u, 17u, 35u}) {
    ASSERT_TRUE(phast
                    .DistancesInto(source, SearchDirection::kForward,
                                   std::span<double>(dist))
                    .ok());
    auto expected = phast.Distances(source);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(dist, *expected) << "source " << source;
  }
}

/// PHAST with the sweep done arc by arc, each arc a load-compare-store on
/// its head's label: the oracle for the sweep that keeps a node's running
/// minimum in a register and stores it once. `edges_relaxed` counts as
/// Phast does.
std::vector<double> ArcByArcPhast(const ContractionHierarchy& ch,
                                  NodeId source, SearchDirection direction,
                                  uint64_t* edges_relaxed) {
  const bool forward = direction == SearchDirection::kForward;
  std::vector<double> dist(ch.ranks().size(), kInfCost);
  IndexedHeap<double> heap(dist.size());
  dist[source] = 0.0;
  heap.PushOrDecrease(source, 0.0);
  while (!heap.Empty()) {
    const auto [u, du] = heap.PopMin();
    if (du > dist[u]) continue;
    for (const ContractionHierarchy::Arc& a : ch.UpwardArcs(u, direction)) {
      const NodeId v = forward ? a.to : a.from;
      ++*edges_relaxed;
      if (du + a.weight < dist[v]) {
        dist[v] = du + a.weight;
        heap.PushOrDecrease(v, dist[v]);
      }
    }
  }
  for (const ContractionHierarchy::Arc& a : ch.SweepArcs(direction)) {
    const NodeId from = forward ? a.from : a.to;
    const NodeId to = forward ? a.to : a.from;
    if (dist[from] == kInfCost) continue;
    ++*edges_relaxed;
    const double d = dist[from] + a.weight;
    if (d < dist[to]) dist[to] = d;
  }
  return dist;
}

/// Index of the first label whose bits differ, or -1.
int64_t FirstDifferingBits(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size()) return 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

class PhastSweepOracleTest : public ::testing::TestWithParam<std::string> {};

// The served hierarchies of a study city: the display one, and the
// commercial weights contracted in its order.
TEST_P(PhastSweepOracleTest, LabelsAndCountersMatchArcByArcSweep) {
  citygen::CitySpec spec = citygen::CopenhagenSpec();
  if (GetParam() == "melbourne") spec = citygen::MelbourneSpec();
  if (GetParam() == "dhaka") spec = citygen::DhakaSpec();
  auto built = citygen::BuildCityNetwork(citygen::Scaled(spec, 0.2));
  ASSERT_TRUE(built.ok()) << built.status();
  std::shared_ptr<const RoadNetwork> net = std::move(built).ValueOrDie();
  auto display = ContractionHierarchy::Build(net, FreeFlowModel().Weights(*net));
  ASSERT_TRUE(display.ok()) << display.status();
  auto commercial = ContractionHierarchy::BuildInOrder(
      net, CommercialTrafficModel(3).Weights(*net), (*display)->ranks());
  ASSERT_TRUE(commercial.ok()) << commercial.status();

  Rng rng(4242);
  std::vector<double> dist(net->num_nodes());
  for (const auto& ch : {*display, *commercial}) {
    Phast phast(ch);
    for (int q = 0; q < 20; ++q) {
      const auto source = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
      for (SearchDirection direction :
           {SearchDirection::kForward, SearchDirection::kBackward}) {
        obs::SearchStats stats;
        ASSERT_TRUE(phast.DistancesInto(source, direction, dist, &stats).ok());
        uint64_t want_relaxed = 0;
        const std::vector<double> want =
            ArcByArcPhast(*ch, source, direction, &want_relaxed);
        const std::string where =
            GetParam() + (ch == *display ? " display" : " commercial") +
            " source " + std::to_string(source) +
            (direction == SearchDirection::kForward ? " forward" : " backward");
        const int64_t differing = FirstDifferingBits(dist, want);
        EXPECT_EQ(differing, -1)
            << where << ": node " << differing << " reads "
            << dist[static_cast<size_t>(std::max<int64_t>(differing, 0))]
            << " vs "
            << want[static_cast<size_t>(std::max<int64_t>(differing, 0))];
        EXPECT_EQ(stats.edges_relaxed, want_relaxed) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cities, PhastSweepOracleTest,
                         ::testing::Values("melbourne", "dhaka", "copenhagen"));

// A tree is DistancesInto's labels, bit for bit, at DistancesInto's work,
// plus parents that make it a shortest-path tree.
TEST(PhastTest, TreeIntoAddsParentsToTheSameLabelsAndWork) {
  for (uint64_t seed : {131u, 132u}) {
    auto net = testutil::RandomConnectedNetwork(seed, 150, 200);
    Phast phast(Ch(net));
    const std::vector<double> weights = testutil::Weights(*net);
    std::vector<double> dist(net->num_nodes());
    ShortestPathTree tree;
    Rng rng(seed);
    for (int q = 0; q < 8; ++q) {
      const auto root = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
      for (SearchDirection direction :
           {SearchDirection::kForward, SearchDirection::kBackward}) {
        obs::SearchStats labels_only, with_parents;
        ASSERT_TRUE(
            phast.DistancesInto(root, direction, dist, &labels_only).ok());
        ASSERT_TRUE(phast.TreeInto(root, direction, &tree, &with_parents).ok());
        const std::string where = "seed " + std::to_string(seed) + " root " +
                                  std::to_string(root);
        EXPECT_EQ(tree.root, root) << where;
        EXPECT_EQ(tree.direction, direction) << where;
        EXPECT_EQ(tree.demoted, 0u) << where;
        EXPECT_EQ(FirstDifferingBits(tree.dist, dist), -1) << where;
        EXPECT_EQ(with_parents.nodes_settled, labels_only.nodes_settled);
        EXPECT_EQ(with_parents.edges_relaxed, labels_only.edges_relaxed);
        EXPECT_EQ(with_parents.heap_pushes, labels_only.heap_pushes);
        EXPECT_EQ(with_parents.heap_pops, labels_only.heap_pops);
        testutil::ExpectConsistentParents(*net, weights, tree, where);
      }
    }
  }
}

TEST(PhastTest, TreeIntoRejectsBadSourcesAndStopsWhenCancelled) {
  auto net = testutil::GridNetwork(40, 40);
  Phast phast(Ch(net));
  ShortestPathTree tree;
  EXPECT_TRUE(phast.TreeInto(static_cast<NodeId>(net->num_nodes()),
                             SearchDirection::kForward, &tree)
                  .IsInvalidArgument());
  CancellationToken token;
  token.RequestCancel();
  EXPECT_TRUE(phast.TreeInto(0, SearchDirection::kBackward, &tree, nullptr,
                             &token)
                  .IsDeadlineExceeded());
  ASSERT_TRUE(phast.TreeInto(0, SearchDirection::kBackward, &tree).ok());
  testutil::ExpectConsistentParents(*net, testutil::Weights(*net), tree);
}

TEST(PhastTest, FiredTokenCancelsTheSweep) {
  auto net = testutil::GridNetwork(40, 40);
  const auto ch = Ch(net);
  Phast phast(ch);
  std::vector<double> dist(net->num_nodes());
  for (SearchDirection direction :
       {SearchDirection::kForward, SearchDirection::kBackward}) {
    // Enough sweep arcs to reach a poll; the token is fired before the call.
    ASSERT_GE(ch->SweepArcs(direction).size(), 4096u);
    CancellationToken token;
    token.RequestCancel();
    const Status status =
        phast.DistancesInto(0, direction, dist, nullptr, &token);
    EXPECT_TRUE(status.IsDeadlineExceeded()) << status;
    EXPECT_EQ(status.message(), "phast sweep cancelled");
    // The same call without the token runs to completion.
    EXPECT_TRUE(phast.DistancesInto(0, direction, dist).ok());
  }
}

}  // namespace
}  // namespace altroute
