#include "routing/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "citygen/city_generator.h"
#include "routing/phast.h"
#include "traffic/traffic_model.h"
#include "util/check.h"

namespace altroute {
namespace {

std::shared_ptr<const ContractionHierarchy> BuildCh(
    const std::shared_ptr<RoadNetwork>& net) {
  auto ch = ContractionHierarchy::Build(net, net->travel_times());
  ALT_CHECK(ch.ok()) << ch.status();
  return std::move(ch).ValueOrDie();
}

TEST(ContractionHierarchyTest, RejectsBadWeights) {
  auto net = testutil::LineNetwork(4);
  std::vector<double> bad(net->num_edges(), 1.0);
  bad[0] = 0.0;
  EXPECT_TRUE(
      ContractionHierarchy::Build(net, bad).status().IsInvalidArgument());
  std::vector<double> wrong_size(2, 1.0);
  EXPECT_TRUE(ContractionHierarchy::Build(net, wrong_size)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ContractionHierarchy::Build(nullptr, {})
                  .status()
                  .IsInvalidArgument());
}

TEST(ContractionHierarchyTest, RanksAreAPermutation) {
  auto net = testutil::GridNetwork(6, 6);
  auto ch = BuildCh(net);
  std::vector<bool> seen(net->num_nodes(), false);
  for (uint32_t r : ch->ranks()) {
    ASSERT_LT(r, net->num_nodes());
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

TEST(ContractionHierarchyTest, SourceEqualsTarget) {
  auto net = testutil::LineNetwork(5);
  auto ch = BuildCh(net);
  auto r = ch->ShortestPath(3, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->cost, 0.0);
}

TEST(ContractionHierarchyTest, UnreachableIsNotFound) {
  GraphBuilder builder;
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddEdge(1, 0, 10, 5);
  auto net = std::move(builder.Build()).ValueOrDie();
  auto ch = BuildCh(net);
  EXPECT_TRUE(ch->ShortestPath(0, 1).status().IsNotFound());
}

class ChOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChOracleTest, MatchesDijkstraAndUnpacksRealPaths) {
  auto net = testutil::RandomConnectedNetwork(GetParam(), 120, 160);
  const auto weights = testutil::Weights(*net);
  auto ch = BuildCh(net);
  Dijkstra dijkstra(*net);
  Rng rng(GetParam() + 3000);
  for (int q = 0; q < 50; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    auto expected = dijkstra.ShortestPath(s, t, weights);
    auto got = ch->ShortestPath(s, t);
    ASSERT_EQ(expected.ok(), got.ok()) << s << "->" << t;
    if (!expected.ok()) continue;
    EXPECT_NEAR(got->cost, expected->cost, 1e-6) << s << "->" << t;
    // Unpacked path must be contiguous original edges with matching cost.
    double cost = 0.0;
    NodeId cur = s;
    for (EdgeId e : got->edges) {
      ASSERT_LT(e, net->num_edges());
      EXPECT_EQ(net->tail(e), cur);
      cur = net->head(e);
      cost += weights[e];
    }
    EXPECT_EQ(cur, t);
    EXPECT_NEAR(cost, got->cost, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChOracleTest,
                         ::testing::Values(71, 72, 73, 74, 75));

TEST(ContractionHierarchyTest, GridExhaustiveSmall) {
  auto net = testutil::GridNetwork(5, 5);
  const auto weights = testutil::Weights(*net);
  auto ch = BuildCh(net);
  Dijkstra dijkstra(*net);
  for (NodeId s = 0; s < net->num_nodes(); ++s) {
    for (NodeId t = 0; t < net->num_nodes(); t += 3) {
      auto expected = dijkstra.ShortestPath(s, t, weights);
      auto got = ch->ShortestPath(s, t);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok());
      EXPECT_NEAR(got->cost, expected->cost, 1e-6);
    }
  }
}

TEST(ChQueryTest, ReusedWorkspaceMatchesPerCallApi) {
  auto net = testutil::RandomConnectedNetwork(901, 120, 160);
  const auto weights = testutil::Weights(*net);
  auto ch = BuildCh(net);
  ContractionHierarchy::Query query(ch);
  Rng rng(901 + 5000);
  for (int q = 0; q < 40; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    auto per_call = ch->ShortestPath(s, t);
    auto reused = query.ShortestPath(s, t);
    ASSERT_EQ(per_call.ok(), reused.ok()) << s << "->" << t;
    if (!per_call.ok()) continue;
    EXPECT_NEAR(reused->cost, per_call->cost, 1e-9) << s << "->" << t;
    EXPECT_EQ(reused->edges, per_call->edges) << s << "->" << t;
  }
}

TEST(ChQueryTest, BidirectionalLabelsAndViaPathsAreConsistent) {
  auto net = testutil::RandomConnectedNetwork(902, 100, 140);
  const auto weights = testutil::Weights(*net);
  auto ch = BuildCh(net);
  Dijkstra dijkstra(*net);
  ContractionHierarchy::Query query(ch);

  const NodeId s = 3, t = 77;
  auto opt = dijkstra.ShortestPath(s, t, weights);
  ASSERT_TRUE(opt.ok());
  auto run = query.RunBidirectional(s, t, /*prune_factor=*/1.4);
  ASSERT_TRUE(run.ok());
  EXPECT_NEAR(run->best_cost, opt->cost, 1e-6);
  ASSERT_NE(run->meet, kInvalidNode);

  // The meet node realises the optimum, and unpacking it yields a valid
  // contiguous s->t route of exactly that cost.
  EXPECT_NEAR(query.forward_distance(run->meet) +
                  query.backward_distance(run->meet),
              opt->cost, 1e-6);
  ASSERT_FALSE(query.meeting_nodes().empty());

  for (NodeId via : query.meeting_nodes()) {
    const double df = query.forward_distance(via);
    const double db = query.backward_distance(via);
    ASSERT_LT(df, kInfCost);
    ASSERT_LT(db, kInfCost);
    // Labels are upper bounds realised by actual paths.
    auto unpacked = query.UnpackViaPath(via);
    ASSERT_TRUE(unpacked.ok()) << "via " << via;
    EXPECT_NEAR(unpacked->cost, df + db, 1e-6);
    EXPECT_GE(unpacked->cost, opt->cost - 1e-9);
    double cost = 0.0;
    NodeId cur = s;
    bool saw_via = (via == s);
    for (EdgeId e : unpacked->edges) {
      ASSERT_LT(e, net->num_edges());
      ASSERT_EQ(net->tail(e), cur);
      cur = net->head(e);
      if (cur == via) saw_via = true;
      cost += weights[e];
    }
    EXPECT_EQ(cur, t);
    EXPECT_TRUE(saw_via) << "via " << via << " not on its own route";
    EXPECT_NEAR(cost, unpacked->cost, 1e-6);
  }

  // A node reached by neither/one search is rejected.
  NodeId outside = kInvalidNode;
  for (NodeId v = 0; v < net->num_nodes(); ++v) {
    if (query.forward_distance(v) == kInfCost ||
        query.backward_distance(v) == kInfCost) {
      outside = v;
      break;
    }
  }
  if (outside != kInvalidNode) {
    EXPECT_TRUE(query.UnpackViaPath(outside).status().IsInvalidArgument());
  }
}

TEST(ChQueryTest, DisconnectedIslandsAreNotFound) {
  auto net = testutil::TwoIslandNetwork(903, 40, 30);
  auto ch = BuildCh(net);
  ContractionHierarchy::Query query(ch);
  // Cross-island in both directions; then a same-island query still works.
  EXPECT_TRUE(query.ShortestPath(0, 41).status().IsNotFound());
  EXPECT_TRUE(query.RunBidirectional(41, 0).status().IsNotFound());
  auto same = query.ShortestPath(2, 17);
  EXPECT_TRUE(same.ok());
}

TEST(ChQueryTest, SourceEqualsTargetIsZero) {
  auto net = testutil::GridNetwork(4, 4);
  auto ch = BuildCh(net);
  ContractionHierarchy::Query query(*ch);
  auto r = query.ShortestPath(7, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->cost, 0.0);
  EXPECT_TRUE(r->edges.empty());
}

TEST(ContractionHierarchyTest, ShortcutCountIsReasonable) {
  auto net = testutil::GridNetwork(10, 10);
  auto ch = BuildCh(net);
  // A healthy CH on a grid adds some shortcuts but far fewer than V^2.
  EXPECT_GT(ch->num_arcs(), net->num_edges());
  EXPECT_LT(ch->num_shortcuts(), net->num_nodes() * net->num_nodes());
}

TEST(ContractionHierarchyTest, BuildInOrderOfOwnRanksRebuildsTheHierarchy) {
  auto net = testutil::RandomConnectedNetwork(904, 150, 200);
  auto ch = BuildCh(net);
  auto again =
      ContractionHierarchy::BuildInOrder(net, net->travel_times(), ch->ranks());
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->ranks(), ch->ranks());
  EXPECT_EQ((*again)->num_shortcuts(), ch->num_shortcuts());
  EXPECT_EQ((*again)->num_arcs(), ch->num_arcs());
  Rng rng(904);
  for (int q = 0; q < 30; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    auto want = ch->ShortestPath(s, t);
    auto got = (*again)->ShortestPath(s, t);
    ASSERT_EQ(got.ok(), want.ok()) << s << "->" << t;
    if (!want.ok()) continue;
    EXPECT_EQ(got->cost, want->cost) << s << "->" << t;
    EXPECT_EQ(got->edges, want->edges) << s << "->" << t;
  }
}

// The commercial weights of a study city contracted in its display
// hierarchy's order, as EngineSuite builds them.
TEST(ContractionHierarchyTest, BuildInOrderMatchesDijkstraUnderCommercialWeights) {
  auto city = citygen::BuildCityNetwork(
      citygen::Scaled(citygen::DhakaSpec(), 0.1));
  ASSERT_TRUE(city.ok()) << city.status();
  std::shared_ptr<RoadNetwork> net = std::move(city).ValueOrDie();
  auto display = ContractionHierarchy::Build(net, FreeFlowModel().Weights(*net));
  ASSERT_TRUE(display.ok()) << display.status();
  const std::vector<double> commercial = CommercialTrafficModel(3).Weights(*net);
  auto built = ContractionHierarchy::BuildInOrder(net, commercial,
                                                  (*display)->ranks());
  ASSERT_TRUE(built.ok()) << built.status();
  std::shared_ptr<const ContractionHierarchy> ch = std::move(built).ValueOrDie();
  EXPECT_EQ(ch->ranks(), (*display)->ranks());
  EXPECT_TRUE(ch->BuiltOver(commercial));
  EXPECT_FALSE(ch->BuiltOver(FreeFlowModel().Weights(*net)));

  Phast phast(ch);
  Dijkstra dijkstra(*net);
  std::vector<double> dist(net->num_nodes());
  Rng rng(905);
  for (int q = 0; q < 12; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    for (SearchDirection dir :
         {SearchDirection::kForward, SearchDirection::kBackward}) {
      ASSERT_TRUE(phast.DistancesInto(s, dir, dist).ok());
      auto tree = dijkstra.BuildTree(s, commercial, dir);
      ASSERT_TRUE(tree.ok());
      for (NodeId v = 0; v < net->num_nodes(); ++v) {
        if (tree->dist[v] == kInfCost) {
          EXPECT_EQ(dist[v], kInfCost) << s << " node " << v;
          continue;
        }
        EXPECT_NEAR(dist[v], tree->dist[v], 1e-9 * std::max(1.0, tree->dist[v]))
            << s << " node " << v;
      }
    }
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    auto want = dijkstra.ShortestPath(s, t, commercial);
    auto got = ch->ShortestPath(s, t);
    ASSERT_EQ(got.ok(), want.ok()) << s << "->" << t;
    if (!want.ok()) continue;
    EXPECT_NEAR(got->cost, want->cost, 1e-9 * std::max(1.0, want->cost))
        << s << "->" << t;
    double cost = 0.0;
    NodeId cur = s;
    for (EdgeId e : got->edges) {
      ASSERT_EQ(net->tail(e), cur);
      cur = net->head(e);
      cost += commercial[e];
    }
    EXPECT_EQ(cur, t);
    EXPECT_NEAR(cost, got->cost, 1e-6);
  }
}

TEST(ContractionHierarchyTest, BuildInOrderRejectsBadOrders) {
  auto net = testutil::GridNetwork(4, 4);
  const std::vector<double> w = testutil::Weights(*net);
  std::vector<uint32_t> ranks(net->num_nodes());
  for (uint32_t i = 0; i < ranks.size(); ++i) ranks[i] = i;
  EXPECT_TRUE(ContractionHierarchy::BuildInOrder(net, w, ranks).ok());

  const std::vector<uint32_t> short_order(ranks.begin(), ranks.end() - 1);
  EXPECT_TRUE(ContractionHierarchy::BuildInOrder(net, w, short_order)
                  .status()
                  .IsInvalidArgument());
  std::vector<uint32_t> repeated = ranks;
  repeated[3] = repeated[4];
  EXPECT_TRUE(ContractionHierarchy::BuildInOrder(net, w, repeated)
                  .status()
                  .IsInvalidArgument());
  std::vector<uint32_t> out_of_range = ranks;
  out_of_range[0] = static_cast<uint32_t>(ranks.size());
  EXPECT_TRUE(ContractionHierarchy::BuildInOrder(net, w, out_of_range)
                  .status()
                  .IsInvalidArgument());
  std::vector<double> bad = w;
  bad[0] = -1.0;
  EXPECT_TRUE(ContractionHierarchy::BuildInOrder(net, bad, ranks)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace altroute
