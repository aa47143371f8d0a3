#include "routing/contraction_hierarchy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "../core/study_ods.h"
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

/// PHAST's labels from `root` in `direction`, checked node by node against
/// a Dijkstra tree over the weights the hierarchy was built over: equal
/// within 1e-6, or, when `relative_tolerance` is set, within that share of
/// the distance (of 1 s at least). Unreached nodes must be unreached.
void ExpectPhastMatchesDijkstra(Phast& phast, Dijkstra& dijkstra,
                                std::span<const double> weights, NodeId root,
                                SearchDirection direction,
                                double relative_tolerance = 0.0) {
  std::vector<double> dist(dijkstra.network().num_nodes());
  ASSERT_TRUE(phast.DistancesInto(root, direction, dist).ok());
  auto tree = dijkstra.BuildTree(root, weights, direction);
  ASSERT_TRUE(tree.ok());
  for (NodeId v = 0; v < dist.size(); ++v) {
    if (tree->dist[v] == kInfCost) {
      EXPECT_EQ(dist[v], kInfCost) << root << " node " << v;
      continue;
    }
    const double tolerance =
        relative_tolerance > 0.0
            ? relative_tolerance * std::max(1.0, tree->dist[v])
            : 1e-6;
    EXPECT_NEAR(dist[v], tree->dist[v], tolerance) << root << " node " << v;
  }
}

/// An arc with the original edges at the ends of the path it stands for.
struct ArcEnds {
  ContractionHierarchy::Arc arc;
  EdgeId tail_edge;  // leaves arc.from
  EdgeId head_edge;  // enters arc.to
};

/// Every arc of `ch` once, with both end edges. An arc lies in one upward
/// search graph and in the other direction's sweep (the up-arcs in the
/// forward searches and the backward sweep, the down-arcs in the backward
/// searches and the forward sweep), and each place gives one end: a search
/// in kForward reads head edges, one in kBackward tail edges.
std::vector<ArcEnds> AllArcEnds(const ContractionHierarchy& ch) {
  std::vector<ArcEnds> out;
  for (SearchDirection dir :
       {SearchDirection::kForward, SearchDirection::kBackward}) {
    const bool forward = dir == SearchDirection::kForward;
    const SearchDirection other =
        forward ? SearchDirection::kBackward : SearchDirection::kForward;
    const auto sweep = ch.SweepArcs(other);
    const auto sweep_ends = ch.SweepEnds(other);
    EXPECT_EQ(sweep.size(), sweep_ends.size());
    for (NodeId v = 0; v < ch.ranks().size(); ++v) {
      const auto arcs = ch.UpwardArcs(v, dir);
      const auto ends = ch.UpwardEnds(v, dir);
      EXPECT_EQ(arcs.size(), ends.size());
      for (size_t k = 0; k < arcs.size(); ++k) {
        const auto i = static_cast<size_t>(&arcs[k] - sweep.data());
        EXPECT_LT(i, sweep.size()) << "node " << v;
        if (i >= sweep.size()) continue;
        out.push_back({arcs[k], forward ? sweep_ends[i] : ends[k],
                       forward ? ends[k] : sweep_ends[i]});
      }
    }
  }
  EXPECT_EQ(out.size(), ch.num_arcs());
  return out;
}

/// Each arc's end edges leave its tail and enter its head. An arc whose two
/// ends are one edge is that original edge, at its weight; any other is a
/// path of two or more edges. Every original edge is an arc of its own
/// unless a lighter shortcut between its ends replaced it.
void ExpectEndEdgesFitTheArcs(const RoadNetwork& net,
                              std::span<const double> weights,
                              const ContractionHierarchy& ch,
                              const std::string& where) {
  std::vector<bool> own_arc(net.num_edges(), false);
  const std::vector<ArcEnds> all = AllArcEnds(ch);
  for (const ArcEnds& a : all) {
    ASSERT_LT(a.tail_edge, net.num_edges()) << where;
    ASSERT_LT(a.head_edge, net.num_edges()) << where;
    EXPECT_EQ(net.tail(a.tail_edge), a.arc.from) << where;
    EXPECT_EQ(net.head(a.head_edge), a.arc.to) << where;
    if (a.tail_edge == a.head_edge) {
      EXPECT_EQ(a.arc.weight, weights[a.tail_edge]) << where;
      own_arc[a.tail_edge] = true;
    } else {
      EXPECT_GE(a.arc.weight, weights[a.tail_edge] + weights[a.head_edge])
          << where;
    }
  }
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    if (own_arc[e]) continue;
    const bool replaced =
        std::any_of(all.begin(), all.end(), [&](const ArcEnds& a) {
          return a.arc.from == net.tail(e) && a.arc.to == net.head(e) &&
                 a.arc.weight < weights[e];
        });
    EXPECT_TRUE(replaced) << where << ": edge " << e << " has no arc";
  }
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
  Phast phast(BuildCh(net));
  std::vector<double> dist(net->num_nodes());
  for (SearchDirection dir :
       {SearchDirection::kForward, SearchDirection::kBackward}) {
    ASSERT_TRUE(phast.DistancesInto(3, dir, dist).ok());
    EXPECT_DOUBLE_EQ(dist[3], 0.0);
  }
}

TEST(ContractionHierarchyTest, UnreachableIsNotFound) {
  GraphBuilder builder;
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddEdge(1, 0, 10, 5);
  auto net = std::move(builder.Build()).ValueOrDie();
  Phast phast(BuildCh(net));
  std::vector<double> dist(net->num_nodes());
  ASSERT_TRUE(phast.DistancesInto(0, SearchDirection::kForward, dist).ok());
  EXPECT_EQ(dist[1], kInfCost);
  ASSERT_TRUE(phast.DistancesInto(1, SearchDirection::kBackward, dist).ok());
  EXPECT_EQ(dist[0], kInfCost);

  // Across two islands neither direction reaches the other island, while
  // the source's own island stays reachable.
  auto islands = testutil::TwoIslandNetwork(903, 40, 30);
  Phast island_phast(BuildCh(islands));
  dist.resize(islands->num_nodes());
  for (SearchDirection dir :
       {SearchDirection::kForward, SearchDirection::kBackward}) {
    ASSERT_TRUE(island_phast.DistancesInto(0, dir, dist).ok());
    EXPECT_EQ(dist[41], kInfCost);
    EXPECT_LT(dist[17], kInfCost);
    ASSERT_TRUE(island_phast.DistancesInto(41, dir, dist).ok());
    EXPECT_EQ(dist[0], kInfCost);
  }
}

class ChOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChOracleTest, PhastMatchesDijkstraTrees) {
  auto net = testutil::RandomConnectedNetwork(GetParam(), 120, 160);
  const auto weights = testutil::Weights(*net);
  Phast phast(BuildCh(net));
  Dijkstra dijkstra(*net);
  Rng rng(GetParam() + 3000);
  for (int q = 0; q < 50; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    ExpectPhastMatchesDijkstra(phast, dijkstra, weights, s,
                               SearchDirection::kForward);
    ExpectPhastMatchesDijkstra(phast, dijkstra, weights, t,
                               SearchDirection::kBackward);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChOracleTest,
                         ::testing::Values(71, 72, 73, 74, 75));

TEST(ContractionHierarchyTest, GridExhaustiveSmall) {
  auto net = testutil::GridNetwork(5, 5);
  const auto weights = testutil::Weights(*net);
  Phast phast(BuildCh(net));
  Dijkstra dijkstra(*net);
  for (NodeId s = 0; s < net->num_nodes(); ++s) {
    for (SearchDirection dir :
         {SearchDirection::kForward, SearchDirection::kBackward}) {
      ExpectPhastMatchesDijkstra(phast, dijkstra, weights, s, dir);
    }
  }
}

// A shortcut 0->2 via node 1 replaces the original 0->2 arc in place, so no
// arc carries that edge's weight any more. BuiltOver must still see it
// change: at 1 s, PHAST over this hierarchy would label node 2 at 2 s
// instead of 1 s.
TEST(ContractionHierarchyTest, BuiltOverChecksEdgesReplacedByShortcuts) {
  GraphBuilder builder;
  for (int i = 0; i < 3; ++i) builder.AddNode(LatLng(0, 0.01 * i));
  builder.AddEdge(0, 1, 10, 1);
  builder.AddEdge(1, 2, 10, 1);
  builder.AddEdge(0, 2, 10, 10);
  std::shared_ptr<RoadNetwork> net = std::move(builder.Build()).ValueOrDie();
  const std::vector<double> weights(net->travel_times().begin(),
                                    net->travel_times().end());
  const std::vector<uint32_t> ranks = {1, 0, 2};
  auto built = ContractionHierarchy::BuildInOrder(net, weights, ranks);
  ASSERT_TRUE(built.ok()) << built.status();
  std::shared_ptr<const ContractionHierarchy> ch = std::move(built).ValueOrDie();
  ASSERT_EQ(ch->num_shortcuts(), 0u);  // the shortcut took the 0->2 arc
  EXPECT_TRUE(ch->BuiltOver(weights));

  EdgeId direct = kInvalidEdge;
  for (EdgeId e = 0; e < net->num_edges(); ++e) {
    if (net->tail(e) == 0 && net->head(e) == 2) direct = e;
  }
  ASSERT_NE(direct, kInvalidEdge);
  for (double changed : {7.0, 1.0}) {
    std::vector<double> other = weights;
    other[direct] = changed;
    EXPECT_FALSE(ch->BuiltOver(other)) << changed;
  }
  EXPECT_FALSE(ch->BuiltOver(std::span<const double>(weights).first(2)));

  std::vector<double> other = weights;
  other[direct] = 1.0;
  std::vector<double> dist(net->num_nodes());
  ASSERT_TRUE(Phast(ch).DistancesInto(0, SearchDirection::kForward, dist).ok());
  EXPECT_EQ(dist[2], 2.0);
  auto rebuilt = ContractionHierarchy::BuildInOrder(net, other, ranks);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_TRUE((*rebuilt)->BuiltOver(other));
  ASSERT_TRUE(Phast(std::move(rebuilt).ValueOrDie())
                  .DistancesInto(0, SearchDirection::kForward, dist)
                  .ok());
  EXPECT_EQ(dist[2], 1.0);
}

// The same triangle: the shortcut 0->2 via 1 takes over the 0->2 arc, and
// with it the path's end edges, so PHAST's tree from 0 reaches 2 over 1->2.
TEST(ContractionHierarchyTest, ShortcutReplacingAParallelTakesItsEndEdges) {
  GraphBuilder builder;
  for (int i = 0; i < 3; ++i) builder.AddNode(LatLng(0, 0.01 * i));
  builder.AddEdge(0, 1, 10, 1);
  builder.AddEdge(1, 2, 10, 1);
  builder.AddEdge(0, 2, 10, 10);
  std::shared_ptr<RoadNetwork> net = std::move(builder.Build()).ValueOrDie();
  EdgeId u_v = kInvalidEdge, v_w = kInvalidEdge;
  for (EdgeId e = 0; e < net->num_edges(); ++e) {
    if (net->tail(e) == 0 && net->head(e) == 1) u_v = e;
    if (net->tail(e) == 1 && net->head(e) == 2) v_w = e;
  }
  ASSERT_NE(u_v, kInvalidEdge);
  ASSERT_NE(v_w, kInvalidEdge);
  const std::vector<double> weights = testutil::Weights(*net);
  const std::vector<uint32_t> ranks = {1, 0, 2};
  auto built = ContractionHierarchy::BuildInOrder(net, weights, ranks);
  ASSERT_TRUE(built.ok()) << built.status();
  std::shared_ptr<const ContractionHierarchy> ch = std::move(built).ValueOrDie();
  ASSERT_EQ(ch->num_shortcuts(), 0u);  // the shortcut took the 0->2 arc
  ExpectEndEdgesFitTheArcs(*net, weights, *ch, "triangle");

  int shortcuts = 0;
  for (const ArcEnds& a : AllArcEnds(*ch)) {
    if (a.arc.from != 0 || a.arc.to != 2) continue;
    ++shortcuts;
    EXPECT_EQ(a.arc.weight, 2.0);
    EXPECT_EQ(a.tail_edge, u_v);
    EXPECT_EQ(a.head_edge, v_w);
  }
  EXPECT_EQ(shortcuts, 1);

  ShortestPathTree tree;
  ASSERT_TRUE(Phast(ch).TreeInto(0, SearchDirection::kForward, &tree).ok());
  EXPECT_EQ(tree.dist[2], 2.0);
  EXPECT_EQ(tree.parent_edge[2], v_w);
  EXPECT_EQ(tree.parent_edge[1], u_v);
  testutil::ExpectConsistentParents(*net, weights, tree, "tree from 0");
}

// The hierarchies a study city serves: the display one, and the commercial
// weights contracted in its order.
TEST(ContractionHierarchyTest, StudyCityArcsKnowTheirEndEdges) {
  for (const char* city : {"melbourne", "dhaka", "copenhagen"}) {
    std::shared_ptr<const RoadNetwork> net = testutil::StudyCity(city, 0.2);
    const std::vector<double> display = FreeFlowModel().Weights(*net);
    const std::vector<double> commercial =
        CommercialTrafficModel(3).Weights(*net);
    auto display_ch = testutil::Hierarchy(net, display);
    auto commercial_ch =
        ContractionHierarchy::BuildInOrder(net, commercial, display_ch->ranks());
    ASSERT_TRUE(commercial_ch.ok()) << commercial_ch.status();
    EXPECT_GT(display_ch->num_shortcuts(), 0u) << city;
    ExpectEndEdgesFitTheArcs(*net, display, *display_ch,
                             std::string(city) + " display");
    ExpectEndEdgesFitTheArcs(*net, commercial, **commercial_ch,
                             std::string(city) + " commercial");
  }
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
  // Same ranks and same arcs: every label is the same, bit for bit.
  Phast want(ch);
  Phast got(std::move(again).ValueOrDie());
  std::vector<double> want_dist(net->num_nodes());
  std::vector<double> got_dist(net->num_nodes());
  Rng rng(904);
  for (int q = 0; q < 30; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    for (SearchDirection dir :
         {SearchDirection::kForward, SearchDirection::kBackward}) {
      ASSERT_TRUE(want.DistancesInto(s, dir, want_dist).ok());
      ASSERT_TRUE(got.DistancesInto(s, dir, got_dist).ok());
      EXPECT_EQ(got_dist, want_dist) << s;
    }
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
  Rng rng(905);
  for (int q = 0; q < 12; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    for (SearchDirection dir :
         {SearchDirection::kForward, SearchDirection::kBackward}) {
      ExpectPhastMatchesDijkstra(phast, dijkstra, commercial, s, dir,
                                 /*relative_tolerance=*/1e-9);
    }
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
