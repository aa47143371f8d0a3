// Work accounting of one /route request. Plateaus, Dissimilarity and Penalty
// share one tree pair over the display weights, so a request runs 4
// one-to-all searches, all PHAST sweeps: 2 on the display weights (charged
// to plateau_ch, which runs first) and 2 on the commercial weights, over the
// commercial hierarchy contracted in the display order (charged to
// commercial). QueryProcessor::Process must charge each engine exactly what
// direct Generate calls in A-D order on a suite of their own charge: the
// benchmark's traced replay checks the server's counters against such
// calls.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "citygen/city_generator.h"
#include "core/penalty.h"
#include "routing/contraction_hierarchy.h"
#include "routing/phast.h"
#include "server/query_processor.h"
#include "traffic/traffic_model.h"
#include "util/check.h"
#include "util/random.h"

namespace altroute {
namespace {

std::shared_ptr<RoadNetwork> StudyCity(const std::string& city) {
  citygen::CitySpec spec = citygen::CopenhagenSpec();
  if (city == "melbourne") spec = citygen::MelbourneSpec();
  if (city == "dhaka") spec = citygen::DhakaSpec();
  auto net = citygen::BuildCityNetwork(citygen::Scaled(spec, 0.2));
  ALT_CHECK(net.ok()) << net.status();
  return std::move(net).ValueOrDie();
}

void ExpectSameStats(const obs::SearchStats& got, const obs::SearchStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.nodes_settled, want.nodes_settled) << where;
  EXPECT_EQ(got.edges_relaxed, want.edges_relaxed) << where;
  EXPECT_EQ(got.heap_pushes, want.heap_pushes) << where;
  EXPECT_EQ(got.heap_pops, want.heap_pops) << where;
  EXPECT_EQ(got.paths_generated, want.paths_generated) << where;
  EXPECT_EQ(got.paths_rejected_stretch, want.paths_rejected_stretch) << where;
  EXPECT_EQ(got.paths_rejected_similarity, want.paths_rejected_similarity)
      << where;
  EXPECT_EQ(got.paths_rejected_filter, want.paths_rejected_filter) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(got.trees_built, want.trees_built) << where;
}

class RequestWorkTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RequestWorkTest, ProcessChargesWorkLikeDirectCalls) {
  auto net = StudyCity(GetParam());
  auto display = std::make_shared<const std::vector<double>>(
      FreeFlowModel().Weights(*net));
  auto ch_or = ContractionHierarchy::Build(net, *display);
  ASSERT_TRUE(ch_or.ok()) << ch_or.status();
  const auto ch = std::move(ch_or).ValueOrDie();
  auto served = EngineSuite::MakePaperSuite(net, {}, 3, display, ch);
  auto direct = EngineSuite::MakePaperSuite(net, {}, 3, display, ch);
  ASSERT_TRUE(served.ok() && direct.ok());
  QueryProcessor processor(std::move(served).ValueOrDie());
  EXPECT_EQ(direct->engine(Approach::kPlateaus).name(), "plateau_ch");
  EXPECT_EQ(direct->engine(Approach::kPenalty).name(), "penalty_ch");

  // Penalty with a private pair, and the backward sweep alone, to split
  // penalty_ch's work into its sweep and its A* searches.
  PenaltyGenerator private_penalty(net, *display, ch);
  Phast phast(ch);
  std::vector<double> sweep_dist(net->num_nodes());
  // The commercial hierarchy as MakePaperSuite builds it, to recount
  // commercial's two sweeps.
  auto commercial_ch = ContractionHierarchy::BuildInOrder(
      net, CommercialTrafficModel(3).Weights(*net), ch->ranks());
  ASSERT_TRUE(commercial_ch.ok()) << commercial_ch.status();
  Phast commercial_phast(std::move(commercial_ch).ValueOrDie());

  // Seeded ODs with a route between them.
  std::vector<std::pair<NodeId, NodeId>> ods;
  Dijkstra dijkstra(*net);
  Rng rng(2022);
  while (ods.size() < 8) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s != t && dijkstra.ShortestPath(s, t, *display).ok()) {
      ods.emplace_back(s, t);
    }
  }
  ods.insert(ods.begin() + 4, ods[3]);  // the same OD twice in a row

  for (size_t i = 0; i < ods.size(); ++i) {
    const LatLng src = net->coord(ods[i].first);
    const LatLng dst = net->coord(ods[i].second);
    if (i == 2) {
      // A single-engine request between two /route requests: Penalty alone
      // builds just the backward sweep, Dissimilarity alone both trees.
      obs::SearchStats penalty_only, dissimilarity_only;
      ASSERT_TRUE(processor
                      .GenerateFor(src, dst, Approach::kPenalty, &penalty_only)
                      .ok());
      EXPECT_EQ(penalty_only.trees_built, 1u);
      ASSERT_TRUE(processor
                      .GenerateFor(src, dst, Approach::kDissimilarity,
                                   &dissimilarity_only)
                      .ok());
      EXPECT_EQ(dissimilarity_only.trees_built, 2u);
    }
    auto response = processor.Process(src, dst);
    ASSERT_TRUE(response.ok()) << response.status();
    const NodeId s = response->snapped_source;
    const NodeId t = response->snapped_target;
    ASSERT_EQ(response->approaches.size(), kAllApproaches.size());
    uint64_t trees = 0;
    for (Approach a : kAllApproaches) {
      AlternativeRouteGenerator& engine = direct->engine(a);
      obs::SearchStats want;
      ASSERT_TRUE(engine.Generate(s, t, &want).ok());
      const ApproachDisplay& got =
          response->approaches[static_cast<size_t>(a)];
      const std::string where = GetParam() + " request " + std::to_string(i) +
                                " " + engine.name();
      EXPECT_EQ(got.status, "ok") << where << ": " << got.message;
      EXPECT_EQ(got.engine_name, engine.name()) << where;
      ExpectSameStats(got.stats, want, where);
      trees += got.stats.trees_built;
    }
    const auto& by = response->approaches;
    const std::string where = GetParam() + " request " + std::to_string(i);
    // 4 one-to-all searches where 7 were run before the pair was shared.
    EXPECT_EQ(trees, 4u) << where;
    EXPECT_EQ(by[0].stats.trees_built, 2u) << where;  // commercial sweeps
    EXPECT_EQ(by[1].stats.trees_built, 2u) << where;  // plateau_ch sweeps
    obs::SearchStats commercial_sweeps;
    ASSERT_TRUE(commercial_phast
                    .DistancesInto(s, SearchDirection::kForward, sweep_dist,
                                   &commercial_sweeps)
                    .ok());
    ASSERT_TRUE(commercial_phast
                    .DistancesInto(t, SearchDirection::kBackward, sweep_dist,
                                   &commercial_sweeps)
                    .ok());
    EXPECT_EQ(by[0].stats.nodes_settled, commercial_sweeps.nodes_settled)
        << where;
    EXPECT_EQ(by[0].stats.edges_relaxed, commercial_sweeps.edges_relaxed)
        << where;
    EXPECT_EQ(by[2].stats.nodes_settled, 0u) << where;
    EXPECT_EQ(by[2].stats.edges_relaxed, 0u) << where;
    obs::SearchStats with_sweep, sweep;
    ASSERT_TRUE(private_penalty.Generate(s, t, &with_sweep).ok());
    ASSERT_TRUE(phast
                    .DistancesInto(t, SearchDirection::kBackward, sweep_dist,
                                   &sweep)
                    .ok());
    EXPECT_EQ(by[3].stats.nodes_settled,
              with_sweep.nodes_settled - sweep.nodes_settled)
        << where;
    EXPECT_EQ(by[3].stats.edges_relaxed,
              with_sweep.edges_relaxed - sweep.edges_relaxed)
        << where;
  }
  EXPECT_EQ(direct->display_trees().demotions(), 0u);
  EXPECT_EQ(direct->commercial_trees().demotions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Cities, RequestWorkTest,
                         ::testing::Values("melbourne", "dhaka", "copenhagen"));

}  // namespace
}  // namespace altroute
