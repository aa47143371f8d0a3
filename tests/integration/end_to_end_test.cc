// Cross-module integration tests: synthetic city -> constructor -> engine
// suite -> study -> tables/export, plus cross-engine consistency properties
// on a realistic network.
#include <gtest/gtest.h>

#include <sstream>

#include "citygen/city_generator.h"
#include "core/engine_registry.h"
#include "core/quality.h"
#include "core/skyline.h"
#include "core/yen_overlap.h"
#include "routing/contraction_hierarchy.h"
#include "routing/phast.h"
#include "userstudy/export.h"
#include "userstudy/tables.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/random.h"

namespace altroute {
namespace {

class EndToEndFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto net = citygen::BuildCityNetwork(
        citygen::Scaled(citygen::CopenhagenSpec(), 0.3));
    ALT_CHECK(net.ok());
    net_ = new std::shared_ptr<RoadNetwork>(std::move(net).ValueOrDie());
  }
  static void TearDownTestSuite() { delete net_; }

  static std::shared_ptr<RoadNetwork>* net_;
};

std::shared_ptr<RoadNetwork>* EndToEndFixture::net_ = nullptr;

TEST_F(EndToEndFixture, AllEnginesAgreeOnTheOptimalOsmCost) {
  // The three OSM-based engines search the same weights, so their first
  // routes must have identical cost (the optimum), even if tie-broken paths
  // differ.
  auto suite = EngineSuite::MakePaperSuite(*net_);
  ASSERT_TRUE(suite.ok());
  Rng rng(9);
  for (int q = 0; q < 10; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64((*net_)->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64((*net_)->num_nodes()));
    if (s == t) continue;
    auto plateau = suite->engine(Approach::kPlateaus).Generate(s, t);
    auto dis = suite->engine(Approach::kDissimilarity).Generate(s, t);
    auto pen = suite->engine(Approach::kPenalty).Generate(s, t);
    ASSERT_TRUE(plateau.ok() && dis.ok() && pen.ok());
    EXPECT_NEAR(plateau->optimal_cost, dis->optimal_cost, 1e-6);
    EXPECT_NEAR(plateau->optimal_cost, pen->optimal_cost, 1e-6);
  }
}

TEST_F(EndToEndFixture, ExtensionEnginesMatchOptimalCostToo) {
  const std::vector<double> weights((*net_)->travel_times().begin(),
                                    (*net_)->travel_times().end());
  SkylineGenerator skyline(*net_, weights);
  YenOverlapGenerator yen_overlap(*net_, weights);
  Dijkstra dijkstra(**net_);
  Rng rng(10);
  for (int q = 0; q < 5; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64((*net_)->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64((*net_)->num_nodes()));
    if (s == t) continue;
    auto sp = dijkstra.ShortestPath(s, t, weights);
    ASSERT_TRUE(sp.ok());
    auto sky = skyline.Generate(s, t);
    auto yol = yen_overlap.Generate(s, t);
    ASSERT_TRUE(sky.ok() && yol.ok());
    EXPECT_NEAR(sky->routes[0].cost, sp->cost, 1e-6);
    EXPECT_NEAR(yol->routes[0].cost, sp->cost, 1e-6);
  }
}

TEST_F(EndToEndFixture, ChAgreesWithDijkstraOnCityNetwork) {
  auto ch = ContractionHierarchy::Build(*net_, (*net_)->travel_times());
  ASSERT_TRUE(ch.ok());
  Phast phast(std::move(ch).ValueOrDie());
  Dijkstra dijkstra(**net_);
  std::vector<double> dist((*net_)->num_nodes());
  Rng rng(11);
  for (int q = 0; q < 30; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64((*net_)->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64((*net_)->num_nodes()));
    for (const auto& [root, dir] :
         {std::pair{s, SearchDirection::kForward},
          std::pair{t, SearchDirection::kBackward}}) {
      ASSERT_TRUE(phast.DistancesInto(root, dir, dist).ok());
      auto tree = dijkstra.BuildTree(root, (*net_)->travel_times(), dir);
      ASSERT_TRUE(tree.ok());
      for (NodeId v = 0; v < dist.size(); ++v) {
        if (tree->dist[v] == kInfCost) {
          EXPECT_EQ(dist[v], kInfCost) << root << " node " << v;
        } else {
          EXPECT_NEAR(dist[v], tree->dist[v], 1e-6) << root << " node " << v;
        }
      }
    }
  }
}

TEST_F(EndToEndFixture, StudyToCsvAndBackPreservesTables) {
  StudyConfig config;
  config.num_residents = 20;
  config.num_nonresidents = 10;
  config.resident_bucket_quota = {8, 8, 4};
  config.nonresident_bucket_quota = {4, 4, 2};
  config.seed = 77;
  StudyRunner runner(*net_, config);
  auto results = runner.Run();
  ASSERT_TRUE(results.ok());

  std::stringstream buffer;
  ASSERT_TRUE(ExportStudyCsv(*results, buffer).ok());
  auto loaded = ImportStudyCsv(buffer);
  ASSERT_TRUE(loaded.ok());

  const auto original_rows = Table1Rows(*results);
  const auto loaded_rows = Table1Rows(*loaded);
  ASSERT_EQ(original_rows.size(), loaded_rows.size());
  for (size_t i = 0; i < original_rows.size(); ++i) {
    for (int a = 0; a < kNumApproaches; ++a) {
      EXPECT_NEAR(loaded_rows[i].mean[static_cast<size_t>(a)],
                  original_rows[i].mean[static_cast<size_t>(a)], 1e-9);
    }
    EXPECT_EQ(loaded_rows[i].num_responses, original_rows[i].num_responses);
  }

  auto anova_orig = StudyAnova(*results);
  auto anova_loaded = StudyAnova(*loaded);
  ASSERT_TRUE(anova_orig.ok() && anova_loaded.ok());
  EXPECT_NEAR(anova_loaded->p_value, anova_orig->p_value, 1e-12);
}

TEST_F(EndToEndFixture, AlternativesAreHighQualityOnCityNetworks) {
  // Sanity on realistic topology: sets contain >= 2 routes for long trips
  // and alternatives are not wildly detoured.
  auto suite = EngineSuite::MakePaperSuite(*net_);
  ASSERT_TRUE(suite.ok());
  Rng rng(12);
  int multi_route_sets = 0, total_sets = 0;
  for (int q = 0; q < 12; ++q) {
    const auto s = static_cast<NodeId>(rng.NextUint64((*net_)->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64((*net_)->num_nodes()));
    if (s == t ||
        HaversineMeters((*net_)->coord(s), (*net_)->coord(t)) < 2500.0) {
      continue;
    }
    for (Approach a : kAllApproaches) {
      auto set = suite->engine(a).Generate(s, t);
      ASSERT_TRUE(set.ok());
      ++total_sets;
      if (set->routes.size() >= 2) ++multi_route_sets;
      const RouteSetQuality quality = ComputeRouteSetQuality(
          **net_, set->routes, set->optimal_cost,
          suite->engine(a).weights());
      EXPECT_LE(quality.max_stretch, 1.6);  // commercial bound is 1.4 + slack
    }
  }
  ASSERT_GT(total_sets, 0);
  EXPECT_GT(multi_route_sets, total_sets / 2);
}

}  // namespace
}  // namespace altroute
