#include "core/engine_registry.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "traffic/traffic_model.h"

namespace altroute {
namespace {

TEST(EngineRegistryTest, NamesAndLabelsMatchThePaper) {
  // Paper Sec. 3: "A: Google Maps, B: Plateaus, C: Dissimilarity, D: Penalty".
  EXPECT_EQ(ApproachName(Approach::kGoogleMaps), "Google Maps");
  EXPECT_EQ(ApproachName(Approach::kPlateaus), "Plateaus");
  EXPECT_EQ(ApproachName(Approach::kDissimilarity), "Dissimilarity");
  EXPECT_EQ(ApproachName(Approach::kPenalty), "Penalty");
  EXPECT_EQ(ApproachLabel(Approach::kGoogleMaps), 'A');
  EXPECT_EQ(ApproachLabel(Approach::kPlateaus), 'B');
  EXPECT_EQ(ApproachLabel(Approach::kDissimilarity), 'C');
  EXPECT_EQ(ApproachLabel(Approach::kPenalty), 'D');
}

TEST(EngineRegistryTest, SuiteBuildsAllFourEngines) {
  auto net = testutil::GridNetwork(6, 6);
  auto suite_or = EngineSuite::MakePaperSuite(net);
  ASSERT_TRUE(suite_or.ok());
  EngineSuite& suite = *suite_or;
  EXPECT_EQ(suite.engine(Approach::kGoogleMaps).name(), "commercial");
  EXPECT_EQ(suite.engine(Approach::kPlateaus).name(), "plateau_ch");
  EXPECT_EQ(suite.engine(Approach::kDissimilarity).name(), "dissimilarity");
  EXPECT_EQ(suite.engine(Approach::kPenalty).name(), "penalty_ch");
  // Given no hierarchy, the suite contracts the display weights itself.
  ASSERT_NE(suite.ch(), nullptr);
  EXPECT_EQ(&suite.ch()->network(), net.get());
  EXPECT_TRUE(suite.ch()->BuiltOver(FreeFlowModel().Weights(*net)));
}

TEST(EngineRegistryTest, OsmEnginesShareDisplayWeights) {
  auto net = testutil::GridNetwork(5, 5);
  auto suite = EngineSuite::MakePaperSuite(net);
  ASSERT_TRUE(suite.ok());
  EXPECT_EQ(suite->engine(Approach::kPlateaus).weights(),
            suite->display_weights());
  EXPECT_EQ(suite->engine(Approach::kPenalty).weights(),
            suite->display_weights());
  EXPECT_EQ(suite->engine(Approach::kDissimilarity).weights(),
            suite->display_weights());
  // The commercial engine must see different data.
  EXPECT_NE(suite->engine(Approach::kGoogleMaps).weights(),
            suite->display_weights());
}

TEST(EngineRegistryTest, AllEnginesAnswerTheSameQuery) {
  auto net = testutil::GridNetwork(6, 6);
  auto suite = EngineSuite::MakePaperSuite(net);
  ASSERT_TRUE(suite.ok());
  for (Approach a : kAllApproaches) {
    auto set = suite->engine(a).Generate(0, 35);
    ASSERT_TRUE(set.ok()) << ApproachName(a);
    EXPECT_FALSE(set->routes.empty()) << ApproachName(a);
    EXPECT_LE(set->routes.size(), 3u) << ApproachName(a);
  }
}

TEST(EngineRegistryTest, ChSuiteSelectsChBackedEngines) {
  auto net = testutil::GridNetwork(6, 6);
  auto ch_or = ContractionHierarchy::Build(net, FreeFlowModel().Weights(*net));
  ASSERT_TRUE(ch_or.ok());
  auto ch = std::move(ch_or).ValueOrDie();
  auto suite = EngineSuite::MakePaperSuite(net, {}, 3, nullptr, ch);
  ASSERT_TRUE(suite.ok()) << suite.status();
  EXPECT_EQ(suite->ch(), ch);
  EXPECT_EQ(suite->engine(Approach::kPlateaus).name(), "plateau_ch");
  EXPECT_EQ(suite->engine(Approach::kPenalty).name(), "penalty_ch");
  EXPECT_EQ(suite->engine(Approach::kGoogleMaps).name(), "commercial");
  EXPECT_EQ(suite->engine(Approach::kDissimilarity).name(), "dissimilarity");
  // Both pairs sweep a hierarchy: the display pair the given one, and
  // Commercial's pair one over its own weights in the display order.
  EXPECT_EQ(&suite->display_weights(), &ch->weights());
  EXPECT_EQ(suite->commercial_trees().weights(),
            CommercialTrafficModel(3).Weights(*net));
  for (Approach a : kAllApproaches) {
    EXPECT_TRUE(suite->engine(a).Generate(0, 35).ok()) << ApproachName(a);
  }
}

TEST(EngineRegistryTest, RejectsForeignHierarchy) {
  auto net = testutil::GridNetwork(5, 5);
  auto other = testutil::GridNetwork(5, 5);
  auto ch_or =
      ContractionHierarchy::Build(other, FreeFlowModel().Weights(*other));
  ASSERT_TRUE(ch_or.ok());
  EXPECT_TRUE(EngineSuite::MakePaperSuite(net, {}, 3, nullptr,
                                          std::move(ch_or).ValueOrDie())
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineRegistryTest, RejectsHierarchyOverOtherWeights) {
  // Same network, other weights: the engines would read labels no original
  // edge realises and lose routes silently.
  auto net = testutil::GridNetwork(5, 5);
  auto ch_or =
      ContractionHierarchy::Build(net, CommercialTrafficModel(3).Weights(*net));
  ASSERT_TRUE(ch_or.ok());
  const auto status = EngineSuite::MakePaperSuite(
                          net, {}, 3, nullptr, std::move(ch_or).ValueOrDie())
                          .status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status;
}

TEST(EngineRegistryTest, OsmEnginesShareOneTreePair) {
  auto net = testutil::GridNetwork(6, 6);
  auto suite = EngineSuite::MakePaperSuite(net);
  ASSERT_TRUE(suite.ok());
  // In request order, Plateaus builds both trees and the others read them.
  obs::SearchStats plateau, dissimilarity, penalty;
  ASSERT_TRUE(suite->engine(Approach::kPlateaus).Generate(0, 35, &plateau).ok());
  ASSERT_TRUE(suite->engine(Approach::kDissimilarity)
                  .Generate(0, 35, &dissimilarity)
                  .ok());
  ASSERT_TRUE(suite->engine(Approach::kPenalty).Generate(0, 35, &penalty).ok());
  EXPECT_EQ(plateau.trees_built, 2u);
  EXPECT_EQ(dissimilarity.trees_built, 0u);
  EXPECT_EQ(dissimilarity.nodes_settled, 0u);
  EXPECT_EQ(penalty.trees_built, 0u);
  // Asking again for a pair it has read starts a new request.
  obs::SearchStats again;
  ASSERT_TRUE(suite->engine(Approach::kPlateaus).Generate(0, 35, &again).ok());
  EXPECT_EQ(again.trees_built, 2u);
}

TEST(EngineRegistryTest, ReplicaSharesImmutableData) {
  auto net = testutil::GridNetwork(6, 6);
  auto ch_or = ContractionHierarchy::Build(net, FreeFlowModel().Weights(*net));
  ASSERT_TRUE(ch_or.ok());
  auto suite =
      EngineSuite::MakePaperSuite(net, {}, 3, nullptr, *std::move(ch_or));
  ASSERT_TRUE(suite.ok()) << suite.status();
  EngineSuite replica = suite->Replicate();
  EXPECT_EQ(replica.ch(), suite->ch());
  EXPECT_EQ(&replica.display_weights(), &suite->display_weights());
  for (Approach a : kAllApproaches) {
    // The same vectors, not copies of them.
    EXPECT_EQ(&replica.engine(a).weights(), &suite->engine(a).weights())
        << ApproachName(a);
    EXPECT_NE(&replica.engine(a), &suite->engine(a)) << ApproachName(a);
    auto got = replica.engine(a).Generate(0, 35);
    auto want = suite->engine(a).Generate(0, 35);
    ASSERT_TRUE(got.ok() && want.ok()) << ApproachName(a);
    ASSERT_EQ(got->routes.size(), want->routes.size()) << ApproachName(a);
    for (size_t i = 0; i < got->routes.size(); ++i) {
      EXPECT_TRUE(SameEdges(got->routes[i], want->routes[i])) << ApproachName(a);
    }
  }
  EXPECT_NE(&replica.display_trees(), &suite->display_trees());
  // Each replica sweeps the commercial hierarchy with a pair of its own.
  EXPECT_NE(&replica.commercial_trees(), &suite->commercial_trees());
}

TEST(EngineRegistryTest, RejectsBadInput) {
  EXPECT_TRUE(
      EngineSuite::MakePaperSuite(nullptr).status().IsInvalidArgument());
  GraphBuilder empty_builder;
  auto empty = std::move(empty_builder.Build()).ValueOrDie();
  EXPECT_TRUE(EngineSuite::MakePaperSuite(empty).status().IsInvalidArgument());
}

}  // namespace
}  // namespace altroute
