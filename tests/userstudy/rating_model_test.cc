#include "userstudy/rating_model.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {
namespace {

class RatingModelFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = testutil::GridNetwork(6, 6);
    weights_ = testutil::Weights(*net_);
    auto suite = EngineSuite::MakePaperSuite(net_);
    ALT_CHECK(suite.ok());
    for (Approach a : kAllApproaches) {
      auto set = suite->engine(a).Generate(0, 35);
      ALT_CHECK(set.ok());
      sets_[static_cast<size_t>(a)] = std::move(set).ValueOrDie();
    }
  }

  Participant Resident() {
    Participant p;
    p.melbourne_resident = true;
    p.familiarity = 0.9;
    p.noise_sd = 1.0;
    return p;
  }

  std::shared_ptr<RoadNetwork> net_;
  std::vector<double> weights_;
  std::array<AlternativeSet, kNumApproaches> sets_;
};

TEST_F(RatingModelFixture, RatingsAreInRange) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    Participant p = Resident();
    p.leniency = rng.Gaussian(0, 1.5);
    p.noise_sd = rng.Uniform(0.5, 2.0);
    const auto ratings = RateAllApproaches(*net_, sets_, weights_, p, &rng);
    for (int r : ratings) {
      EXPECT_GE(r, 1);
      EXPECT_LE(r, 5);
    }
  }
}

TEST_F(RatingModelFixture, DeterministicGivenRngState) {
  Rng a(5), b(5);
  const Participant p = Resident();
  EXPECT_EQ(RateAllApproaches(*net_, sets_, weights_, p, &a),
            RateAllApproaches(*net_, sets_, weights_, p, &b));
}

TEST_F(RatingModelFixture, PerceivedQualityDecreasesWithHeadlineStretch) {
  const Participant p = Resident();
  // Build a degraded copy of a set whose headline route looks 30% slower.
  const AlternativeSet& good = sets_[1];
  const double opt = CostUnder(good.routes[0], weights_);
  const double q_good = PerceivedQuality(*net_, good, weights_, opt, p);
  const double q_bad = PerceivedQuality(*net_, good, weights_, opt / 1.3, p);
  EXPECT_GT(q_good, q_bad);
}

TEST_F(RatingModelFixture, LenientParticipantsScoreHigher) {
  Participant generous = Resident();
  generous.leniency = 1.0;
  Participant harsh = Resident();
  harsh.leniency = -1.0;
  const double opt = CostUnder(sets_[1].routes[0], weights_);
  EXPECT_GT(PerceivedQuality(*net_, sets_[1], weights_, opt, generous),
            PerceivedQuality(*net_, sets_[1], weights_, opt, harsh));
}

TEST_F(RatingModelFixture, NonResidentsAreMoreSkeptical) {
  Participant resident = Resident();
  Participant tourist = Resident();
  tourist.melbourne_resident = false;
  tourist.familiarity = 0.1;
  const double opt = CostUnder(sets_[1].routes[0], weights_);
  EXPECT_GT(PerceivedQuality(*net_, sets_[1], weights_, opt, resident),
            PerceivedQuality(*net_, sets_[1], weights_, opt, tourist));
}

TEST_F(RatingModelFixture, EmptySetGetsTheFloor) {
  AlternativeSet empty;
  const Participant p = Resident();
  EXPECT_DOUBLE_EQ(PerceivedQuality(*net_, empty, weights_, 100.0, p), 1.0);
}

TEST_F(RatingModelFixture, FavouriteRouteBiasCapsRatings) {
  // With favourite_miss_prob = 1 and a favourite-route participant, every
  // rating is capped at 3 (before noise); with zero noise, never above 3.
  RatingModelParams params;
  params.favourite_miss_prob = 1.0;
  Participant p = Resident();
  p.has_favourite_route = true;
  p.noise_sd = 1e-9;
  Rng rng(3);
  const auto ratings =
      RateAllApproaches(*net_, sets_, weights_, p, &rng, params);
  for (int r : ratings) {
    EXPECT_LE(r, 3);
  }
}

TEST_F(RatingModelFixture, MissingAlternativesArePenalised) {
  // Dissimilarity's set, which holds alternatives on this grid whichever
  // of its equally short paths the trees keep.
  AlternativeSet full = sets_[static_cast<size_t>(Approach::kDissimilarity)];
  ASSERT_GE(full.routes.size(), 2u);
  AlternativeSet only_one = full;
  only_one.routes.resize(1);
  const Participant p = Resident();
  const double opt = CostUnder(full.routes[0], weights_);
  EXPECT_GT(PerceivedQuality(*net_, full, weights_, opt, p),
            PerceivedQuality(*net_, only_one, weights_, opt, p));
}

}  // namespace
}  // namespace altroute
