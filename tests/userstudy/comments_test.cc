#include "userstudy/comments.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {
namespace {

class CommentsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = testutil::GridNetwork(7, 7);
    auto suite = EngineSuite::MakePaperSuite(net_);
    ALT_CHECK(suite.ok());
    for (Approach a : kAllApproaches) {
      auto set = suite->engine(a).Generate(0, 48);
      ALT_CHECK(set.ok());
      sets_[static_cast<size_t>(a)] = std::move(set).ValueOrDie();
    }
  }

  Participant Someone(bool favourite = false, double familiarity = 0.7) {
    Participant p;
    p.has_favourite_route = favourite;
    p.familiarity = familiarity;
    return p;
  }

  std::shared_ptr<RoadNetwork> net_;
  std::array<AlternativeSet, kNumApproaches> sets_;
};

TEST_F(CommentsFixture, ZeroProbabilityNeverComments) {
  CommentOptions options;
  options.comment_probability = 0.0;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(MaybeGenerateComment(*net_, sets_, {3, 4, 3, 4}, Someone(),
                                      &rng, options)
                     .has_value());
  }
}

TEST_F(CommentsFixture, FavouriteMissingWhenCappedRatings) {
  CommentOptions options;
  options.comment_probability = 1.0;
  Rng rng(2);
  const auto comment = MaybeGenerateComment(
      *net_, sets_, {3, 2, 3, 2}, Someone(/*favourite=*/true), &rng, options);
  ASSERT_TRUE(comment.has_value());
  EXPECT_EQ(comment->theme, CommentTheme::kFavouriteMissing);
  EXPECT_FALSE(comment->text.empty());
}

// Which theme a comment picks depends on the route sets too: on this grid
// of ties, which equally short paths the trees keep decides whether a set
// holds near-identical routes. So the test asks over many seeds that equal
// ratings can yield the all-same theme and unequal ones never do.
TEST_F(CommentsFixture, UniformRatingsYieldAllSame) {
  CommentOptions options;
  options.comment_probability = 1.0;
  int all_same = 0;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Rng uniform_rng(seed);
    const auto uniform = MaybeGenerateComment(*net_, sets_, {4, 4, 4, 4},
                                              Someone(), &uniform_rng, options);
    if (uniform.has_value() && uniform->theme == CommentTheme::kAllSame) {
      ++all_same;
      EXPECT_NE(uniform->text.find("distinct from each other"),
                std::string::npos)
          << "seed " << seed;
    }
    Rng mixed_rng(seed);
    const auto mixed = MaybeGenerateComment(*net_, sets_, {3, 4, 3, 4},
                                            Someone(), &mixed_rng, options);
    EXPECT_FALSE(mixed.has_value() && mixed->theme == CommentTheme::kAllSame)
        << "seed " << seed;
  }
  EXPECT_GT(all_same, 0);
}

TEST_F(CommentsFixture, CommentsUseMaskedLabelsOnly) {
  CommentOptions options;
  options.comment_probability = 1.0;
  Rng rng(4);
  for (int trial = 0; trial < 60; ++trial) {
    std::array<int, kNumApproaches> ratings;
    for (int& r : ratings) r = 1 + static_cast<int>(rng.NextUint64(5));
    const auto comment = MaybeGenerateComment(
        *net_, sets_, ratings, Someone(rng.Bernoulli(0.3), rng.NextDouble()),
        &rng, options);
    if (!comment) continue;
    // The identities of the approaches must never leak into comments.
    EXPECT_EQ(comment->text.find("Plateau"), std::string::npos);
    EXPECT_EQ(comment->text.find("Google"), std::string::npos);
    EXPECT_EQ(comment->text.find("Penalty"), std::string::npos);
    EXPECT_EQ(comment->text.find("issimilarity"), std::string::npos);
  }
}

TEST_F(CommentsFixture, DeterministicGivenRngState) {
  CommentOptions options;
  options.comment_probability = 0.5;
  Rng a(5), b(5);
  for (int i = 0; i < 20; ++i) {
    const auto ca =
        MaybeGenerateComment(*net_, sets_, {2, 5, 3, 4}, Someone(), &a, options);
    const auto cb =
        MaybeGenerateComment(*net_, sets_, {2, 5, 3, 4}, Someone(), &b, options);
    ASSERT_EQ(ca.has_value(), cb.has_value());
    if (ca) {
      EXPECT_EQ(ca->text, cb->text);
    }
  }
}

TEST(CommentThemeTest, NamesAreStable) {
  EXPECT_EQ(CommentThemeName(CommentTheme::kZigZag), "zig_zag");
  EXPECT_EQ(CommentThemeName(CommentTheme::kFavouriteMissing),
            "favourite_missing");
  EXPECT_EQ(CommentThemeName(CommentTheme::kAllSame), "all_same");
}

}  // namespace
}  // namespace altroute
