#include "core/similarity.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "graph/graph_builder.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {
namespace {

class SimilarityFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = testutil::GridNetwork(3, 4);  // nodes r*4+c
    weights_ = testutil::Weights(*net_);
  }

  Path Make(const std::vector<NodeId>& nodes) {
    std::vector<EdgeId> edges;
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      const EdgeId e = net_->FindEdge(nodes[i], nodes[i + 1]);
      ALT_CHECK(e != kInvalidEdge);
      edges.push_back(e);
    }
    auto p = MakePath(*net_, nodes.front(), nodes.back(), std::move(edges),
                      weights_);
    ALT_CHECK(p.ok());
    return std::move(p).ValueOrDie();
  }

  std::shared_ptr<RoadNetwork> net_;
  std::vector<double> weights_;
};

TEST_F(SimilarityFixture, IdenticalPathsFullyOverlap) {
  const Path p = Make({0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(SharedLengthMeters(*net_, p, p), p.length_m);
  for (auto m : {SimilarityMeasure::kOverlapOverShorter,
                 SimilarityMeasure::kJaccardByLength,
                 SimilarityMeasure::kOverlapOverCandidate}) {
    EXPECT_DOUBLE_EQ(Similarity(*net_, p, p, m), 1.0);
  }
}

TEST_F(SimilarityFixture, DisjointPathsHaveZeroSimilarity) {
  const Path top = Make({0, 1, 2, 3});
  const Path bottom = Make({8, 9, 10, 11});
  EXPECT_DOUBLE_EQ(SharedLengthMeters(*net_, top, bottom), 0.0);
  EXPECT_DOUBLE_EQ(Similarity(*net_, top, bottom), 0.0);
}

TEST_F(SimilarityFixture, ReverseDirectionCountsAsSameStreet) {
  const Path forward = Make({0, 1, 2});
  const Path backward = Make({2, 1, 0});
  EXPECT_DOUBLE_EQ(SharedLengthMeters(*net_, forward, backward),
                   forward.length_m);
}

TEST_F(SimilarityFixture, PartialOverlapMeasuredByLength) {
  const Path a = Make({0, 1, 2, 3});      // 3 hops on the top row
  const Path b = Make({0, 1, 2, 6});      // shares 2 hops
  const double shared = SharedLengthMeters(*net_, a, b);
  EXPECT_NEAR(shared, 2.0 / 3.0 * a.length_m, 1e-9);
  EXPECT_NEAR(Similarity(*net_, a, b, SimilarityMeasure::kOverlapOverShorter),
              2.0 / 3.0, 1e-9);
  // Jaccard: shared / (len_a + len_b - shared) = 2 / 4.
  EXPECT_NEAR(Similarity(*net_, a, b, SimilarityMeasure::kJaccardByLength),
              0.5, 1e-9);
  // Candidate measure: shared / len(candidate a) = 2/3.
  EXPECT_NEAR(Similarity(*net_, a, b, SimilarityMeasure::kOverlapOverCandidate),
              2.0 / 3.0, 1e-9);
}

TEST_F(SimilarityFixture, EmptyPathEdgeCases) {
  const Path p = Make({0, 1});
  Path empty;
  empty.source = empty.target = 0;
  EXPECT_DOUBLE_EQ(Similarity(*net_, empty, p), 0.0);
  EXPECT_DOUBLE_EQ(Similarity(*net_, empty, empty), 1.0);
}

TEST_F(SimilarityFixture, DissimilarityToEmptySetIsOne) {
  const Path p = Make({0, 1, 2});
  EXPECT_DOUBLE_EQ(DissimilarityToSet(*net_, p, {}), 1.0);
}

TEST_F(SimilarityFixture, DissimilarityIsMinOverSet) {
  const Path cand = Make({0, 1, 2, 3});
  const std::vector<Path> accepted = {Make({8, 9, 10, 11}),  // disjoint: dis 1
                                      Make({0, 1, 5, 6})};   // shares 1 of 3
  const double dis = DissimilarityToSet(*net_, cand, accepted);
  EXPECT_NEAR(dis, 1.0 - 1.0 / 3.0, 1e-9);
}

TEST_F(SimilarityFixture, ThresholdSemanticsMatchPaper) {
  // theta = 0.5: a candidate sharing more than half its length with an
  // accepted path must be rejected by the dissimilarity generator's test.
  const Path accepted = Make({0, 1, 2, 3});
  const Path too_similar = Make({0, 1, 2, 6});   // shares 2/3 of its length
  const Path ok = Make({0, 4, 5, 6, 7});         // shares 0
  const std::vector<Path> set = {accepted};
  EXPECT_LT(DissimilarityToSet(*net_, too_similar, set), 0.5);
  EXPECT_GT(DissimilarityToSet(*net_, ok, set), 0.5);
}

TEST_F(SimilarityFixture, StreetDrivenTwiceByTheLargerPathCountsOnce) {
  // `large` drives the street {0, 1} twice (1->0, then 0->1); the first of
  // its edges on the street is counted, the second is not.
  const Path small = Make({0, 1});
  const Path large = Make({1, 0, 1, 2});
  const double first_pass = net_->length_m(net_->FindEdge(1, 0));
  EXPECT_EQ(SharedLengthMeters(*net_, small, large), first_pass);
  EXPECT_EQ(SharedLengthMeters(*net_, large, small), first_pass);
}

TEST(SimilarityTest, ParallelEdgesSumTheLargerPathsLength) {
  // Two parallel edges 0->1 of different length, then 1->2.
  GraphBuilder builder("parallel");
  builder.set_keep_parallel_edges(true);
  builder.AddNode(LatLng(0, 0));
  builder.AddNode(LatLng(0, 0.01));
  builder.AddNode(LatLng(0, 0.02));
  builder.AddEdge(0, 1, 100.0, 10.0);
  builder.AddEdge(0, 1, 150.0, 12.0);
  builder.AddEdge(1, 2, 80.0, 8.0);
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status();
  const RoadNetwork& net = **built;
  EdgeId short_edge = kInvalidEdge;
  EdgeId long_edge = kInvalidEdge;
  for (EdgeId e : net.OutEdges(0)) {
    if (net.length_m(e) == 100.0) {
      short_edge = e;
    } else {
      long_edge = e;
    }
  }
  ASSERT_NE(short_edge, kInvalidEdge);
  ASSERT_NE(long_edge, kInvalidEdge);
  const EdgeId last = net.FindEdge(1, 2);
  const auto make = [&](std::vector<EdgeId> edges) {
    const NodeId target = net.head(edges.back());
    auto p = MakePath(net, 0, target, std::move(edges), net.travel_times());
    ALT_CHECK(p.ok()) << p.status();
    return std::move(p).ValueOrDie();
  };

  // The path with more edges is summed, whichever argument it is.
  const Path one_short = make({short_edge});
  const Path two_long = make({long_edge, last});
  EXPECT_EQ(SharedLengthMeters(net, one_short, two_long), 150.0);
  EXPECT_EQ(SharedLengthMeters(net, two_long, one_short), 150.0);
  // On a tie in edge count the second argument is summed.
  const Path two_short = make({short_edge, last});
  EXPECT_EQ(SharedLengthMeters(net, two_short, two_long), 150.0 + 80.0);
  EXPECT_EQ(SharedLengthMeters(net, two_long, two_short), 100.0 + 80.0);
}

}  // namespace
}  // namespace altroute
