#include "server/rating_store.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

namespace altroute {
namespace {

RatingSubmission Submission(int a, int b, int c, int d, bool resident = true,
                            std::string comment = "") {
  RatingSubmission s;
  s.ratings = {a, b, c, d};
  s.melbourne_resident = resident;
  s.comment = std::move(comment);
  return s;
}

TEST(RatingStoreTest, AddAndSnapshot) {
  RatingStore store;
  EXPECT_EQ(store.size(), 0u);
  ASSERT_TRUE(store.Add(Submission(3, 4, 5, 2)).ok());
  ASSERT_TRUE(store.Add(Submission(1, 1, 1, 1, false)).ok());
  EXPECT_EQ(store.size(), 2u);
  const auto all = store.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].ratings[2], 5);
  EXPECT_FALSE(all[1].melbourne_resident);
}

TEST(RatingStoreTest, RejectsOutOfRangeRatings) {
  RatingStore store;
  EXPECT_TRUE(store.Add(Submission(0, 3, 3, 3)).IsInvalidArgument());
  EXPECT_TRUE(store.Add(Submission(3, 6, 3, 3)).IsInvalidArgument());
  EXPECT_TRUE(store.Add(Submission(3, -1, 3, 3)).IsInvalidArgument());
  EXPECT_EQ(store.size(), 0u);
}

TEST(RatingStoreTest, MeanRatings) {
  RatingStore store;
  EXPECT_EQ(store.MeanRatings(), (std::array<double, 4>{0, 0, 0, 0}));
  store.Add(Submission(2, 4, 3, 5)).ok();
  store.Add(Submission(4, 2, 3, 1)).ok();
  const auto means = store.MeanRatings();
  EXPECT_DOUBLE_EQ(means[0], 3.0);
  EXPECT_DOUBLE_EQ(means[1], 3.0);
  EXPECT_DOUBLE_EQ(means[2], 3.0);
  EXPECT_DOUBLE_EQ(means[3], 3.0);
}

TEST(RatingStoreTest, CsvExportEscapesQuotes) {
  RatingStore store;
  store.Add(Submission(3, 4, 4, 5, true, "less \"zig-zag\" is better")).ok();
  std::ostringstream out;
  ASSERT_TRUE(store.ExportCsv(out).ok());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("A,B,C,D,resident,comment"), std::string::npos);
  EXPECT_NE(csv.find("3,4,4,5,1,\"less \"\"zig-zag\"\" is better\""),
            std::string::npos);
}

TEST(RatingStoreTest, ConcurrentAddsAreAllRecorded) {
  RatingStore store;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&store] {
      for (int j = 0; j < kPerThread; ++j) {
        ASSERT_TRUE(store.Add(Submission(3, 3, 3, 3)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST(RatingJsonLineTest, RoundTripsEscapedComment) {
  const RatingSubmission original =
      Submission(1, 2, 3, 4, true, "line\nbreak, \"quote\" and \\slash\\");
  const std::string line = RatingSubmissionToJsonLine(original);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one record per line
  auto parsed = ParseRatingSubmissionJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ratings, original.ratings);
  EXPECT_EQ(parsed->melbourne_resident, original.melbourne_resident);
  EXPECT_EQ(parsed->comment, original.comment);
}

TEST(RatingJsonLineTest, RejectsMalformedRecords) {
  EXPECT_FALSE(ParseRatingSubmissionJsonLine("").ok());
  EXPECT_FALSE(ParseRatingSubmissionJsonLine("{}").ok());
  EXPECT_FALSE(ParseRatingSubmissionJsonLine("not json at all").ok());
  // Truncated mid-write, as a crash would leave it.
  const std::string full = RatingSubmissionToJsonLine(Submission(3, 4, 4, 5));
  for (size_t cut : {full.size() - 1, full.size() / 2, size_t{5}}) {
    EXPECT_FALSE(ParseRatingSubmissionJsonLine(full.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  // Structurally valid but out-of-range ratings are rejected on replay too.
  EXPECT_FALSE(ParseRatingSubmissionJsonLine(
                   "{\"ratings\":[9,4,4,5],\"resident\":true,\"comment\":\"\"}")
                   .ok());
  // Exactly four integral ratings.
  EXPECT_FALSE(ParseRatingSubmissionJsonLine(
                   "{\"ratings\":[3,4,4],\"resident\":true,\"comment\":\"\"}")
                   .ok());
  EXPECT_FALSE(ParseRatingSubmissionJsonLine(
                   "{\"ratings\":[3.5,4,4,5],\"resident\":true,\"comment\":\"\"}")
                   .ok());
  EXPECT_FALSE(ParseRatingSubmissionJsonLine(
                   "{\"ratings\":[\"3\",4,4,5],\"resident\":true,\"comment\":\"\"}")
                   .ok());
}

class RatingStorePersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/altroute_ratings_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(RatingStorePersistenceTest, SubmissionsSurviveRestart) {
  {
    RatingStore store;
    ASSERT_TRUE(store.AttachFile(path_).ok());
    ASSERT_TRUE(store.Add(Submission(3, 4, 4, 5, true, "less zigzag")).ok());
    ASSERT_TRUE(store.Add(Submission(1, 2, 3, 4, false)).ok());
    // No clean shutdown hook runs: Add() must already have flushed.
  }
  RatingStore reloaded;
  ASSERT_TRUE(reloaded.AttachFile(path_).ok());
  EXPECT_EQ(reloaded.corrupt_lines_recovered(), 0u);
  ASSERT_EQ(reloaded.size(), 2u);
  const auto all = reloaded.Snapshot();
  EXPECT_EQ(all[0].comment, "less zigzag");
  EXPECT_TRUE(all[0].melbourne_resident);
  EXPECT_EQ(all[1].ratings, (std::array<int, 4>{1, 2, 3, 4}));
  EXPECT_FALSE(all[1].melbourne_resident);
  // And the reloaded store keeps appending to the same log.
  ASSERT_TRUE(reloaded.Add(Submission(5, 5, 5, 5)).ok());
  RatingStore again;
  ASSERT_TRUE(again.AttachFile(path_).ok());
  EXPECT_EQ(again.size(), 3u);
}

TEST_F(RatingStorePersistenceTest, ToleratesTornTrailingLineAfterKill) {
  {
    RatingStore store;
    ASSERT_TRUE(store.AttachFile(path_).ok());
    ASSERT_TRUE(store.Add(Submission(3, 4, 4, 5)).ok());
    ASSERT_TRUE(store.Add(Submission(2, 2, 2, 2)).ok());
  }
  // Simulate a kill mid-append: a partial record with no newline.
  {
    std::ofstream torn(path_, std::ios::app);
    torn << "{\"ratings\":[5,5,";
  }
  RatingStore reloaded;
  ASSERT_TRUE(reloaded.AttachFile(path_).ok());
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.corrupt_lines_recovered(), 1u);
  // AttachFile heals the torn tail, so new submissions land on fresh lines
  // and are NOT absorbed into the corrupt one.
  ASSERT_TRUE(reloaded.Add(Submission(1, 1, 1, 1)).ok());
  ASSERT_TRUE(reloaded.Add(Submission(4, 4, 4, 4)).ok());
  RatingStore again;
  ASSERT_TRUE(again.AttachFile(path_).ok());
  EXPECT_EQ(again.size(), 4u);
  EXPECT_EQ(again.corrupt_lines_recovered(), 1u);
  EXPECT_EQ(again.Snapshot().back().ratings, (std::array<int, 4>{4, 4, 4, 4}));
}

TEST_F(RatingStorePersistenceTest, AttachFailsForUnwritablePath) {
  RatingStore store;
  EXPECT_TRUE(
      store.AttachFile("/nonexistent-dir/definitely/nope.jsonl").IsIOError());
  // The store still works in memory-only mode after a failed attach.
  EXPECT_TRUE(store.Add(Submission(3, 3, 3, 3)).ok());
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace altroute
