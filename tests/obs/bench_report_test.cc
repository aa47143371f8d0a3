#include "obs/bench_report.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace altroute {
namespace obs {
namespace {

BenchReport SampleReport() {
  BenchReport report;
  report.bench = "perf_routing";
  report.mode = "smoke";
  BenchEntry e;
  e.name = "dijkstra_p2p";
  e.samples = 40;
  e.p50_ms = 1.0;
  e.p95_ms = 2.0;
  e.p99_ms = 3.0;
  e.mean_ms = 1.2;
  e.counters["nodes_settled"] = 1234.0;
  report.entries.push_back(e);
  return report;
}

TEST(BenchReportTest, JsonRoundTrip) {
  const BenchReport report = SampleReport();
  const auto parsed = BenchReport::FromJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->schema_version, kBenchSchemaVersion);
  EXPECT_EQ(parsed->bench, "perf_routing");
  EXPECT_EQ(parsed->mode, "smoke");
  ASSERT_EQ(parsed->entries.size(), 1u);
  const BenchEntry& e = parsed->entries[0];
  EXPECT_EQ(e.name, "dijkstra_p2p");
  EXPECT_EQ(e.samples, 40u);
  EXPECT_DOUBLE_EQ(e.p99_ms, 3.0);
  ASSERT_EQ(e.counters.count("nodes_settled"), 1u);
  EXPECT_DOUBLE_EQ(e.counters.at("nodes_settled"), 1234.0);
}

TEST(BenchReportTest, WrongSchemaVersionIsFailedPrecondition) {
  std::string json = SampleReport().ToJson();
  const std::string needle = "\"schema_version\": 1";
  const size_t pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"schema_version\": 999");
  const auto parsed = BenchReport::FromJson(json);
  EXPECT_TRUE(parsed.status().IsFailedPrecondition()) << parsed.status();
}

TEST(BenchReportTest, GarbageIsInvalidArgument) {
  EXPECT_TRUE(BenchReport::FromJson("not json").status().IsInvalidArgument());
  EXPECT_TRUE(BenchReport::FromJson("[1,2]").status().IsInvalidArgument());
}

TEST(BenchReportTest, FileRoundTripAndFind) {
  const std::string path = ::testing::TempDir() + "/bench_report_rt.json";
  std::remove(path.c_str());
  const BenchReport report = SampleReport();
  ASSERT_TRUE(report.WriteFile(path).ok());
  const auto loaded = BenchReport::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_NE(loaded->Find("dijkstra_p2p"), nullptr);
  EXPECT_EQ(loaded->Find("absent"), nullptr);
  std::remove(path.c_str());
}

TEST(BenchReportTest, ReadFileOnMissingPathIsError) {
  EXPECT_FALSE(BenchReport::ReadFile("/nonexistent/bench.json").ok());
}

TEST(PercentileMsTest, NearestRank) {
  EXPECT_DOUBLE_EQ(PercentileMs({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(PercentileMs({7.0}, 0.99), 7.0);
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(PercentileMs(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileMs(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(PercentileMs(v, 1.0), 5.0);
}

TEST(CompareBenchReportsTest, NoRegressionWithinThreshold) {
  const BenchReport baseline = SampleReport();
  BenchReport candidate = SampleReport();
  candidate.entries[0].p99_ms = 3.2;  // +6.7% < 10%
  const auto regressions =
      CompareBenchReports(baseline, candidate, CompareOptions{});
  ASSERT_TRUE(regressions.ok());
  EXPECT_TRUE(regressions->empty());
}

TEST(CompareBenchReportsTest, DetectsP99Regression) {
  const BenchReport baseline = SampleReport();
  BenchReport candidate = SampleReport();
  candidate.entries[0].p99_ms = 4.5;  // +50% > 10%
  const auto regressions =
      CompareBenchReports(baseline, candidate, CompareOptions{});
  ASSERT_TRUE(regressions.ok());
  ASSERT_EQ(regressions->size(), 1u);
  EXPECT_EQ((*regressions)[0].entry, "dijkstra_p2p");
  EXPECT_EQ((*regressions)[0].what, "p99");
  EXPECT_NEAR((*regressions)[0].pct, 50.0, 1e-9);
  EXPECT_NE((*regressions)[0].ToString().find("dijkstra_p2p"),
            std::string::npos);
}

TEST(CompareBenchReportsTest, ThresholdIsConfigurable) {
  const BenchReport baseline = SampleReport();
  BenchReport candidate = SampleReport();
  candidate.entries[0].p99_ms = 3.2;  // +6.7%
  CompareOptions tight;
  tight.max_p99_regression_pct = 5.0;
  const auto regressions = CompareBenchReports(baseline, candidate, tight);
  ASSERT_TRUE(regressions.ok());
  EXPECT_EQ(regressions->size(), 1u);
}

TEST(CompareBenchReportsTest, MissingEntryIsARegression) {
  const BenchReport baseline = SampleReport();
  BenchReport candidate = SampleReport();
  candidate.entries.clear();
  const auto regressions =
      CompareBenchReports(baseline, candidate, CompareOptions{});
  ASSERT_TRUE(regressions.ok());
  ASSERT_EQ(regressions->size(), 1u);
  EXPECT_EQ((*regressions)[0].what, "missing");
}

TEST(CompareBenchReportsTest, NewEntryIsFine) {
  const BenchReport baseline = SampleReport();
  BenchReport candidate = SampleReport();
  BenchEntry extra;
  extra.name = "astar";
  extra.p99_ms = 100.0;
  candidate.entries.push_back(extra);
  const auto regressions =
      CompareBenchReports(baseline, candidate, CompareOptions{});
  ASSERT_TRUE(regressions.ok());
  EXPECT_TRUE(regressions->empty());
}

TEST(CompareBenchReportsTest, WorkCounterDriftIsReported) {
  const BenchReport baseline = SampleReport();
  BenchReport candidate = SampleReport();
  candidate.entries[0].counters["nodes_settled"] = 1234.000001;
  auto regressions = CompareBenchReports(baseline, candidate, CompareOptions{});
  ASSERT_TRUE(regressions.ok());
  ASSERT_EQ(regressions->size(), 1u);
  EXPECT_TRUE((*regressions)[0].counter_drift);
  EXPECT_EQ((*regressions)[0].what, "nodes_settled");
  EXPECT_NE((*regressions)[0].ToString().find("1234.000001"),
            std::string::npos);
  // Below the written precision, the two rows read the same.
  candidate.entries[0].counters["nodes_settled"] = 1234.0000001;
  regressions = CompareBenchReports(baseline, candidate, CompareOptions{});
  ASSERT_TRUE(regressions.ok());
  EXPECT_TRUE(regressions->empty());
}

TEST(CompareBenchReportsTest, WorkCounterMissingFromEitherRowIsDrift) {
  const BenchReport baseline = SampleReport();
  BenchReport candidate = SampleReport();
  candidate.entries[0].counters.clear();
  candidate.entries[0].counters["trees_built"] = 2.0;
  const auto regressions =
      CompareBenchReports(baseline, candidate, CompareOptions{});
  ASSERT_TRUE(regressions.ok());
  ASSERT_EQ(regressions->size(), 2u);
  for (const BenchRegression& r : *regressions) {
    EXPECT_TRUE(r.counter_drift) << r.ToString();
    EXPECT_NE(r.ToString().find("absent"), std::string::npos) << r.ToString();
  }
}

TEST(CompareBenchReportsTest, RatesAreNotGated) {
  BenchReport baseline = SampleReport();
  baseline.entries[0].counters["requests_per_s"] = 15000.0;
  BenchReport candidate = baseline;
  candidate.entries[0].counters["requests_per_s"] = 9000.0;
  const auto regressions =
      CompareBenchReports(baseline, candidate, CompareOptions{});
  ASSERT_TRUE(regressions.ok());
  EXPECT_TRUE(regressions->empty());
}

TEST(CompareBenchReportsTest, BenchMismatchIsFailedPrecondition) {
  const BenchReport baseline = SampleReport();
  BenchReport candidate = SampleReport();
  candidate.bench = "perf_server";
  const auto regressions =
      CompareBenchReports(baseline, candidate, CompareOptions{});
  EXPECT_TRUE(regressions.status().IsFailedPrecondition());
}

}  // namespace
}  // namespace obs
}  // namespace altroute
