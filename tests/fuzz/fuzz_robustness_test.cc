// Randomised robustness ("mini-fuzz") tests: hostile or mutated inputs must
// produce clean Status errors, never crashes, hangs or UB. These run under
// the normal test budget with fixed seeds, so they are deterministic.
#include <string>

#include <gtest/gtest.h>

#include "geo/polyline.h"
#include "osm/osm_parser.h"
#include "server/rating_store.h"
#include "server/slow_query_log.h"
#include "server/url.h"
#include "util/json_parse.h"
#include "util/random.h"

namespace altroute {
namespace {

class FuzzSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeeds, PolylineDecoderNeverCrashesOnRandomBytes) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage;
    const size_t len = rng.NextUint64(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    auto decoded = DecodePolyline(garbage);
    if (decoded.ok()) {
      // Whatever decoded must be finite coordinates.
      for (const LatLng& p : *decoded) {
        EXPECT_TRUE(std::isfinite(p.lat));
        EXPECT_TRUE(std::isfinite(p.lng));
      }
    }
  }
}

TEST_P(FuzzSeeds, PolylineDecoderSurvivesMutatedValidInput) {
  Rng rng(GetParam() + 100);
  std::vector<LatLng> pts;
  for (int i = 0; i < 20; ++i) {
    pts.emplace_back(rng.Uniform(-80, 80), rng.Uniform(-170, 170));
  }
  const std::string valid = EncodePolyline(pts);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    const size_t pos = rng.NextUint64(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextUint64(256));
    auto decoded = DecodePolyline(mutated);  // ok() or clean error, both fine
    (void)decoded;
  }
}

TEST_P(FuzzSeeds, OsmParserNeverCrashesOnMutatedXml) {
  constexpr const char* kBase = R"(<osm>
    <node id="1" lat="0.0" lon="0.0"/>
    <node id="2" lat="0.001" lon="0.001"/>
    <way id="10"><nd ref="1"/><nd ref="2"/>
      <tag k="highway" v="primary"/></way>
    <relation id="20"><member type="way" ref="10" role="from"/>
      <tag k="type" v="restriction"/></relation>
  </osm>)";
  Rng rng(GetParam() + 200);
  const std::string base = kBase;
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = base;
    // 1-4 random byte mutations.
    const int mutations = 1 + static_cast<int>(rng.NextUint64(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.NextUint64(mutated.size());
      switch (rng.NextUint64(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextUint64(128));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, '<');
      }
      if (mutated.empty()) mutated.assign(1, '<');
    }
    auto parsed = osm::ParseOsmXml(mutated);
    (void)parsed;  // clean Result either way
  }
}

TEST_P(FuzzSeeds, UrlDecoderNeverCrashes) {
  Rng rng(GetParam() + 300);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const size_t len = rng.NextUint64(48);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextUint64(256)));
    }
    const std::string decoded = UrlDecode(garbage);
    EXPECT_LE(decoded.size(), garbage.size());
    const auto params = ParseQueryString(garbage);
    (void)params;
  }
}

TEST_P(FuzzSeeds, JsonParserNeverCrashesOnRandomBytes) {
  static constexpr std::string_view kJsonish = "{}[],:\"\\0123456789.eE+-nulltruefalse \\u";
  Rng rng(GetParam() + 400);
  for (int trial = 0; trial < 300; ++trial) {
    std::string garbage;
    const size_t len = rng.NextUint64(96);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(rng.NextUint64(4) == 0
                            ? static_cast<char>(rng.NextUint64(256))
                            : kJsonish[rng.NextUint64(kJsonish.size())]);
    }
    const auto parsed = ParseJson(garbage);
    if (!parsed.ok()) {
      EXPECT_TRUE(parsed.status().IsInvalidArgument());
    }
  }
  // Nesting far past the depth cap is an error, not a stack overflow.
  EXPECT_FALSE(ParseJson(std::string(100000, '[')).ok());
}

// The slow-query and ratings logs are replayed line by line after a
// restart, and a crash can tear the last line anywhere. A torn line must be
// rejected, never half-read; a mutated one parses or fails cleanly.
TEST_P(FuzzSeeds, LogLineParsersRejectTornAndSurviveMutatedLines) {
  Rng rng(GetParam() + 500);
  SlowQueryRecord record;
  record.request_id = "r" + std::to_string(rng.NextUint64(1000));
  record.city = "melbourne";
  record.params["slat"] = "-37.81";
  record.params["note"] = "quote \" backslash \\ tab \t";
  record.total_ms = rng.Uniform(1, 100);
  record.phases = {{"snap", 0.5}, {"engine:plateau_ch", 12.25}};
  SlowQueryEngine engine;
  engine.name = "plateau_ch";
  engine.elapsed_ms = 12.25;
  engine.stats.nodes_settled = rng.NextUint64(100000);
  record.engines.push_back(engine);
  RatingSubmission rating;
  rating.ratings = {1, 2, 4, 5};
  rating.melbourne_resident = true;
  rating.comment = "less \"zigzag\", more \\ main roads";
  const std::string lines[] = {SlowQueryRecordToJsonLine(record),
                               RatingSubmissionToJsonLine(rating)};
  ASSERT_TRUE(ParseSlowQueryRecordJsonLine(lines[0]).ok());
  ASSERT_TRUE(ParseRatingSubmissionJsonLine(lines[1]).ok());

  for (const std::string& line : lines) {
    ASSERT_TRUE(ParseJson(line).ok()) << line;
    for (size_t cut = 0; cut < line.size(); ++cut) {
      const std::string torn = line.substr(0, cut);
      EXPECT_FALSE(ParseJson(torn).ok()) << torn;
      EXPECT_FALSE(ParseSlowQueryRecordJsonLine(torn).ok()) << torn;
      EXPECT_FALSE(ParseRatingSubmissionJsonLine(torn).ok()) << torn;
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutated = line;
      const int mutations = 1 + static_cast<int>(rng.NextUint64(4));
      for (int m = 0; m < mutations && !mutated.empty(); ++m) {
        const size_t pos = rng.NextUint64(mutated.size());
        switch (rng.NextUint64(3)) {
          case 0:
            mutated[pos] = static_cast<char>(rng.NextUint64(256));
            break;
          case 1:
            mutated.erase(pos, 1);
            break;
          default:
            mutated.insert(pos, 1, "{}[],:\"\\"[rng.NextUint64(8)]);
        }
      }
      (void)ParseJson(mutated);  // ok() or a clean error, both fine
      (void)ParseSlowQueryRecordJsonLine(mutated);
      (void)ParseRatingSubmissionJsonLine(mutated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace altroute
