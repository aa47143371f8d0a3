#include "server/geojson.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "core/plateau.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {
namespace {

Path SamplePath(const RoadNetwork& net) {
  auto p = MakePath(net, 0, 2, {net.FindEdge(0, 1), net.FindEdge(1, 2)},
                    net.travel_times());
  ALT_CHECK(p.ok());
  return std::move(p).ValueOrDie();
}

TEST(GeoJsonTest, RouteFeatureStructure) {
  auto net = testutil::LineNetwork(3, 60.0);
  const std::string json = RouteToGeoJson(*net, SamplePath(*net), 1);
  EXPECT_NE(json.find("\"type\":\"Feature\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"LineString\""), std::string::npos);
  EXPECT_NE(json.find("\"rank\":1"), std::string::npos);
  EXPECT_NE(json.find("\"travel_time_min\":2"), std::string::npos);
  // GeoJSON coordinate order is [lng, lat]: first point is (0, 0), second
  // has lng 0.005.
  EXPECT_NE(json.find("[0.005,0]"), std::string::npos);
}

TEST(GeoJsonTest, FeatureCollectionFromGenerator) {
  auto net = testutil::GridNetwork(5, 5);
  PlateauGenerator gen(testutil::Trees(net));
  auto set = gen.Generate(0, 24);
  ASSERT_TRUE(set.ok());
  const std::string json = AlternativeSetToGeoJson(*net, *set, 'B');
  EXPECT_NE(json.find("\"type\":\"FeatureCollection\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"B\""), std::string::npos);
  // One feature per route, ranks 1..k.
  size_t features = 0;
  for (size_t pos = 0;
       (pos = json.find("\"type\":\"Feature\"", pos)) != std::string::npos;
       ++pos) {
    ++features;
  }
  EXPECT_EQ(features, set->routes.size());
  EXPECT_NE(json.find("\"rank\":1"), std::string::npos);
}

TEST(GeoJsonTest, EmptySetIsValidCollection) {
  auto net = testutil::LineNetwork(3);
  AlternativeSet empty;
  const std::string json = AlternativeSetToGeoJson(*net, empty, 'A');
  EXPECT_NE(json.find("\"features\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"num_routes\":0"), std::string::npos);
}

}  // namespace
}  // namespace altroute
