// The study cities at a small scale and seeded ODs over the paper's three
// trip bins, shared by the suites that compare engine output over them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "citygen/city_generator.h"
#include "routing/dijkstra.h"
#include "userstudy/participant.h"
#include "util/check.h"
#include "util/random.h"

namespace altroute {
namespace testutil {

struct Od {
  NodeId s;
  NodeId t;
};

/// Seeded ODs covering the paper's three trip bins ((0,10], (10,25] and
/// (25,80] fastest minutes on the display weights), `per_bin` each. On a
/// city built at `scale` the bins shrink with it, so each keeps its share of
/// the city's extent.
inline std::vector<Od> BinnedOds(const RoadNetwork& net, double scale,
                                 uint64_t seed, int per_bin) {
  Dijkstra dijkstra(net);
  Rng rng(seed);
  int filled[3] = {0, 0, 0};
  std::vector<Od> ods;
  const auto wanted = static_cast<size_t>(3 * per_bin);
  for (int attempt = 0; attempt < 4000 && ods.size() < wanted; ++attempt) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net.num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net.num_nodes()));
    if (s == t) continue;
    auto sp = dijkstra.ShortestPath(s, t, net.travel_times());
    if (!sp.ok()) continue;
    const int bin = BucketOf(sp->cost / 60.0 / scale);
    if (bin < 0 || filled[bin] >= per_bin) continue;
    ++filled[bin];
    ods.push_back({s, t});
  }
  for (int bin = 0; bin < 3; ++bin) {
    EXPECT_EQ(filled[bin], per_bin) << net.name() << " trip bin " << bin;
  }
  return ods;
}

/// A study city ("melbourne", "dhaka" or "copenhagen") built at `scale`.
inline std::shared_ptr<RoadNetwork> StudyCity(const std::string& city,
                                              double scale) {
  citygen::CitySpec spec = citygen::CopenhagenSpec();
  if (city == "melbourne") spec = citygen::MelbourneSpec();
  if (city == "dhaka") spec = citygen::DhakaSpec();
  auto net = citygen::BuildCityNetwork(citygen::Scaled(spec, scale));
  ALT_CHECK(net.ok()) << net.status();
  return std::move(net).ValueOrDie();
}

}  // namespace testutil
}  // namespace altroute
