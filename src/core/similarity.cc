#include "core/similarity.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace altroute {

namespace {

/// Canonical key treating an edge and its reverse twin as the same street.
uint64_t StreetKey(const RoadNetwork& net, EdgeId e) {
  NodeId a = net.tail(e);
  NodeId b = net.head(e);
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

double SharedLengthMeters(const RoadNetwork& net, const Path& a, const Path& b) {
  const Path& small = a.edges.size() <= b.edges.size() ? a : b;
  const Path& large = a.edges.size() <= b.edges.size() ? b : a;
  // The streets of `small`, sorted and unique, each with a used flag.
  std::vector<std::pair<uint64_t, bool>> streets;
  streets.reserve(small.edges.size());
  for (EdgeId e : small.edges) streets.emplace_back(StreetKey(net, e), false);
  std::sort(streets.begin(), streets.end());
  streets.erase(std::unique(streets.begin(), streets.end()), streets.end());
  double shared = 0.0;
  // A street counts once, at the first edge of `large` that drives it, even
  // if `large` traverses it twice.
  for (EdgeId e : large.edges) {
    const uint64_t key = StreetKey(net, e);
    const auto it = std::lower_bound(streets.begin(), streets.end(),
                                     std::make_pair(key, false));
    if (it != streets.end() && it->first == key && !it->second) {
      shared += net.length_m(e);
      it->second = true;
    }
  }
  return shared;
}

double Similarity(const RoadNetwork& net, const Path& a, const Path& b,
                  SimilarityMeasure measure) {
  if (a.empty() || b.empty()) return (a.empty() && b.empty()) ? 1.0 : 0.0;
  const double shared = SharedLengthMeters(net, a, b);
  double denom = 1.0;
  switch (measure) {
    case SimilarityMeasure::kOverlapOverShorter:
      denom = std::min(a.length_m, b.length_m);
      break;
    case SimilarityMeasure::kJaccardByLength:
      denom = a.length_m + b.length_m - shared;
      break;
    case SimilarityMeasure::kOverlapOverCandidate:
      denom = a.length_m;
      break;
  }
  if (denom <= 0.0) return 0.0;
  return std::clamp(shared / denom, 0.0, 1.0);
}

double DissimilarityToSet(const RoadNetwork& net, const Path& candidate,
                          std::span<const Path> accepted,
                          SimilarityMeasure measure) {
  double dis = 1.0;
  for (const Path& q : accepted) {
    dis = std::min(dis, 1.0 - Similarity(net, candidate, q, measure));
  }
  return dis;
}

}  // namespace altroute
