// Google-benchmark microbenchmarks of the routing substrate: Dijkstra
// (one-to-one and full tree), contraction hierarchy build, PHAST one-to-all,
// turn-aware routing and nearest-node snapping on the synthetic study
// cities.
//
// With --bench-json FILE [--smoke] the binary instead runs its own
// measurement loops and writes a BENCH_perf_routing.json report
// (per-iteration p50/p95/p99 + settled-node counters) for
// tools/bench_compare; --smoke shrinks the city and iteration counts to
// CI size.
#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "obs/phase_timer.h"
#include "routing/contraction_hierarchy.h"
#include "geo/spatial_index.h"
#include "routing/dijkstra.h"
#include "routing/phast.h"
#include "routing/turn_aware.h"
#include "util/random.h"
#include "util/check.h"

using namespace altroute;
using namespace altroute::bench;

namespace {

std::shared_ptr<RoadNetwork> BenchCity() {
  static std::shared_ptr<RoadNetwork> net = City("melbourne", 0.5);
  return net;
}

std::shared_ptr<const ContractionHierarchy> BenchCh() {
  static std::shared_ptr<const ContractionHierarchy> ch = [] {
    auto net = BenchCity();
    auto built = ContractionHierarchy::Build(net, net->travel_times());
    ALT_CHECK(built.ok());
    return std::move(built).ValueOrDie();
  }();
  return ch;
}

std::pair<NodeId, NodeId> RandomQuery(const RoadNetwork& net, Rng* rng) {
  for (;;) {
    const auto s = static_cast<NodeId>(rng->NextUint64(net.num_nodes()));
    const auto t = static_cast<NodeId>(rng->NextUint64(net.num_nodes()));
    if (s != t) return {s, t};
  }
}

void BM_DijkstraPointToPoint(benchmark::State& state) {
  auto net = BenchCity();
  Dijkstra dijkstra(*net);
  Rng rng(1);
  for (auto _ : state) {
    const auto [s, t] = RandomQuery(*net, &rng);
    auto r = dijkstra.ShortestPath(s, t, net->travel_times());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DijkstraPointToPoint);

// Same query mix with SearchStats collection enabled: the delta against
// BM_DijkstraPointToPoint is the observability overhead (budget: < 5%).
void BM_DijkstraPointToPointWithStats(benchmark::State& state) {
  auto net = BenchCity();
  Dijkstra dijkstra(*net);
  Rng rng(1);
  obs::SearchStats stats;
  for (auto _ : state) {
    const auto [s, t] = RandomQuery(*net, &rng);
    auto r = dijkstra.ShortestPath(s, t, net->travel_times(),
                                   /*skip_edge=*/nullptr, &stats);
    benchmark::DoNotOptimize(r);
  }
  for (const auto& [key, value] : SearchStatsCounters(stats)) {
    if (value == 0.0) continue;
    state.counters[key] =
        benchmark::Counter(value, benchmark::Counter::kAvgIterations);
  }
}
BENCHMARK(BM_DijkstraPointToPointWithStats);

// Same query mix polling a live CancellationToken (far-future deadline, so
// it never fires): the delta against BM_DijkstraPointToPoint is the
// cooperative-cancellation overhead (budget: < 1%).
void BM_DijkstraPointToPointWithCancellation(benchmark::State& state) {
  auto net = BenchCity();
  Dijkstra dijkstra(*net);
  Rng rng(1);
  CancellationToken token{Deadline::AfterSeconds(3600.0)};
  for (auto _ : state) {
    const auto [s, t] = RandomQuery(*net, &rng);
    auto r = dijkstra.ShortestPath(s, t, net->travel_times(),
                                   /*skip_edge=*/nullptr, /*stats=*/nullptr,
                                   &token);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DijkstraPointToPointWithCancellation);

// Same query mix, each query a request of its own with one lap on a fresh
// RequestProfile: the delta against BM_DijkstraPointToPoint is what the
// attribution costs a request (budget: p99 within 2%).
void BM_DijkstraPointToPointProfiled(benchmark::State& state) {
  auto net = BenchCity();
  Dijkstra dijkstra(*net);
  Rng rng(1);
  for (auto _ : state) {
    obs::RequestProfile profile;
    profile.Lap("engine:dijkstra");
    const auto [s, t] = RandomQuery(*net, &rng);
    auto r = dijkstra.ShortestPath(s, t, net->travel_times());
    profile.Stop();
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(profile.PhaseSum());
  }
}
BENCHMARK(BM_DijkstraPointToPointProfiled);

void BM_DijkstraFullTree(benchmark::State& state) {
  auto net = BenchCity();
  Dijkstra dijkstra(*net);
  Rng rng(2);
  for (auto _ : state) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    auto tree =
        dijkstra.BuildTree(s, net->travel_times(), SearchDirection::kForward);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_DijkstraFullTree);

void BM_ChBuild(benchmark::State& state) {
  auto net = City("melbourne", 0.25);
  for (auto _ : state) {
    auto ch = ContractionHierarchy::Build(net, net->travel_times());
    benchmark::DoNotOptimize(ch);
  }
}
BENCHMARK(BM_ChBuild)->Unit(benchmark::kMillisecond);

void BM_PhastOneToAll(benchmark::State& state) {
  auto net = BenchCity();
  Phast phast(BenchCh());
  Rng rng(8);
  for (auto _ : state) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    auto d = phast.Distances(s);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_PhastOneToAll);

void BM_TurnAwarePointToPoint(benchmark::State& state) {
  auto net = BenchCity();
  auto router = TurnAwareRouter::Build(net);
  ALT_CHECK(router.ok());
  Rng rng(9);
  for (auto _ : state) {
    const auto [s, t] = RandomQuery(*net, &rng);
    auto r = (*router)->ShortestPath(s, t);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TurnAwarePointToPoint);

void BM_NearestNeighborSnap(benchmark::State& state) {
  auto net = BenchCity();
  SpatialIndex index(net->coords());
  Rng rng(6);
  const BoundingBox& box = net->bounds();
  for (auto _ : state) {
    const LatLng q(rng.Uniform(box.min_lat, box.max_lat),
                   rng.Uniform(box.min_lng, box.max_lng));
    auto r = index.Nearest(q);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NearestNeighborSnap);

/// --bench-json mode: self-timed measurement loops over a representative
/// kernel subset, written as a BenchReport. Smoke mode shrinks the city and
/// the iteration counts so the whole run fits a CI minute.
int RunJsonMode(const std::string& out_path, bool smoke) {
  const double scale = smoke ? 0.05 : 0.5;
  const int iters = smoke ? 40 : 300;
  auto net = City("melbourne", scale);
  BenchReporter reporter("perf_routing", smoke ? "smoke" : "full");
  std::printf("perf_routing (%s): melbourne at scale %.2f, %d iterations\n",
              smoke ? "smoke" : "full", scale, iters);

  Dijkstra dijkstra(*net);
  Rng rng(1);
  reporter.Add("dijkstra_p2p", TimeIterationsMs(iters, [&] {
    const auto [s, t] = RandomQuery(*net, &rng);
    auto r = dijkstra.ShortestPath(s, t, net->travel_times());
    benchmark::DoNotOptimize(r);
  }));

  // Time into a local first: the counters must be read after the loop, and
  // the evaluation order of one call's arguments is unspecified.
  obs::SearchStats stats;
  const auto stats_samples_ms = TimeIterationsMs(iters, [&] {
    const auto [s, t] = RandomQuery(*net, &rng);
    auto r = dijkstra.ShortestPath(s, t, net->travel_times(),
                                   /*skip_edge=*/nullptr, &stats);
    benchmark::DoNotOptimize(r);
  });
  reporter.Add("dijkstra_p2p_stats", stats_samples_ms,
               {{"nodes_settled", static_cast<double>(stats.nodes_settled) /
                                      static_cast<double>(iters)}});

  reporter.Add("dijkstra_p2p_profiled", TimeIterationsMs(iters, [&] {
    obs::RequestProfile profile;
    profile.Lap("engine:dijkstra");
    const auto [s, t] = RandomQuery(*net, &rng);
    auto r = dijkstra.ShortestPath(s, t, net->travel_times());
    profile.Stop();
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(profile.PhaseSum());
  }));

  SpatialIndex index(net->coords());
  const BoundingBox& box = net->bounds();
  reporter.Add("nearest_neighbor_snap", TimeIterationsMs(iters, [&] {
    const LatLng q(rng.Uniform(box.min_lat, box.max_lat),
                   rng.Uniform(box.min_lng, box.max_lng));
    auto r = index.Nearest(q);
    benchmark::DoNotOptimize(r);
  }));

  // One tree pair's PHAST sweeps: forward from s and backward to t into a
  // reused buffer, as TreePair runs them for each request.
  auto ch = ContractionHierarchy::Build(net, net->travel_times());
  ALT_CHECK(ch.ok()) << ch.status();
  Phast phast(std::move(ch).ValueOrDie());
  std::vector<double> dist(net->num_nodes());
  obs::SearchStats phast_stats;
  const auto phast_samples_ms = TimeIterationsMs(iters, [&] {
    const auto [s, t] = RandomQuery(*net, &rng);
    ALT_CHECK(phast
                  .DistancesInto(s, SearchDirection::kForward, dist,
                                 &phast_stats)
                  .ok());
    ALT_CHECK(phast
                  .DistancesInto(t, SearchDirection::kBackward, dist,
                                 &phast_stats)
                  .ok());
    benchmark::DoNotOptimize(dist.data());
  });
  reporter.Add(
      "phast_one_to_all", phast_samples_ms,
      {{"nodes_settled", static_cast<double>(phast_stats.nodes_settled) /
                             static_cast<double>(iters)},
       {"edges_relaxed", static_cast<double>(phast_stats.edges_relaxed) /
                             static_cast<double>(iters)}});

  return reporter.WriteFile(out_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_json;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-json" && i + 1 < argc) bench_json = argv[++i];
    else if (arg == "--smoke") smoke = true;
  }
  if (!bench_json.empty()) return RunJsonMode(bench_json, smoke);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
