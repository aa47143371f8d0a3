// Google-benchmark microbenchmarks of the four alternative-route engines,
// verifying the paper's Sec. 2 cost claims: Plateaus ~ two shortest-path
// trees (PHAST sweeps); Dissimilarity ~ two trees + dissimilarity checks;
// Penalty ~ k penalised searches; the commercial stand-in is the heaviest
// (two candidate stages over one tree pair + rank).
// Each engine is timed alone, building the trees it needs; the
// --bench-json request_ch_suite entry times the four back to back, sharing
// one tree pair as a /route does.
//
// With --bench-json FILE [--smoke] the binary instead runs its own
// measurement loops and writes a BENCH_perf_engines.json report for
// tools/bench_compare.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/engine_registry.h"
#include "util/random.h"
#include "util/check.h"

using namespace altroute;
using namespace altroute::bench;

namespace {

struct SuiteHolder {
  std::shared_ptr<RoadNetwork> net;
  std::unique_ptr<EngineSuite> suite;
};

SuiteHolder& Holder() {
  static SuiteHolder holder = [] {
    SuiteHolder h;
    h.net = City("melbourne", 0.5);
    auto suite = EngineSuite::MakePaperSuite(h.net);
    ALT_CHECK(suite.ok());
    h.suite = std::make_unique<EngineSuite>(std::move(suite).ValueOrDie());
    return h;
  }();
  return holder;
}

void RunGenerator(benchmark::State& state, AlternativeRouteGenerator& engine) {
  const RoadNetwork& net = Holder().suite->network();
  Rng rng(7);
  size_t routes = 0, sets = 0;
  obs::SearchStats stats;
  for (auto _ : state) {
    NodeId s, t;
    do {
      s = static_cast<NodeId>(rng.NextUint64(net.num_nodes()));
      t = static_cast<NodeId>(rng.NextUint64(net.num_nodes()));
    } while (s == t);
    auto set = engine.Generate(s, t, &stats);
    benchmark::DoNotOptimize(set);
    if (set.ok()) {
      routes += set->routes.size();
      ++sets;
    }
  }
  if (sets > 0) {
    state.counters["routes/query"] =
        static_cast<double>(routes) / static_cast<double>(sets);
  }
  // Per-engine search effort, averaged per query (paper Sec. 2 cost claims).
  for (const auto& [key, value] : SearchStatsCounters(stats)) {
    if (value == 0.0) continue;
    state.counters[key] =
        benchmark::Counter(value, benchmark::Counter::kAvgIterations);
  }
}

void RunEngine(benchmark::State& state, Approach approach) {
  RunGenerator(state, Holder().suite->engine(approach));
}

void BM_EnginePlateaus(benchmark::State& state) {
  RunEngine(state, Approach::kPlateaus);
}
void BM_EngineDissimilarity(benchmark::State& state) {
  RunEngine(state, Approach::kDissimilarity);
}
void BM_EnginePenalty(benchmark::State& state) {
  RunEngine(state, Approach::kPenalty);
}
void BM_EngineCommercial(benchmark::State& state) {
  RunEngine(state, Approach::kGoogleMaps);
}
BENCHMARK(BM_EnginePlateaus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineDissimilarity)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EnginePenalty)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineCommercial)->Unit(benchmark::kMillisecond);

/// --bench-json mode: one entry per engine, self-timed per-query samples
/// with settled-node counters.
int RunJsonMode(const std::string& out_path, bool smoke) {
  const double scale = smoke ? 0.05 : 0.5;
  const int iters = smoke ? 15 : 60;
  auto net = City("melbourne", scale);
  auto suite_or = EngineSuite::MakePaperSuite(net);
  ALT_CHECK(suite_or.ok());
  EngineSuite suite = std::move(suite_or).ValueOrDie();
  BenchReporter reporter("perf_engines", smoke ? "smoke" : "full");
  std::printf("perf_engines (%s): melbourne at scale %.2f, %d iterations\n",
              smoke ? "smoke" : "full", scale, iters);

  // Correctness gate before timing: every engine's optimum must be the
  // shortest path under its weights, on the exact workload distribution
  // being measured.
  {
    Dijkstra dijkstra(*net);
    Rng rng(7);
    for (int q = 0; q < 10; ++q) {
      NodeId s, t;
      do {
        s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
        t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
      } while (s == t);
      for (Approach a : kAllApproaches) {
        AlternativeRouteGenerator& engine = suite.engine(a);
        auto set = engine.Generate(s, t);
        auto optimum = dijkstra.ShortestPath(s, t, engine.weights());
        ALT_CHECK(set.ok() && optimum.ok()) << engine.name();
        ALT_CHECK(std::abs(set->optimal_cost - optimum->cost) <=
                  1e-6 * std::max(1.0, optimum->cost))
            << engine.name() << " optimum " << set->optimal_cost << " vs "
            << optimum->cost;
      }
    }
    std::printf("equal-optimum gate: 10/10 queries agree with Dijkstra\n");
  }

  // One sample runs `engines` back to back on one OD.
  const auto measure = [&](const std::string& name,
                           const std::vector<AlternativeRouteGenerator*>& engines) {
    Rng rng(7);
    obs::SearchStats stats;
    const auto samples_ms = TimeIterationsMs(iters, [&] {
      NodeId s, t;
      do {
        s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
        t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
      } while (s == t);
      for (AlternativeRouteGenerator* engine : engines) {
        auto set = engine->Generate(s, t, &stats);
        benchmark::DoNotOptimize(set);
      }
    });
    std::map<std::string, double> counters;
    for (const auto& [key, value] : SearchStatsCounters(stats)) {
      if (value == 0.0) continue;
      counters[key] = value / static_cast<double>(iters);
    }
    reporter.Add(name, samples_ms, std::move(counters));
  };
  const auto measure_alone = [&](AlternativeRouteGenerator& engine) {
    measure("engine_" + engine.name(), {&engine});
  };

  for (Approach a : kAllApproaches) measure_alone(suite.engine(a));
  // A /route's engine work: the four engines in A-D order, so plateau_ch
  // builds the shared tree pair that dissimilarity and penalty_ch read.
  // Timed alone, each engine builds what it needs.
  std::vector<AlternativeRouteGenerator*> request;
  for (Approach a : kAllApproaches) request.push_back(&suite.engine(a));
  measure("request_ch_suite", request);
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
