// Google-benchmark microbenchmarks of the four alternative-route engines,
// verifying the paper's Sec. 2 cost claims: Plateaus ~ two Dijkstra trees;
// Dissimilarity ~ two trees + dissimilarity checks; Penalty ~ k penalised
// searches; the commercial stand-in is the heaviest (two generators + rank),
// timed over a Dijkstra pair and (engine_commercial_ch) a PHAST pair.
// Each engine is timed alone, building the trees it needs; the
// --bench-json request_ch_suite entry times the four back to back, sharing
// one tree pair as a /route does.
//
// With --bench-json FILE [--smoke] the binary instead runs its own
// measurement loops and writes a BENCH_perf_engines.json report for
// tools/bench_compare.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "core/ch_via.h"
#include "core/engine_registry.h"
#include "routing/contraction_hierarchy.h"
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

/// CH-backed engines over the same city + display weights as Holder().
struct ChSuiteHolder {
  std::shared_ptr<const ContractionHierarchy> ch;
  std::unique_ptr<EngineSuite> suite;     // plateau_ch / penalty_ch / commercial
  std::unique_ptr<ChViaGenerator> via;    // ch_via
};

ChSuiteHolder& ChHolder() {
  static ChSuiteHolder holder = [] {
    SuiteHolder& base = Holder();
    ChSuiteHolder h;
    auto ch = ContractionHierarchy::Build(base.net,
                                          base.suite->display_weights());
    ALT_CHECK(ch.ok()) << ch.status();
    h.ch = std::move(ch).ValueOrDie();
    auto suite = EngineSuite::MakePaperSuite(
        base.net, {}, /*commercial_hour=*/3,
        base.suite->display_weights_ptr(), h.ch);
    ALT_CHECK(suite.ok()) << suite.status();
    h.suite = std::make_unique<EngineSuite>(std::move(suite).ValueOrDie());
    h.via = std::make_unique<ChViaGenerator>(
        base.net, h.suite->display_weights(), h.ch);
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
void BM_EnginePlateausCh(benchmark::State& state) {
  RunGenerator(state, ChHolder().suite->engine(Approach::kPlateaus));
}
void BM_EnginePenaltyCh(benchmark::State& state) {
  RunGenerator(state, ChHolder().suite->engine(Approach::kPenalty));
}
void BM_EngineCommercialCh(benchmark::State& state) {
  RunGenerator(state, ChHolder().suite->engine(Approach::kGoogleMaps));
}
void BM_EngineChVia(benchmark::State& state) {
  RunGenerator(state, *ChHolder().via);
}
BENCHMARK(BM_EnginePlateaus)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineDissimilarity)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EnginePenalty)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineCommercial)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EnginePlateausCh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EnginePenaltyCh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineCommercialCh)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EngineChVia)->Unit(benchmark::kMillisecond);

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

  // CH-backed counterparts over the same network and display weights.
  auto ch_or = ContractionHierarchy::Build(net, suite.display_weights());
  ALT_CHECK(ch_or.ok()) << ch_or.status();
  auto ch = std::move(ch_or).ValueOrDie();
  auto ch_suite_or = EngineSuite::MakePaperSuite(
      net, {}, /*commercial_hour=*/3, suite.display_weights_ptr(), ch);
  ALT_CHECK(ch_suite_or.ok()) << ch_suite_or.status();
  EngineSuite ch_suite = std::move(ch_suite_or).ValueOrDie();
  ChViaGenerator via(net, suite.display_weights(), ch);

  // Correctness gate before timing: plain and CH-backed engines must agree
  // on the optimal cost for the exact workload distribution being measured.
  {
    Rng rng(7);
    for (int q = 0; q < 10; ++q) {
      NodeId s, t;
      do {
        s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
        t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
      } while (s == t);
      auto plain_pl = suite.engine(Approach::kPlateaus).Generate(s, t);
      auto ch_pl = ch_suite.engine(Approach::kPlateaus).Generate(s, t);
      auto plain_pe = suite.engine(Approach::kPenalty).Generate(s, t);
      auto ch_pe = ch_suite.engine(Approach::kPenalty).Generate(s, t);
      auto plain_co = suite.engine(Approach::kGoogleMaps).Generate(s, t);
      auto ch_co = ch_suite.engine(Approach::kGoogleMaps).Generate(s, t);
      auto ch_via_set = via.Generate(s, t);
      ALT_CHECK(plain_pl.ok() && ch_pl.ok() && plain_pe.ok() && ch_pe.ok() &&
                plain_co.ok() && ch_co.ok() && ch_via_set.ok());
      const auto near = [](double a, double b) {
        return std::abs(a - b) <= 1e-6 * std::max(1.0, std::abs(a));
      };
      ALT_CHECK(near(plain_pl->optimal_cost, ch_pl->optimal_cost));
      ALT_CHECK(near(plain_pe->optimal_cost, ch_pe->optimal_cost));
      ALT_CHECK(near(plain_co->optimal_cost, ch_co->optimal_cost));
      ALT_CHECK(near(plain_pl->optimal_cost, ch_via_set->optimal_cost));
    }
    std::printf("equal-optimum gate: 10/10 query pairs agree\n");
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
  measure_alone(ch_suite.engine(Approach::kPlateaus));
  measure_alone(ch_suite.engine(Approach::kPenalty));
  // Commercial keeps its name over either pair; the suffix marks its PHAST
  // pair over the commercial hierarchy.
  measure("engine_commercial_ch", {&ch_suite.engine(Approach::kGoogleMaps)});
  measure_alone(via);
  // A /route's engine work: the CH suite's four engines in A-D order, so
  // plateau_ch builds the shared tree pair that dissimilarity and
  // penalty_ch read. Timed alone, each engine builds what it needs.
  std::vector<AlternativeRouteGenerator*> request;
  for (Approach a : kAllApproaches) request.push_back(&ch_suite.engine(a));
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
