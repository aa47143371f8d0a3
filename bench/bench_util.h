// Shared helpers for the reproduction benches: city construction, one full
// study run per process, the paper's published reference numbers,
// side-by-side "paper vs measured" table printing, and the BenchReporter
// behind the committed BENCH_*.json regression baselines.
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "citygen/city_generator.h"
#include "obs/bench_report.h"
#include "obs/search_stats.h"
#include "routing/tree_pair.h"
#include "userstudy/tables.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {
namespace bench {

/// Builds (and caches per process) a study city at the given scale.
inline std::shared_ptr<RoadNetwork> City(const std::string& name,
                                         double scale = 1.0) {
  citygen::CitySpec spec;
  if (name == "dhaka") {
    spec = citygen::DhakaSpec();
  } else if (name == "copenhagen") {
    spec = citygen::CopenhagenSpec();
  } else {
    spec = citygen::MelbourneSpec();
  }
  auto net = citygen::BuildCityNetwork(citygen::Scaled(spec, scale));
  ALT_CHECK_OK(net);
  return std::move(net).ValueOrDie();
}

/// The contraction hierarchy of `weights` on `net`, for benches that run
/// generators outside an EngineSuite: each gets a TreePair over it.
inline std::shared_ptr<const ContractionHierarchy> Hierarchy(
    std::shared_ptr<const RoadNetwork> net, std::span<const double> weights) {
  auto ch = ContractionHierarchy::Build(std::move(net), weights);
  ALT_CHECK_OK(ch);
  return std::move(ch).ValueOrDie();
}

/// Runs the full 237-response study on a network (paper configuration).
inline StudyResults RunPaperStudy(std::shared_ptr<RoadNetwork> net,
                                  uint64_t seed = 20225601) {
  StudyConfig config;
  config.seed = seed;
  StudyRunner runner(std::move(net), config);
  auto results = runner.Run();
  ALT_CHECK_OK(results);
  return std::move(results).ValueOrDie();
}

/// Flattens SearchStats into named values, in a form both google-benchmark
/// counters and the plain reproduction executables' JSON output can consume
/// (this header must stay independent of benchmark.h — see the repro mains).
inline std::map<std::string, double> SearchStatsCounters(
    const obs::SearchStats& s) {
  return {
      {"nodes_settled", static_cast<double>(s.nodes_settled)},
      {"edges_relaxed", static_cast<double>(s.edges_relaxed)},
      {"heap_pushes", static_cast<double>(s.heap_pushes)},
      {"heap_pops", static_cast<double>(s.heap_pops)},
      {"paths_generated", static_cast<double>(s.paths_generated)},
      {"paths_rejected", static_cast<double>(s.paths_rejected_total())},
      {"trees_built", static_cast<double>(s.trees_built)},
  };
}

/// Accumulates per-iteration wall-time samples into a BenchReport
/// (obs/bench_report.h) — the machine-readable output behind the committed
/// BENCH_perf_{routing,engines,server}.json baselines and tools/bench_compare.
/// Like the rest of this header it is independent of benchmark.h: the
/// --bench-json modes run their own measurement loops so the recorded
/// percentiles are true per-iteration numbers, not aggregate means.
class BenchReporter {
 public:
  BenchReporter(std::string bench, std::string mode) {
    report_.bench = std::move(bench);
    report_.mode = std::move(mode);
  }

  /// Records one benchmark case from raw per-iteration samples.
  void Add(const std::string& name, const std::vector<double>& samples_ms,
           std::map<std::string, double> counters = {}) {
    obs::BenchEntry e;
    e.name = name;
    e.samples = samples_ms.size();
    e.p50_ms = obs::PercentileMs(samples_ms, 0.50);
    e.p95_ms = obs::PercentileMs(samples_ms, 0.95);
    e.p99_ms = obs::PercentileMs(samples_ms, 0.99);
    double sum = 0.0;
    for (double ms : samples_ms) sum += ms;
    e.mean_ms = samples_ms.empty()
                    ? 0.0
                    : sum / static_cast<double>(samples_ms.size());
    e.counters = std::move(counters);
    std::printf("  %-40s p50 %10.3f ms  p99 %10.3f ms  (%zu iters)\n",
                name.c_str(), e.p50_ms, e.p99_ms, samples_ms.size());
    report_.entries.push_back(std::move(e));
  }

  const obs::BenchReport& report() const { return report_; }

  /// Writes the report; on failure prints the status and returns false (the
  /// bench mains exit nonzero so CI cannot mistake a missing file for a run).
  bool WriteFile(const std::string& path) const {
    const Status st = report_.WriteFile(path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return false;
    }
    std::printf("bench report written to %s\n", path.c_str());
    return true;
  }

 private:
  obs::BenchReport report_;
};

/// Times `fn` for `iterations` runs and returns per-iteration milliseconds.
template <typename Fn>
std::vector<double> TimeIterationsMs(int iterations, Fn&& fn) {
  std::vector<double> samples_ms;
  samples_ms.reserve(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    const auto begin = std::chrono::steady_clock::now();
    fn();
    samples_ms.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - begin)
            .count());
  }
  return samples_ms;
}

/// One published table row: mean/sd per approach + response count.
struct PaperRow {
  const char* label;
  std::array<double, kNumApproaches> mean;
  std::array<double, kNumApproaches> sd;
  int n;
};

/// Table 1 (all respondents), rows in the paper's order.
inline constexpr PaperRow kPaperTable1[] = {
    {"Overall", {3.37, 3.63, 3.58, 3.56}, {1.33, 1.25, 1.29, 1.17}, 237},
    {"Melbourne residents", {3.55, 3.69, 3.70, 3.66}, {1.28, 1.17, 1.22, 1.12}, 156},
    {"Non-residents", {3.04, 3.51, 3.34, 3.37}, {1.37, 1.38, 1.37, 1.25}, 81},
    {"Small Routes (0, 10] (mins)", {3.53, 3.48, 3.69, 3.81}, {1.17, 1.27, 1.18, 1.08}, 66},
    {"Medium Routes (10, 25] (mins)", {3.44, 3.51, 3.58, 3.42}, {1.39, 1.27, 1.26, 1.23}, 109},
    {"Long Routes (25, 80] (mins)", {3.11, 3.98, 3.45, 3.54}, {1.36, 1.13, 1.44, 1.14}, 62},
};

/// Table 2 (Melbourne residents only).
inline constexpr PaperRow kPaperTable2[] = {
    {"Melbourne residents", {3.55, 3.69, 3.70, 3.66}, {1.28, 1.17, 1.22, 1.12}, 156},
    {"Small Routes (0, 10] (mins)", {3.50, 3.42, 3.68, 3.97}, {1.16, 1.27, 1.25, 0.99}, 38},
    {"Medium Routes (10, 25] (mins)", {3.64, 3.70, 3.78, 3.55}, {1.28, 1.14, 1.13, 1.17}, 83},
    {"Long Routes (25, 80] (mins)", {3.40, 3.97, 3.54, 3.60}, {1.42, 1.10, 1.44, 1.09}, 35},
};

/// Table 3 (non-residents only).
inline constexpr PaperRow kPaperTable3[] = {
    {"Non-residents", {3.04, 3.51, 3.34, 3.37}, {1.37, 1.38, 1.37, 1.25}, 81},
    {"Small Routes (0, 10] (mins)", {3.57, 3.57, 3.71, 3.61}, {1.20, 1.29, 1.08, 1.17}, 28},
    {"Medium Routes (10, 25] (mins)", {2.81, 2.92, 2.96, 3.00}, {1.55, 1.47, 1.48, 1.33}, 26},
    {"Long Routes (25, 80] (mins)", {2.74, 4.00, 3.33, 3.48}, {1.23, 1.21, 1.47, 1.22}, 27},
};

/// ANOVA p-values reported in Sec. 4.1.
inline constexpr double kPaperAnovaAll = 0.16;
inline constexpr double kPaperAnovaResidents = 0.68;
inline constexpr double kPaperAnovaNonResidents = 0.18;

/// Prints one paper-vs-measured comparison row pair.
inline void PrintComparisonRow(const PaperRow& paper, const TableRow& measured) {
  std::printf("  %-30s   paper:", paper.label);
  for (int a = 0; a < kNumApproaches; ++a) {
    std::printf(" %.2f(%.2f)", paper.mean[static_cast<size_t>(a)],
                paper.sd[static_cast<size_t>(a)]);
  }
  std::printf("  n=%d\n", paper.n);
  std::printf("  %-29s measured:", "");
  for (int a = 0; a < kNumApproaches; ++a) {
    std::printf(" %.2f(%.2f)", measured.mean[static_cast<size_t>(a)],
                measured.sd[static_cast<size_t>(a)]);
  }
  std::printf("  n=%d\n", measured.num_responses);

  // Shape diagnostics: who wins, and the Google-vs-best-OSM gap.
  auto best_of = [](const std::array<double, kNumApproaches>& m) {
    int best = 0;
    for (int a = 1; a < kNumApproaches; ++a) {
      if (m[static_cast<size_t>(a)] > m[static_cast<size_t>(best)]) best = a;
    }
    return best;
  };
  const int paper_best = best_of(paper.mean);
  const int measured_best = measured.best_approach;
  std::printf("  %-30s    shape: paper best = %s, measured best = %s%s\n\n",
              "", std::string(ApproachName(static_cast<Approach>(paper_best))).c_str(),
              std::string(ApproachName(static_cast<Approach>(measured_best))).c_str(),
              paper_best == measured_best ? "  [match]" : "");
}

}  // namespace bench
}  // namespace altroute
