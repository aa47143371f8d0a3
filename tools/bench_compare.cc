// bench_compare: diffs two BENCH_perf_*.json reports and fails on p99
// regressions and on work-counter drift, so the committed baselines at the
// repo root act as a performance ratchet in CI.
//
//   bench_compare OLD.json NEW.json [--max-p99-regression-pct PCT]
//                 [--warn-only]
//
// Exit codes:
//   0  no regression (or --warn-only suppressed one)
//   1  at least one entry regressed (p99 above the threshold, or an entry
//      present in OLD is missing from NEW), or a work counter
//      (obs::kWorkCounters) drifted — drift is never suppressed by
//      --warn-only: wall time varies by host, the work done does not
//   2  schema/parse error (unreadable file, wrong schema_version, or the
//      two reports are from different benches) — never suppressed by
//      --warn-only, so CI catches format drift even in advisory mode.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "util/string_util.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRegression = 1;
constexpr int kExitSchemaError = 2;

void Usage() {
  std::fprintf(
      stderr,
      "usage: bench_compare OLD.json NEW.json\n"
      "         [--max-p99-regression-pct PCT]   allowed p99 growth (default "
      "10)\n"
      "         [--warn-only]                    print p99 regressions but "
      "exit 0\n"
      "\n"
      "Compares two BENCH_perf_*.json reports (see bench/*.cc --bench-json).\n"
      "Exit 1 on regression or work-counter drift (even with --warn-only),\n"
      "2 on schema mismatch or unreadable input.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  altroute::obs::CompareOptions options;
  bool warn_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--warn-only") {
      warn_only = true;
    } else if (arg == "--max-p99-regression-pct") {
      if (i + 1 >= argc) {
        Usage();
        return kExitSchemaError;
      }
      auto pct = altroute::ParseDouble(argv[++i]);
      if (!pct.ok() || *pct < 0.0) {
        std::fprintf(stderr, "bench_compare: bad --max-p99-regression-pct\n");
        return kExitSchemaError;
      }
      options.max_p99_regression_pct = *pct;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return kExitOk;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    Usage();
    return kExitSchemaError;
  }

  auto old_report = altroute::obs::BenchReport::ReadFile(positional[0]);
  if (!old_report.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 old_report.status().ToString().c_str());
    return kExitSchemaError;
  }
  auto new_report = altroute::obs::BenchReport::ReadFile(positional[1]);
  if (!new_report.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 new_report.status().ToString().c_str());
    return kExitSchemaError;
  }

  auto regressions_or = altroute::obs::CompareBenchReports(
      *old_report, *new_report, options);
  if (!regressions_or.ok()) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 regressions_or.status().ToString().c_str());
    return kExitSchemaError;
  }

  std::printf("bench_compare: %s (%s -> %s), %zu entr%s, threshold +%.1f%% "
              "p99\n",
              old_report->bench.c_str(), positional[0].c_str(),
              positional[1].c_str(), new_report->entries.size(),
              new_report->entries.size() == 1 ? "y" : "ies",
              options.max_p99_regression_pct);
  for (const auto& entry : new_report->entries) {
    const altroute::obs::BenchEntry* old_entry = old_report->Find(entry.name);
    if (old_entry == nullptr) {
      std::printf("  %-40s p99 %10.3f ms  (new entry)\n", entry.name.c_str(),
                  entry.p99_ms);
      continue;
    }
    const double pct =
        old_entry->p99_ms > 0.0
            ? (entry.p99_ms - old_entry->p99_ms) / old_entry->p99_ms * 100.0
            : 0.0;
    std::printf("  %-40s p99 %10.3f -> %10.3f ms  (%+.1f%%)\n",
                entry.name.c_str(), old_entry->p99_ms, entry.p99_ms, pct);
  }

  if (regressions_or->empty()) {
    std::printf("bench_compare: OK, no p99 regressions, no counter drift\n");
    return kExitOk;
  }
  size_t drifted = 0;
  for (const auto& regression : *regressions_or) {
    std::fprintf(stderr, "%s: %s\n",
                 regression.counter_drift ? "COUNTER DRIFT" : "REGRESSION",
                 regression.ToString().c_str());
    if (regression.counter_drift) ++drifted;
  }
  if (drifted > 0) {
    std::fprintf(stderr, "bench_compare: %zu work counter(s) drifted\n",
                 drifted);
    return kExitRegression;
  }
  if (warn_only) {
    std::fprintf(stderr,
                 "bench_compare: %zu regression(s) (suppressed by "
                 "--warn-only)\n",
                 regressions_or->size());
    return kExitOk;
  }
  std::fprintf(stderr, "bench_compare: %zu regression(s)\n",
               regressions_or->size());
  return kExitRegression;
}
