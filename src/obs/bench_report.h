// Machine-readable benchmark results: the schema behind the committed
// BENCH_*.json baselines that track the serving stack's performance
// trajectory across PRs (ROADMAP: every optimisation PR must prove its
// before/after numbers).
//
// A BenchReport is one bench binary's output: a list of entries, each with
// wall-time percentiles (p50/p95/p99 over per-iteration samples) plus named
// work counters (settled nodes, requests/s, ...). Reports serialize to a
// stable JSON layout, parse back (for tools/bench_compare and tests), and
// diff against a baseline: a p99 regression threshold, and exact agreement
// of the work counters.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace altroute {
namespace obs {

/// The schema version written to and required from BENCH_*.json files.
/// Bump on any incompatible layout change; bench_compare hard-fails on a
/// mismatch so a stale baseline can never silently pass.
inline constexpr int kBenchSchemaVersion = 1;

/// Results of one named benchmark case (one kernel / generator / thread
/// count at one city size).
struct BenchEntry {
  std::string name;
  /// Number of timed iterations behind the percentiles.
  uint64_t samples = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  /// Named work counters (nodes_settled, requests_per_s, ...), averaged per
  /// iteration unless the key says otherwise.
  std::map<std::string, double> counters;
};

/// One bench binary's complete output.
struct BenchReport {
  int schema_version = kBenchSchemaVersion;
  /// Which harness produced this ("perf_routing", "perf_engines",
  /// "perf_server") — compared reports must match.
  std::string bench;
  /// "smoke" (CI-sized) or "full"; informational, recorded in the JSON.
  std::string mode;
  std::vector<BenchEntry> entries;

  /// Pretty-printed JSON (stable key order, trailing newline) — the exact
  /// bytes committed as BENCH_<bench>.json.
  std::string ToJson() const;

  /// Parses ToJson() output. InvalidArgument on malformed JSON or a layout
  /// that is not a bench report; a wrong schema_version is FailedPrecondition
  /// so callers can distinguish "stale schema" from "garbage".
  static Result<BenchReport> FromJson(std::string_view json);

  Status WriteFile(const std::string& path) const;
  static Result<BenchReport> ReadFile(const std::string& path);

  /// Entry lookup by name; nullptr when absent.
  const BenchEntry* Find(std::string_view name) const;
};

/// Percentile (q in [0,1]) of `samples_ms` by nearest-rank on a sorted copy;
/// 0 when empty.
double PercentileMs(std::vector<double> samples_ms, double q);

/// The work counters CompareBenchReports gates (the SearchStats the benches
/// flatten): the same work gives the same counts on any host.
inline constexpr std::array<std::string_view, 7> kWorkCounters = {
    "nodes_settled",   "edges_relaxed",  "heap_pushes", "heap_pops",
    "paths_generated", "paths_rejected", "trees_built"};

struct CompareOptions {
  /// A new p99 above old_p99 * (1 + max_p99_regression_pct/100) is a
  /// regression.
  double max_p99_regression_pct = 10.0;
};

/// One detected regression (or coverage loss) between two reports.
struct BenchRegression {
  std::string entry;  // entry name
  /// "p99", "missing" (the entry), or the key of a drifted work counter.
  std::string what;
  /// Baseline and candidate p99 ms (0 for a missing entry), or counter
  /// values (NaN on the side whose row lacks the counter).
  double old_value = 0.0;
  double new_value = 0.0;
  double pct = 0.0;  // relative p99 change in percent
  /// A work counter that differs at the written precision or is missing
  /// from one of the two rows. Unlike p99, never advisory.
  bool counter_drift = false;
  std::string ToString() const;
};

/// Diffs `candidate` against `baseline`. Schema/bench mismatches return
/// FailedPrecondition (hard error even in warn-only CI); otherwise the list
/// of regressions — entries whose p99 exceeds the threshold, baseline
/// entries missing from the candidate (silent coverage loss must not read
/// as "no regression"), and kWorkCounters that drifted between the two
/// rows of an entry. Entries new in the candidate are fine, and so are
/// counters outside kWorkCounters (rates such as requests_per_s).
Result<std::vector<BenchRegression>> CompareBenchReports(
    const BenchReport& baseline, const BenchReport& candidate,
    const CompareOptions& options);

}  // namespace obs
}  // namespace altroute
