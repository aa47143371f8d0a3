#include "obs/bench_report.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/json_parse.h"

namespace altroute {
namespace obs {

namespace {

/// Numbers in the committed baselines (times and counters): fixed-point,
/// enough digits that a sub-microsecond kernel still round-trips
/// meaningfully, no locale issues.
std::string FormatMs(double ms) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << ms;
  return out.str();
}

}  // namespace

std::string BenchReport::ToJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << schema_version << ",\n";
  out << "  \"bench\": \"" << bench << "\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"entries\": [";
  bool first_entry = true;
  for (const BenchEntry& e : entries) {
    out << (first_entry ? "\n" : ",\n");
    first_entry = false;
    out << "    {\n";
    out << "      \"name\": \"" << e.name << "\",\n";
    out << "      \"samples\": " << e.samples << ",\n";
    out << "      \"p50_ms\": " << FormatMs(e.p50_ms) << ",\n";
    out << "      \"p95_ms\": " << FormatMs(e.p95_ms) << ",\n";
    out << "      \"p99_ms\": " << FormatMs(e.p99_ms) << ",\n";
    out << "      \"mean_ms\": " << FormatMs(e.mean_ms) << ",\n";
    out << "      \"counters\": {";
    bool first_counter = true;
    for (const auto& [key, value] : e.counters) {
      out << (first_counter ? "" : ", ");
      first_counter = false;
      out << "\"" << key << "\": " << FormatMs(value);
    }
    out << "}\n";
    out << "    }";
  }
  out << (entries.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

Result<BenchReport> BenchReport::FromJson(std::string_view json) {
  ALTROUTE_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("bench report must be a JSON object");
  }
  const JsonValue* version = root.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument("bench report lacks schema_version");
  }
  BenchReport report;
  report.schema_version = static_cast<int>(version->AsNumber());
  if (report.schema_version != kBenchSchemaVersion) {
    return Status::FailedPrecondition(
        "bench report schema_version " +
        std::to_string(report.schema_version) + " != supported " +
        std::to_string(kBenchSchemaVersion));
  }
  report.bench = root.GetString("bench", "");
  report.mode = root.GetString("mode", "");
  if (report.bench.empty()) {
    return Status::InvalidArgument("bench report lacks a bench name");
  }
  const JsonValue* entries = root.Find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return Status::InvalidArgument("bench report lacks an entries array");
  }
  for (const JsonValue& item : entries->AsArray()) {
    if (!item.is_object()) {
      return Status::InvalidArgument("bench entry must be an object");
    }
    BenchEntry e;
    e.name = item.GetString("name", "");
    if (e.name.empty()) {
      return Status::InvalidArgument("bench entry lacks a name");
    }
    e.samples = static_cast<uint64_t>(item.GetNumber("samples", 0.0));
    e.p50_ms = item.GetNumber("p50_ms", 0.0);
    e.p95_ms = item.GetNumber("p95_ms", 0.0);
    e.p99_ms = item.GetNumber("p99_ms", 0.0);
    e.mean_ms = item.GetNumber("mean_ms", 0.0);
    if (const JsonValue* counters = item.Find("counters");
        counters != nullptr && counters->is_object()) {
      for (const auto& [key, value] : counters->AsObject()) {
        if (value.is_number()) e.counters[key] = value.AsNumber();
      }
    }
    report.entries.push_back(std::move(e));
  }
  return report;
}

Status BenchReport::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IOError("cannot open bench report for writing: " + path);
  }
  out << ToJson();
  out.flush();
  if (!out.good()) {
    return Status::IOError("failed to write bench report: " + path);
  }
  return Status::OK();
}

Result<BenchReport> BenchReport::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open bench report: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto report = FromJson(buf.str());
  if (!report.ok()) {
    return Status(report.status().code(),
                  path + ": " + report.status().message());
  }
  return report;
}

const BenchEntry* BenchReport::Find(std::string_view name) const {
  for (const BenchEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

double PercentileMs(std::vector<double> samples_ms, double q) {
  if (samples_ms.empty()) return 0.0;
  std::sort(samples_ms.begin(), samples_ms.end());
  if (q <= 0.0) return samples_ms.front();
  if (q >= 1.0) return samples_ms.back();
  // Nearest-rank: the smallest sample with at least q of the mass at or
  // below it — robust for the small sample counts smoke mode produces.
  const double rank = q * static_cast<double>(samples_ms.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  if (index >= samples_ms.size()) index = samples_ms.size() - 1;
  return samples_ms[index];
}

std::string BenchRegression::ToString() const {
  if (counter_drift) {
    const auto value = [](double v) {
      return std::isnan(v) ? std::string("absent") : FormatMs(v);
    };
    return entry + ": work counter " + what + " " + value(old_value) +
           " -> " + value(new_value);
  }
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  if (what == "missing") {
    out << entry << ": present in baseline (p99 " << old_value
        << " ms) but missing from candidate";
  } else {
    out << entry << ": p99 " << old_value << " ms -> " << new_value << " ms (";
    if (pct >= 0.0) out << "+";
    out << pct << "%)";
  }
  return out.str();
}

Result<std::vector<BenchRegression>> CompareBenchReports(
    const BenchReport& baseline, const BenchReport& candidate,
    const CompareOptions& options) {
  if (baseline.bench != candidate.bench) {
    return Status::FailedPrecondition("bench name mismatch: baseline '" +
                                      baseline.bench + "' vs candidate '" +
                                      candidate.bench + "'");
  }
  std::vector<BenchRegression> regressions;
  for (const BenchEntry& old_entry : baseline.entries) {
    const BenchEntry* new_entry = candidate.Find(old_entry.name);
    if (new_entry == nullptr) {
      regressions.push_back(
          BenchRegression{old_entry.name, "missing", old_entry.p99_ms, 0.0,
                          0.0});
      continue;
    }
    const double allowed =
        old_entry.p99_ms * (1.0 + options.max_p99_regression_pct / 100.0);
    if (old_entry.p99_ms > 0.0 && new_entry->p99_ms > allowed) {
      const double pct =
          (new_entry->p99_ms / old_entry.p99_ms - 1.0) * 100.0;
      regressions.push_back(BenchRegression{old_entry.name, "p99",
                                            old_entry.p99_ms,
                                            new_entry->p99_ms, pct});
    }
    // Compared as written: a counter that round-trips through the JSON is
    // equal to itself.
    for (std::string_view key : kWorkCounters) {
      const auto old_it = old_entry.counters.find(std::string(key));
      const auto new_it = new_entry->counters.find(std::string(key));
      const bool in_old = old_it != old_entry.counters.end();
      const bool in_new = new_it != new_entry->counters.end();
      if (!in_old && !in_new) continue;
      const double nan = std::numeric_limits<double>::quiet_NaN();
      const double old_value = in_old ? old_it->second : nan;
      const double new_value = in_new ? new_it->second : nan;
      if (in_old && in_new && FormatMs(old_value) == FormatMs(new_value)) {
        continue;
      }
      BenchRegression drift{old_entry.name, std::string(key), old_value,
                            new_value};
      drift.counter_drift = true;
      regressions.push_back(std::move(drift));
    }
  }
  return regressions;
}

}  // namespace obs
}  // namespace altroute
