#include "server/slow_query_log.h"

#include <algorithm>
#include <utility>

#include "server/json.h"
#include "util/json_parse.h"
#include "util/string_util.h"

namespace altroute {

namespace {

uint64_t StatsField(const JsonValue& object, const char* key) {
  const double value = object.GetNumber(key, 0.0);
  return value > 0.0 ? static_cast<uint64_t>(value) : 0;
}

}  // namespace

std::string SlowQueryRecordToJsonLine(const SlowQueryRecord& record) {
  JsonWriter w;
  w.BeginObject();
  w.Key("request_id").String(record.request_id);
  w.Key("city").String(record.city);
  w.Key("params").BeginObject();
  for (const auto& [key, value] : record.params) {
    w.Key(key).String(value);
  }
  w.EndObject();
  w.Key("total_ms").Number(record.total_ms);
  // An array, not an object: recorded order is part of the data (it is the
  // request's execution order) and JSON object members have no order.
  w.Key("phases").BeginArray();
  for (const auto& [name, ms] : record.phases) {
    w.BeginObject();
    w.Key("name").String(name);
    w.Key("ms").Number(ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("engines").BeginArray();
  for (const SlowQueryEngine& engine : record.engines) {
    w.BeginObject();
    w.Key("name").String(engine.name);
    w.Key("status").String(engine.status);
    w.Key("elapsed_ms").Number(engine.elapsed_ms);
    w.Key("stats");
    WriteSearchStats(w, engine.stats);
    w.EndObject();
  }
  w.EndArray();
  w.Key("budget_remaining_ms").Number(record.budget_remaining_ms);
  w.Key("degraded").Bool(record.degraded);
  w.EndObject();
  return w.TakeString();
}

Result<SlowQueryRecord> ParseSlowQueryRecordJsonLine(std::string_view line) {
  ALTROUTE_ASSIGN_OR_RETURN(JsonValue root, ParseJson(Trim(line)));
  if (!root.is_object()) {
    return Status::InvalidArgument("slow-query record must be a JSON object");
  }
  SlowQueryRecord record;
  record.request_id = root.GetString("request_id", "");
  record.city = root.GetString("city", "");
  if (record.request_id.empty() && record.city.empty()) {
    return Status::InvalidArgument("not a slow-query record");
  }
  if (const JsonValue* params = root.Find("params");
      params != nullptr && params->is_object()) {
    for (const auto& [key, value] : params->AsObject()) {
      if (value.is_string()) record.params[key] = value.AsString();
    }
  }
  record.total_ms = root.GetNumber("total_ms", 0.0);
  if (const JsonValue* phases = root.Find("phases");
      phases != nullptr && phases->is_array()) {
    for (const JsonValue& item : phases->AsArray()) {
      if (!item.is_object()) continue;
      const std::string name = item.GetString("name", "");
      if (!name.empty()) {
        record.phases.emplace_back(name, item.GetNumber("ms", 0.0));
      }
    }
  }
  if (const JsonValue* engines = root.Find("engines");
      engines != nullptr && engines->is_array()) {
    for (const JsonValue& item : engines->AsArray()) {
      if (!item.is_object()) {
        return Status::InvalidArgument("slow-query engine must be an object");
      }
      SlowQueryEngine engine;
      engine.name = item.GetString("name", "");
      engine.status = item.GetString("status", "ok");
      engine.elapsed_ms = item.GetNumber("elapsed_ms", 0.0);
      if (const JsonValue* stats = item.Find("stats");
          stats != nullptr && stats->is_object()) {
        engine.stats.nodes_settled = StatsField(*stats, "nodes_settled");
        engine.stats.edges_relaxed = StatsField(*stats, "edges_relaxed");
        engine.stats.heap_pushes = StatsField(*stats, "heap_pushes");
        engine.stats.heap_pops = StatsField(*stats, "heap_pops");
        engine.stats.paths_generated = StatsField(*stats, "paths_generated");
        // The writer flattens the three rejection counters into one total;
        // replay stores it in the filter bucket so paths_rejected_total()
        // round-trips.
        engine.stats.paths_rejected_filter =
            StatsField(*stats, "paths_rejected");
        engine.stats.iterations = StatsField(*stats, "iterations");
        engine.stats.trees_built = StatsField(*stats, "trees_built");
      }
      record.engines.push_back(std::move(engine));
    }
  }
  record.budget_remaining_ms = root.GetNumber("budget_remaining_ms", -1.0);
  record.degraded = root.GetBool("degraded", false);
  return record;
}

Status SlowQueryLog::AttachFile(const std::string& path) {
  MutexLock lock(&mu_);
  corrupt_lines_ = 0;
  {
    // Replay what the previous process persisted so /debug/slow survives a
    // restart. Missing file: first run. Unparseable line: count and skip —
    // a torn tail from a crash mid-append must never block startup.
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (Trim(line).empty()) continue;
      auto parsed = ParseSlowQueryRecordJsonLine(line);
      if (parsed.ok()) {
        InsertWorstLocked(*parsed);
      } else {
        ++corrupt_lines_;
      }
    }
  }
  // Heal a torn final line (crash between the record and its newline) so the
  // next append starts a fresh line instead of corrupting two records.
  bool needs_newline = false;
  {
    std::ifstream tail(path, std::ios::binary);
    if (tail.is_open() && tail.seekg(-1, std::ios::end)) {
      char last = '\n';
      if (tail.get(last)) needs_newline = last != '\n';
    }
  }
  log_.open(path, std::ios::out | std::ios::app);
  if (!log_.is_open()) {
    return Status::IOError("cannot open slow-query log for append: " + path);
  }
  if (needs_newline) {
    log_ << '\n';
    log_.flush();
  }
  return Status::OK();
}

size_t SlowQueryLog::corrupt_lines_recovered() const {
  MutexLock lock(&mu_);
  return corrupt_lines_;
}

void SlowQueryLog::InsertWorstLocked(const SlowQueryRecord& record) {
  if (options_.worst_capacity == 0) return;
  // Sorted insert, slowest first; ties keep the earlier record (stable for
  // the eviction tests and for operators re-reading the page).
  auto it = std::upper_bound(worst_.begin(), worst_.end(), record,
                             [](const SlowQueryRecord& a,
                                const SlowQueryRecord& b) {
                               return a.total_ms > b.total_ms;
                             });
  worst_.insert(it, record);
  if (worst_.size() > options_.worst_capacity) worst_.pop_back();
}

bool SlowQueryLog::Add(const SlowQueryRecord& record) {
  MutexLock lock(&mu_);
  recent_.push_back(record);
  while (recent_.size() > options_.recent_capacity) recent_.pop_front();
  InsertWorstLocked(record);
  // Strictly greater: a request taking exactly threshold_ms is within
  // budget, not an offender.
  const bool offender =
      options_.threshold_ms > 0.0 && record.total_ms > options_.threshold_ms;
  if (!offender) return false;
  ++offenders_;
  if (log_.is_open()) {
    // Durability before visibility, as in RatingStore: flush so a crash can
    // lose at most the in-flight record.
    log_ << SlowQueryRecordToJsonLine(record) << '\n';
    log_.flush();
    if (!log_.good()) log_.clear();  // degrade to in-memory only
  }
  return true;
}

std::vector<SlowQueryRecord> SlowQueryLog::Recent() const {
  MutexLock lock(&mu_);
  return std::vector<SlowQueryRecord>(recent_.rbegin(), recent_.rend());
}

std::vector<SlowQueryRecord> SlowQueryLog::Worst() const {
  MutexLock lock(&mu_);
  return worst_;
}

uint64_t SlowQueryLog::offenders_total() const {
  MutexLock lock(&mu_);
  return offenders_;
}

}  // namespace altroute
