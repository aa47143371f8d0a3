// Slow-query forensics: keeps the most recent requests and the worst
// offenders in lock-cheap in-memory ring buffers, and — above a configurable
// threshold — appends one structured JSONL record per offender to a
// crash-safe log (same append/heal idiom as RatingStore: flush before
// visibility, torn trailing lines skipped and counted on replay).
//
// A record carries everything needed to reconstruct where a slow request's
// time went without reproducing it: request id, city, raw query params, the
// phase breakdown (obs::RequestProfile's laps summed by name, `unattributed`
// included), per-engine wall time + SearchStats + status, the deadline
// budget remaining when the response was finished, and the degraded flag.
// Surfaced over HTTP as GET /debug/slow (worst) and GET /debug/requests
// (recent).
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/search_stats.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace altroute {

/// One engine's share of a recorded request.
struct SlowQueryEngine {
  std::string name;
  /// "ok" or the snake_case failure code ("deadline_exceeded", ...).
  std::string status = "ok";
  double elapsed_ms = 0.0;
  obs::SearchStats stats;
};

/// One fully-attributed request record.
struct SlowQueryRecord {
  std::string request_id;
  std::string city;
  /// Raw request parameters (slat/slng/tlat/tlng/...), bounded by the
  /// handler — never unfiltered client input.
  std::map<std::string, std::string> params;
  double total_ms = 0.0;
  /// Phase name -> milliseconds, in recorded order.
  std::vector<std::pair<std::string, double>> phases;
  std::vector<SlowQueryEngine> engines;
  /// Request-deadline budget left when the response was finished; negative
  /// when the request ran without a deadline.
  double budget_remaining_ms = -1.0;
  bool degraded = false;
};

/// Serializes a record as a single JSONL line (no trailing newline).
std::string SlowQueryRecordToJsonLine(const SlowQueryRecord& record);

/// Parses a line produced by SlowQueryRecordToJsonLine. InvalidArgument on
/// malformed or truncated input.
Result<SlowQueryRecord> ParseSlowQueryRecordJsonLine(std::string_view line);

/// Thread-safe request forensics store. The critical section per Add() is a
/// couple of deque operations plus (for offenders only) one buffered file
/// append — cheap next to the request that was just timed.
class SlowQueryLog {
 public:
  struct Options {
    /// Recent-request ring capacity (GET /debug/requests).
    size_t recent_capacity = 64;
    /// Worst-request list capacity (GET /debug/slow).
    size_t worst_capacity = 32;
    /// Requests STRICTLY slower than this are offenders: logged to the
    /// attached file and counted. A request taking exactly threshold_ms is
    /// not an offender. <= 0 disables offender logging (the rings still
    /// record everything).
    double threshold_ms = 0.0;
  };

  SlowQueryLog() = default;
  explicit SlowQueryLog(Options options) : options_(options) {}

  /// Enables persistence: replays offender records from `path` into the
  /// worst list (so /debug/slow survives a restart), heals a torn trailing
  /// line, then keeps the file open for appending. Corrupt lines are
  /// skipped and counted, never fatal. IOError only when the file cannot be
  /// opened for append.
  Status AttachFile(const std::string& path);

  /// Lines skipped during the last AttachFile() replay.
  size_t corrupt_lines_recovered() const;

  /// Records one finished request: always enters the recent ring and
  /// competes for the worst list; when it exceeds the threshold it is also
  /// appended (and flushed) to the attached file. Returns true when the
  /// record was an offender.
  bool Add(const SlowQueryRecord& record);

  /// Recent requests, newest first.
  std::vector<SlowQueryRecord> Recent() const;

  /// Worst requests by total_ms, slowest first.
  std::vector<SlowQueryRecord> Worst() const;

  /// Offenders recorded since construction (threshold crossings, whether or
  /// not a file is attached).
  uint64_t offenders_total() const;

  /// Snapshot of the current options. By value: set_threshold_ms() mutates
  /// options_ under mu_ at runtime, so handing out a reference would let the
  /// caller read a field mid-write.
  Options options() const {
    MutexLock lock(&mu_);
    return options_;
  }
  void set_threshold_ms(double ms) {
    MutexLock lock(&mu_);
    options_.threshold_ms = ms;
  }

 private:
  mutable Mutex mu_;
  Options options_ ALT_GUARDED_BY(mu_);
  std::deque<SlowQueryRecord> recent_ ALT_GUARDED_BY(mu_);  // newest at back
  std::vector<SlowQueryRecord> worst_
      ALT_GUARDED_BY(mu_);  // sorted slowest-first
  uint64_t offenders_ ALT_GUARDED_BY(mu_) = 0;
  std::ofstream log_ ALT_GUARDED_BY(mu_);  // open iff a file is attached
  size_t corrupt_lines_ ALT_GUARDED_BY(mu_) = 0;

  void InsertWorstLocked(const SlowQueryRecord& record) ALT_REQUIRES(mu_);
};

}  // namespace altroute
