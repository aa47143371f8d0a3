// Streaming JSON writer for the demo backend's responses. Writer-only by
// design: the demo's inbound data arrives as URL query parameters.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/search_stats.h"

namespace altroute {

/// Emits syntactically valid JSON. Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("routes"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
///   std::string out = w.TakeString();
/// Misuse (e.g. a value where a key is required) is a programmer error and
/// asserts in debug builds.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();
  /// Splices `json` verbatim as the next value. The caller vouches that it is
  /// a complete, valid JSON value (used to embed pre-rendered records).
  JsonWriter& RawValue(std::string_view json);

  /// The completed document. Precondition: all containers closed.
  std::string TakeString();

  /// Escapes a string per RFC 8259 (quotes, backslash, control chars).
  static std::string Escape(std::string_view s);

 private:
  void BeforeValue();

  std::ostringstream out_;
  // Container stack: 'O' object expecting key, 'o' object expecting value,
  // 'A' array.
  std::vector<char> stack_;
  bool first_in_container_ = true;
};

/// Writes `stats` as one object: the counters slow-query records and the
/// engine laps of a ?trace=1 body report.
void WriteSearchStats(JsonWriter& w, const obs::SearchStats& stats);

}  // namespace altroute
