// A small recursive-descent JSON reader for the repo's own machine-readable
// artifacts: committed BENCH_*.json baselines, and the slow-query and
// ratings JSONL logs replayed on restart.
// It parses a complete document into a JsonValue tree and never throws —
// malformed input yields Status::InvalidArgument, exactly like the other
// hardened parsers in util/string_util.h.
//
// Deliberately scoped: UTF-8 passes through verbatim, \u escapes outside
// the Latin-1 range are rejected (the repo's writers never emit them), and
// depth is capped so hostile input cannot blow the stack.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace altroute {

/// One parsed JSON value. Objects keep their keys sorted (std::map): the
/// repo's writers emit deterministic key orders, so round-trip comparisons
/// in tests stay stable.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; the Kind must match (programmer error otherwise,
  /// checked in debug builds). Use the Get* helpers for tolerant access.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::map<std::string, JsonValue>& AsObject() const;

  /// Object member lookup; nullptr when this is not an object or the key is
  /// absent.
  const JsonValue* Find(std::string_view key) const;

  /// Tolerant typed member access: the fallback when this is not an object,
  /// the key is absent, or the member has another type.
  double GetNumber(std::string_view key, double fallback) const;
  std::string GetString(std::string_view key,
                        const std::string& fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;

  static JsonValue MakeNull();
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double d);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one complete JSON document (trailing garbage after the value is an
/// error). InvalidArgument on any syntax error, with a byte offset in the
/// message.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace altroute
