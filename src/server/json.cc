#include "server/json.h"

#include <cmath>
#include <cstdio>

#include "util/check.h"
#include "util/logging.h"

namespace altroute {

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) return;
  char& top = stack_.back();
  if (top == 'A') {
    if (!first_in_container_) out_ << ",";
    first_in_container_ = false;
  } else if (top == 'o') {
    top = 'O';  // value written; next comes a key
  } else {
    ALT_DCHECK(false) << "JSON value written where key expected";
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ << "{";
  stack_.push_back('O');
  first_in_container_ = true;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  ALT_DCHECK(!stack_.empty() && stack_.back() == 'O');
  stack_.pop_back();
  out_ << "}";
  first_in_container_ = false;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ << "[";
  stack_.push_back('A');
  first_in_container_ = true;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  ALT_DCHECK(!stack_.empty() && stack_.back() == 'A');
  stack_.pop_back();
  out_ << "]";
  first_in_container_ = false;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  ALT_DCHECK(!stack_.empty() && stack_.back() == 'O');
  if (!first_in_container_) out_ << ",";
  first_in_container_ = false;
  out_ << '"' << Escape(key) << "\":";
  stack_.back() = 'o';
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ << '"' << Escape(value) << '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  if (std::isfinite(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    out_ << buf;
  } else {
    out_ << "null";  // JSON has no Inf/NaN
  }
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ << value;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  out_ << "null";
  return *this;
}

JsonWriter& JsonWriter::RawValue(std::string_view json) {
  ALT_DCHECK(!json.empty()) << "raw JSON value must not be empty";
  BeforeValue();
  out_ << json;
  return *this;
}

std::string JsonWriter::TakeString() {
  ALT_DCHECK(stack_.empty()) << "unclosed JSON containers";
  return out_.str();
}

void WriteSearchStats(JsonWriter& w, const obs::SearchStats& stats) {
  w.BeginObject();
  w.Key("nodes_settled").Int(static_cast<int64_t>(stats.nodes_settled));
  w.Key("edges_relaxed").Int(static_cast<int64_t>(stats.edges_relaxed));
  w.Key("heap_pushes").Int(static_cast<int64_t>(stats.heap_pushes));
  w.Key("heap_pops").Int(static_cast<int64_t>(stats.heap_pops));
  w.Key("paths_generated").Int(static_cast<int64_t>(stats.paths_generated));
  w.Key("paths_rejected")
      .Int(static_cast<int64_t>(stats.paths_rejected_total()));
  w.Key("iterations").Int(static_cast<int64_t>(stats.iterations));
  w.Key("trees_built").Int(static_cast<int64_t>(stats.trees_built));
  w.EndObject();
}

}  // namespace altroute
