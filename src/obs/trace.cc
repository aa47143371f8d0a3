#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace altroute {
namespace obs {

TraceSpan::TraceSpan(Trace* trace, std::string name) : trace_(trace) {
  if (trace_ == nullptr) return;
  id_ = trace_->StartSpan(std::move(name));
  ended_ = false;
}

TraceSpan::~TraceSpan() { End(); }

SearchStats* TraceSpan::stats() {
  if (trace_ == nullptr || ended_) return nullptr;
  return &trace_->spans_[id_].stats;
}

void TraceSpan::SetAttr(const std::string& key, std::string value) {
  if (trace_ == nullptr || ended_) return;
  auto& attrs = trace_->spans_[id_].attrs;
  for (auto& [k, v] : attrs) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  attrs.emplace_back(key, std::move(value));
}

void TraceSpan::End() {
  if (trace_ == nullptr || ended_) return;
  trace_->EndSpan(id_);
  ended_ = true;
}

Trace::Trace() : epoch_(std::chrono::steady_clock::now()) {}

double Trace::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

size_t Trace::StartSpan(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_ms = NowMs();
  span.parent = open_.empty() ? kNoParent : open_.back();
  const size_t id = spans_.size();
  if (span.parent == kNoParent) {
    roots_.push_back(id);
  } else {
    spans_[span.parent].children.push_back(id);
  }
  spans_.push_back(std::move(span));
  open_.push_back(id);
  return id;
}

void Trace::EndSpan(size_t id) {
  Span& span = spans_[id];
  span.duration_ms = NowMs() - span.start_ms;
  span.open = false;
  // Spans are RAII-scoped, so the one being ended is normally on top; a
  // mis-nested early End() just removes it from wherever it sits.
  auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

double Trace::RootDurationMs() const {
  if (roots_.empty()) return 0.0;
  const Span& root = spans_[roots_.front()];
  return root.open ? NowMs() - root.start_ms : root.duration_ms;
}

namespace {

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double v, std::string* out) {
  std::ostringstream os;
  os << v;
  *out += os.str();
}

void AppendStats(const SearchStats& s, std::string* out) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nodes_settled\":%llu,\"edges_relaxed\":%llu,"
                "\"heap_pushes\":%llu,\"heap_pops\":%llu,"
                "\"paths_generated\":%llu,\"paths_rejected_stretch\":%llu,"
                "\"paths_rejected_similarity\":%llu,"
                "\"paths_rejected_filter\":%llu,\"iterations\":%llu,"
                "\"trees_built\":%llu}",
                static_cast<unsigned long long>(s.nodes_settled),
                static_cast<unsigned long long>(s.edges_relaxed),
                static_cast<unsigned long long>(s.heap_pushes),
                static_cast<unsigned long long>(s.heap_pops),
                static_cast<unsigned long long>(s.paths_generated),
                static_cast<unsigned long long>(s.paths_rejected_stretch),
                static_cast<unsigned long long>(s.paths_rejected_similarity),
                static_cast<unsigned long long>(s.paths_rejected_filter),
                static_cast<unsigned long long>(s.iterations),
                static_cast<unsigned long long>(s.trees_built));
  *out += buf;
}

}  // namespace

void Trace::AppendSpanJson(size_t id, std::string* out) const {
  const Span& span = spans_[id];
  *out += "{\"name\":";
  AppendEscaped(span.name, out);
  *out += ",\"start_ms\":";
  AppendNumber(span.start_ms, out);
  *out += ",\"duration_ms\":";
  AppendNumber(span.open ? NowMs() - span.start_ms : span.duration_ms, out);
  if (!span.attrs.empty()) {
    *out += ",\"attrs\":{";
    bool first = true;
    for (const auto& [k, v] : span.attrs) {
      if (!first) *out += ",";
      first = false;
      AppendEscaped(k, out);
      *out += ":";
      AppendEscaped(v, out);
    }
    *out += "}";
  }
  if (!span.stats.IsZero()) {
    *out += ",\"stats\":";
    AppendStats(span.stats, out);
  }
  if (!span.children.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < span.children.size(); ++i) {
      if (i > 0) *out += ",";
      AppendSpanJson(span.children[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

std::string Trace::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < roots_.size(); ++i) {
    if (i > 0) out += ",";
    AppendSpanJson(roots_[i], &out);
  }
  out += "]";
  return out;
}

}  // namespace obs
}  // namespace altroute
