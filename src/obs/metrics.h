// Process-wide metrics: lock-cheap Counter/Gauge/Histogram instruments,
// labeled families (metric{approach="penalty_ch",city="Melbourne"}), and a
// registry that renders the Prometheus text exposition format.
//
// Design rules:
//  * Instrument updates are wait-free atomic adds (relaxed ordering) — safe
//    to call from any thread, cheap enough for per-relaxation call sites.
//  * Instruments are never unregistered; references returned by the
//    registry/families stay valid for the process lifetime.
//  * Registration (name -> instrument) takes a mutex; do it once at startup
//    and cache the reference, not per observation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace altroute {
namespace obs {

/// Monotonically increasing counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous value that can go up and down.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double delta);
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// RAII in-flight tracker: adds +1 to a gauge on construction and -1 on
/// destruction. Scope one over each unit of concurrent work (request,
/// checked-out context) to expose an instantaneous "how many right now".
class GaugeGuard {
 public:
  explicit GaugeGuard(Gauge& gauge) : gauge_(gauge) { gauge_.Add(1.0); }
  ~GaugeGuard() { gauge_.Add(-1.0); }
  GaugeGuard(const GaugeGuard&) = delete;
  GaugeGuard& operator=(const GaugeGuard&) = delete;

 private:
  Gauge& gauge_;
};

/// Returns `count` bucket upper bounds growing geometrically from `start`
/// by `factor` (the "log-bucketed" layout: constant relative error).
std::vector<double> ExponentialBuckets(double start, double factor, int count);

/// Histogram with fixed upper-bound buckets plus an implicit +Inf bucket.
/// Observations and reads are lock-free; reads under concurrent writes are
/// approximate (fine for monitoring).
class Histogram {
 public:
  /// `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts (bounds().size() + 1 entries, last is +Inf overflow);
  /// non-cumulative.
  std::vector<uint64_t> BucketCounts() const;

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// containing bucket; assumes non-negative observations. Returns 0 when
  /// empty. Values in the overflow bucket report the largest finite bound.
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// A family of instruments sharing a name and label keys, one instrument per
/// distinct label-value tuple. `WithLabels` is mutex-guarded; cache the
/// returned reference on hot paths.
template <typename T>
class Family {
 public:
  Family(std::string name, std::string help, std::vector<std::string> keys)
      : name_(std::move(name)), help_(std::move(help)), keys_(std::move(keys)) {}

  /// Instrument for one label-value tuple (sizes must match the key list).
  /// Creates it on first use. For Histogram families the bucket layout is
  /// supplied via the factory overload below.
  T& WithLabels(const std::vector<std::string>& values) {
    return WithLabels(values, [] { return std::make_unique<T>(); });
  }

  template <typename Factory>
  T& WithLabels(const std::vector<std::string>& values, Factory make) {
    MutexLock lock(&mu_);
    auto it = children_.find(values);
    if (it == children_.end()) {
      it = children_.emplace(values, make()).first;
    }
    return *it->second;
  }

  /// Number of distinct label tuples materialised so far.
  size_t Cardinality() const {
    MutexLock lock(&mu_);
    return children_.size();
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  const std::vector<std::string>& keys() const { return keys_; }

  /// Snapshot of (label values, instrument) pairs in deterministic order.
  std::vector<std::pair<std::vector<std::string>, const T*>> Children() const {
    MutexLock lock(&mu_);
    std::vector<std::pair<std::vector<std::string>, const T*>> out;
    out.reserve(children_.size());
    for (const auto& [labels, child] : children_) {
      out.emplace_back(labels, child.get());
    }
    return out;
  }

 private:
  std::string name_;
  std::string help_;
  std::vector<std::string> keys_;
  mutable Mutex mu_;
  std::map<std::vector<std::string>, std::unique_ptr<T>> children_
      ALT_GUARDED_BY(mu_);
};

using CounterFamily = Family<Counter>;
using GaugeFamily = Family<Gauge>;

/// Histogram family: all children share one bucket layout, fixed at family
/// construction.
class HistogramFamily : public Family<Histogram> {
 public:
  HistogramFamily(std::string name, std::string help,
                  std::vector<std::string> keys, std::vector<double> bounds)
      : Family<Histogram>(std::move(name), std::move(help), std::move(keys)),
        bounds_(std::move(bounds)) {}

  Histogram& WithLabels(const std::vector<std::string>& values) {
    return Family<Histogram>::WithLabels(
        values, [this] { return std::make_unique<Histogram>(bounds_); });
  }

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
};

/// Name -> instrument registry. One process-wide instance (`Global()`);
/// tests may construct private registries.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();  // out-of-line: Entry is incomplete here
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Get-or-create. Re-registering an existing name returns the existing
  /// instrument; a name registered as a different kind is a programmer
  /// error and CHECK-fails.
  Counter& GetCounter(const std::string& name, const std::string& help);
  Gauge& GetGauge(const std::string& name, const std::string& help);
  Histogram& GetHistogram(const std::string& name, const std::string& help,
                          std::vector<double> bounds);

  CounterFamily& GetCounterFamily(const std::string& name,
                                  const std::string& help,
                                  std::vector<std::string> label_keys);
  GaugeFamily& GetGaugeFamily(const std::string& name, const std::string& help,
                              std::vector<std::string> label_keys);
  /// All children share one bucket layout, fixed at family registration.
  HistogramFamily& GetHistogramFamily(const std::string& name,
                                      const std::string& help,
                                      std::vector<std::string> label_keys,
                                      std::vector<double> bounds);

  /// Lookup without creation; nullptr when absent or of another kind.
  const Counter* FindCounter(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histogram* FindHistogram(const std::string& name) const;
  const CounterFamily* FindCounterFamily(const std::string& name) const;

  /// Renders every registered instrument in the Prometheus text exposition
  /// format (version 0.0.4), sorted by metric name.
  std::string ExposePrometheus() const;

 private:
  struct Entry;
  Entry& GetOrCreate(const std::string& name, const std::string& help,
                     int kind) ALT_REQUIRES(mu_);
  const Entry* Find(const std::string& name, int kind) const;

  /// Reader/writer split: registration (startup) takes the writer side;
  /// Find* lookups and /metrics scrapes share the reader side, so a scrape
  /// never serialises against concurrent lookups. Entry pointees are stable
  /// (instruments are never unregistered), so only the map shape is guarded.
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_ ALT_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace altroute
