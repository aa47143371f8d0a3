// Deterministic fault injection for robustness tests. Production code hosts
// named injection *sites* ("snap", "engine:plateau_ch", ...) by calling
// FaultInjector::Global().Check(site) at the point where a failure would
// surface; tests Arm() the injector with a seed and register per-site rules
// that add latency and/or return an error with a given probability. The
// disarmed fast path is a single relaxed atomic load, so shipping the hooks
// in release builds costs nothing measurable.
//
// This is a test-only control surface: nothing in the CLI or server wires it
// up, only tests (and future chaos drills) arm it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "util/mutex.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace altroute {

class FaultInjector {
 public:
  /// The process-wide injector consulted by production sites.
  static FaultInjector& Global();

  /// Enables injection and seeds the probability stream. Clears any rules
  /// left over from a previous test.
  void Arm(uint64_t seed);

  /// Disables injection and clears all rules. Check() returns OK again.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// When `site` is checked, fail with `error` with probability `probability`.
  void InjectError(std::string site, Status error, double probability = 1.0);

  /// When `site` is checked, sleep `latency_ms` with probability
  /// `probability` before returning. Combines with InjectError on the same
  /// site: latency is applied first (a slow engine that then fails).
  void InjectLatencyMs(std::string site, int64_t latency_ms,
                       double probability = 1.0);

  /// Called by production code at an injection site. Returns OK unless the
  /// injector is armed and a rule for `site` fires. May sleep (latency
  /// rules) — the sleep happens outside the injector lock.
  Status Check(std::string_view site);

  /// How many times a rule at `site` has fired (latency or error). 0 when
  /// the site has no rule or never fired.
  int64_t TriggerCount(std::string_view site) const;

 private:
  struct Rule {
    int64_t latency_ms = 0;
    double latency_probability = 0.0;
    Status error = Status::OK();
    double error_probability = 0.0;
    int64_t triggers = 0;
  };

  std::atomic<bool> armed_{false};
  mutable Mutex mu_;
  Rng rng_ ALT_GUARDED_BY(mu_){0};
  std::map<std::string, Rule, std::less<>> rules_ ALT_GUARDED_BY(mu_);
};

}  // namespace altroute
