// NetworkManager: the serving data plane. Owns an atomic last-known-good
// snapshot per city — the immutable RoadNetwork plus everything derived from
// it (spatial snapping index, display weights, per-worker engine contexts,
// all inside a QueryProcessorPool) — and the machinery to replace a snapshot
// without dropping traffic:
//
//   AddCity(city, loader)   load -> validate (GraphValidator) -> build pool
//   AddCities(sources)      the same for several cities, in parallel
//   GetSnapshot(city)       lock-cheap shared_ptr copy; handlers hold it for
//                           the request, so a concurrent swap never frees a
//                           network out from under an in-flight query
//   Reload(city)            re-runs the loader OFF the serving path (on the
//                           caller's thread), validates, then atomically
//                           swaps; ANY failure leaves the old snapshot
//                           serving and is reported, never a crash or a gap
//
// Lifecycle metrics: altroute_network_reloads_total{city,outcome},
// altroute_network_snapshot_age_seconds{city} (refreshed on scrape via
// RefreshGauges), altroute_network_validation_failures_total{city,check}.
#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/validator.h"
#include "server/query_processor_pool.h"
#include "util/backoff.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace altroute {

/// One immutable, validated generation of a city's serving state. Handlers
/// copy the shared_ptr (GetSnapshot) and keep it for the whole request; the
/// previous generation is destroyed only when its last in-flight request
/// finishes.
struct NetworkSnapshot {
  std::shared_ptr<QueryProcessorPool> pool;
  /// 1 for the startup load, incremented by every successful reload.
  uint64_t generation = 0;
  std::chrono::steady_clock::time_point loaded_at;
  /// Contraction hierarchy the pool's CH-backed engines run on; null when
  /// the data plane was built without Options::build_ch. Rebuilt from
  /// scratch on every reload (the hierarchy is valid for exactly one
  /// network + weight generation).
  std::shared_ptr<const ContractionHierarchy> ch;
  /// Wall seconds spent building `ch` for this generation (0 when absent);
  /// surfaced in /readyz and /debug/build so preprocessing cost stays
  /// visible per swap.
  double ch_build_seconds = 0.0;
  /// Wall seconds spent building `pool`, which includes the commercial
  /// hierarchy when `ch` is set (0 for an adopted pool); surfaced in
  /// /debug/build beside ch_build_seconds.
  double pool_build_seconds = 0.0;
  /// Per-engine circuit breakers shared by every context in `pool`; null
  /// when the manager was built without Options::enable_breakers. Created
  /// fresh per snapshot: a reload resets breaker state (new data plane, new
  /// health record).
  std::shared_ptr<EngineBreakerSet> breakers;

  const RoadNetwork& network() const { return pool->network(); }
  double age_seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         loaded_at)
        .count();
  }
};

class NetworkManager {
 public:
  struct Options {
    /// Query contexts per city (one per HTTP worker in `serve`).
    size_t contexts_per_city = 1;
    /// Gate applied to every load and reload.
    ValidationOptions validation;
    /// Build a contraction hierarchy per snapshot (off the serving path,
    /// like the rest of the load); every query context's shared tree pair
    /// then builds by PHAST (plateau_ch, penalty_ch). A CH build failure
    /// fails the whole snapshot build: on reload the old snapshot keeps
    /// serving.
    bool build_ch = false;
    /// Preprocessing knobs used when build_ch is set.
    ChOptions ch_options;
    /// Attach a per-(city, engine) circuit-breaker set to every query
    /// context (see EngineBreakerSet). Off by default: library users and
    /// tests that build a manager directly keep the old always-run
    /// behavior; `serve` turns it on.
    bool enable_breakers = false;
    /// Thresholds shared by every breaker when enable_breakers is set.
    CircuitBreakerOptions breaker;
    /// Clock handed to every breaker (tests inject a fake one to drive
    /// cooldowns deterministically); null = steady clock.
    CircuitBreaker::ClockFn breaker_clock;
    /// Retry failed reloads in the background with exponential backoff
    /// (jittered, capped — see BackoffOptions) until one succeeds. Covers
    /// CH build failures too: they fail the snapshot build, which is what
    /// gets retried. Startup loads (AddCity) still fail fast — there is no
    /// old snapshot to serve meanwhile.
    bool retry_failed_reloads = false;
    BackoffOptions reload_backoff;
  };

  /// Produces a fresh RoadNetwork — from a file, a citygen spec, whatever.
  /// Re-invoked on every reload, so a file-backed loader re-reads the file.
  using Loader =
      std::function<Result<std::shared_ptr<RoadNetwork>>()>;

  // Two constructors instead of one defaulted argument: GCC rejects `= {}`
  // for a nested aggregate with default member initializers here.
  NetworkManager() : NetworkManager(Options()) {}
  explicit NetworkManager(Options options) : options_(std::move(options)) {}

  /// Stops and joins the background retry thread, if one was started.
  ~NetworkManager();

  NetworkManager(const NetworkManager&) = delete;
  NetworkManager& operator=(const NetworkManager&) = delete;

  /// A city key and the loader of its network.
  using Source = std::pair<std::string, Loader>;

  /// Registers `city` and performs the initial load+validate+build. On
  /// failure the city is not added (startup should abort; there is no old
  /// snapshot to fall back on). City keys are case-sensitive and unique.
  Status AddCity(const std::string& city, Loader loader);

  /// AddCity for several cities, loaded in parallel: the first on the
  /// calling thread, the rest on at most hardware_concurrency() - 1 threads,
  /// so one city starts no thread. An empty, repeated or already registered
  /// key fails the call before anything loads. Every city that loads is
  /// registered; the result is the first failure in `sources` order, or OK.
  Status AddCities(std::vector<Source> sources);

  /// Adopts a prebuilt pool as `city`'s snapshot (tests, single-network
  /// tools). Without a loader, Reload returns FailedPrecondition.
  Status AddCityWithPool(const std::string& city,
                         std::shared_ptr<QueryProcessorPool> pool);

  /// The city's current snapshot; NotFound for unknown cities. Cheap: one
  /// mutex-guarded shared_ptr copy.
  Result<std::shared_ptr<const NetworkSnapshot>> GetSnapshot(
      const std::string& city) const;

  /// Rebuilds `city` from its loader on the calling thread, validates, and
  /// atomically swaps the snapshot. On any failure (load error, validation
  /// reject, pool build error) the old snapshot keeps serving and the error
  /// is returned. Concurrent reloads of the same city serialise; reloads of
  /// different cities proceed in parallel; serving is never blocked.
  ///
  /// With Options::retry_failed_reloads, a failure additionally schedules a
  /// background retry (exponential backoff, altroute_reload_retries_total);
  /// a later success — background or explicit — clears the retry state.
  Status Reload(const std::string& city);

  /// Reloads every city (SIGHUP semantics); per-city outcomes.
  std::map<std::string, Status> ReloadAll();

  /// Registered city keys, sorted.
  std::vector<std::string> cities() const;

  /// True when every registered city has a valid snapshot — the /readyz
  /// contract.
  bool Ready() const;

  size_t size() const;

  /// Updates altroute_network_snapshot_age_seconds{city} from the current
  /// snapshots; call before rendering /metrics.
  void RefreshGauges() const;

 private:
  /// Lock order within one entry (and across the manager): mu_ (map lookup)
  /// -> entry->mu (snapshot copy/swap). reload_mu is held across the whole
  /// rebuild and only ever takes entry->mu inside it, never mu_ while a
  /// serving thread could hold entry->mu.
  struct Entry {
    Loader loader;  // may be empty (AddCityWithPool); immutable once published
    /// Serialises reloads of this city (held across the whole rebuild, which
    /// runs outside `mu` so serving threads never wait on it).
    Mutex reload_mu;
    /// Guards only the snapshot pointer: one copy per GetSnapshot, one swap
    /// per successful reload. Never held across a build.
    mutable Mutex mu;
    std::shared_ptr<const NetworkSnapshot> snapshot ALT_GUARDED_BY(mu);
  };

  /// load -> validate -> pool; counts validation failures per check.
  Result<std::shared_ptr<const NetworkSnapshot>> BuildSnapshot(
      const std::string& city, const Loader& loader, uint64_t generation) const;

  /// Registers a new city with its first snapshot; InvalidArgument when the
  /// key is taken.
  Status Publish(const std::string& city, Loader loader,
                 std::shared_ptr<const NetworkSnapshot> snapshot)
      ALT_EXCLUDES(mu_);

  /// Backoff state for one city whose last reload failed.
  struct RetryState {
    ExponentialBackoff backoff;
    std::chrono::steady_clock::time_point next_attempt;
  };

  /// Schedules (or reschedules, advancing the backoff) a background retry
  /// for `city`; lazily starts the retry thread. Call without retry_mu_ held.
  void ScheduleRetry(const std::string& city) ALT_EXCLUDES(retry_mu_);
  /// Drops `city`'s retry state after a successful reload.
  void ClearRetry(const std::string& city) ALT_EXCLUDES(retry_mu_);
  void RetryLoop() ALT_EXCLUDES(retry_mu_);

  Options options_;
  /// Guards only the map shape; each entry guards its own snapshot (Entry
  /// pointers are stable: entries_ never shrinks).
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_ ALT_GUARDED_BY(mu_);

  Mutex retry_mu_;
  CondVar retry_cv_;
  bool retry_stop_ ALT_GUARDED_BY(retry_mu_) = false;
  bool retry_thread_started_ ALT_GUARDED_BY(retry_mu_) = false;
  std::map<std::string, RetryState> retry_ ALT_GUARDED_BY(retry_mu_);
  /// Started under retry_mu_; joined in the destructor, which runs after
  /// every other thread that could touch the manager is gone (destructors
  /// are outside the analysis, like constructors).
  std::thread retry_thread_ ALT_GUARDED_BY(retry_mu_);
};

}  // namespace altroute
