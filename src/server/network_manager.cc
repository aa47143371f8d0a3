#include "server/network_manager.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <set>

#include "obs/metrics.h"
#include "traffic/traffic_model.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace altroute {

namespace {

/// Data-plane lifecycle instruments, registered once and cached.
struct DataPlaneMetrics {
  obs::CounterFamily& reloads;
  obs::GaugeFamily& snapshot_age;
  obs::CounterFamily& validation_failures;
  obs::CounterFamily& reload_retries;

  static DataPlaneMetrics& Get() {
    static DataPlaneMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new DataPlaneMetrics{
          reg.GetCounterFamily(
              "altroute_network_reloads_total",
              "Network snapshot reload attempts by outcome "
              "(success/failed).",
              {"city", "outcome"}),
          reg.GetGaugeFamily(
              "altroute_network_snapshot_age_seconds",
              "Seconds since the serving snapshot of this city was loaded.",
              {"city"}),
          reg.GetCounterFamily(
              "altroute_network_validation_failures_total",
              "GraphValidator checks that rejected a loaded network.",
              {"city", "check"}),
          reg.GetCounterFamily(
              "altroute_reload_retries_total",
              "Background reload retry attempts after a failed reload.",
              {"city"}),
      };
    }();
    return *m;
  }
};

}  // namespace

Result<std::shared_ptr<const NetworkSnapshot>> NetworkManager::BuildSnapshot(
    const std::string& city, const Loader& loader, uint64_t generation) const {
  ALTROUTE_ASSIGN_OR_RETURN(std::shared_ptr<RoadNetwork> net, loader());
  if (net == nullptr) {
    return Status::Internal("loader for city '" + city +
                            "' returned a null network");
  }

  const ValidationReport report = ValidateNetwork(*net, options_.validation);
  if (!report.ok()) {
    for (const ValidationIssue& issue : report.issues) {
      DataPlaneMetrics::Get()
          .validation_failures.WithLabels({city, issue.check})
          .Increment();
      ALTROUTE_LOG(Warning) << "validation of city '" << city << "' failed ["
                         << issue.check << "]: " << issue.message;
    }
    return report.ToStatus();
  }

  // The display hierarchy, still off the serving path (we are on the
  // loader's thread). Built over the free-flow weights, the display weights
  // of every suite in the pool.
  const auto ch_start = std::chrono::steady_clock::now();
  Status ch_fault = FaultInjector::Global().Check("ch_build");
  if (!ch_fault.ok()) {
    ALTROUTE_LOG(Warning) << "CH build for city '" << city
                          << "' failed: " << ch_fault;
    return ch_fault;
  }
  auto ch_or = ContractionHierarchy::Build(net, FreeFlowModel().Weights(*net));
  if (!ch_or.ok()) {
    ALTROUTE_LOG(Warning) << "CH build for city '" << city
                          << "' failed: " << ch_or.status();
    return ch_or.status();
  }
  std::shared_ptr<const ContractionHierarchy> ch = std::move(ch_or).ValueOrDie();
  const double ch_build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ch_start)
          .count();
  ALTROUTE_LOG(Info) << "CH for city '" << city << "' built in "
                     << ch_build_seconds << "s: " << ch->num_shortcuts()
                     << " shortcuts over " << net->num_edges() << " edges";

  // A fresh breaker set per snapshot: new data plane, new health record. The
  // set is shared by every context in the pool — engine health is a property
  // of the city, not of one worker.
  std::shared_ptr<EngineBreakerSet> breakers;
  if (options_.enable_breakers) {
    breakers = std::make_shared<EngineBreakerSet>(city, options_.breaker,
                                                  options_.breaker_clock);
  }
  const auto pool_start = std::chrono::steady_clock::now();
  ALTROUTE_ASSIGN_OR_RETURN(
      QueryProcessorPool pool,
      QueryProcessorPool::Create(net, options_.contexts_per_city, ch,
                                 breakers));
  auto snapshot = std::make_shared<NetworkSnapshot>();
  snapshot->pool_build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pool_start)
          .count();
  snapshot->pool = std::make_shared<QueryProcessorPool>(std::move(pool));
  snapshot->generation = generation;
  snapshot->loaded_at = std::chrono::steady_clock::now();
  snapshot->ch = std::move(ch);
  snapshot->ch_build_seconds = ch_build_seconds;
  snapshot->breakers = std::move(breakers);
  return std::shared_ptr<const NetworkSnapshot>(std::move(snapshot));
}

Status NetworkManager::AddCity(const std::string& city, Loader loader) {
  std::vector<Source> sources;
  sources.emplace_back(city, std::move(loader));
  return AddCities(std::move(sources));
}

Status NetworkManager::AddCities(std::vector<Source> sources) {
  {
    MutexLock lock(&mu_);
    std::set<std::string> keys;
    for (const auto& [city, loader] : sources) {
      if (city.empty()) return Status::InvalidArgument("empty city key");
      if (!loader) {
        return Status::InvalidArgument("city '" + city + "' has no loader");
      }
      if (entries_.count(city) > 0 || !keys.insert(city).second) {
        return Status::InvalidArgument("city '" + city +
                                       "' already registered");
      }
    }
  }
  // The initial builds run outside mu_ (they are slow); an entry is only
  // published once it has a valid snapshot, so GetSnapshot never observes a
  // half-added city.
  std::vector<Result<std::shared_ptr<const NetworkSnapshot>>> built(
      sources.size(), Status::Internal("not built"));
  const auto build = [&](size_t i) {
    built[i] = BuildSnapshot(sources[i].first, sources[i].second,
                             /*generation=*/1);
  };
  std::atomic<size_t> next{1};
  const auto build_rest = [&] {
    for (size_t i = next++; i < sources.size(); i = next++) build(i);
  };
  {
    const size_t cores =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    std::vector<std::jthread> helpers;
    for (size_t k = 1; k < std::min(sources.size(), cores); ++k) {
      helpers.emplace_back(build_rest);
    }
    if (!sources.empty()) build(0);
    build_rest();
  }  // joins the helpers

  Status first_failure = Status::OK();
  for (size_t i = 0; i < sources.size(); ++i) {
    auto& [city, loader] = sources[i];
    Status status = built[i].status();
    if (status.ok()) {
      status = Publish(city, std::move(loader), std::move(built[i]).ValueOrDie());
    } else {
      status = Status(status.code(), "city '" + city + "': " + status.message());
    }
    if (!status.ok() && first_failure.ok()) first_failure = std::move(status);
  }
  return first_failure;
}

Status NetworkManager::Publish(const std::string& city, Loader loader,
                               std::shared_ptr<const NetworkSnapshot> snapshot) {
  const RoadNetwork& net = snapshot->network();
  auto entry = std::make_unique<Entry>();
  entry->loader = std::move(loader);
  {
    // Not shared yet, but the analysis (rightly) has no notion of "not yet
    // published"; the uncontended lock is free.
    MutexLock entry_lock(&entry->mu);
    entry->snapshot = std::move(snapshot);
  }
  MutexLock lock(&mu_);
  if (!entries_.emplace(city, std::move(entry)).second) {
    return Status::InvalidArgument("city '" + city + "' already registered");
  }
  DataPlaneMetrics::Get().snapshot_age.WithLabels({city}).Set(0.0);
  ALTROUTE_LOG(Info) << "city '" << city << "' loaded: " << net.num_nodes()
                     << " nodes, " << net.num_edges() << " edges";
  return Status::OK();
}

Result<std::shared_ptr<const NetworkSnapshot>> NetworkManager::GetSnapshot(
    const std::string& city) const {
  const Entry* entry = nullptr;
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(city);
    if (it == entries_.end()) {
      return Status::NotFound("unknown city '" + city + "'");
    }
    entry = it->second.get();
  }
  // entries_ never shrinks, so `entry` stays valid after mu_ is dropped; the
  // snapshot copy contends only with this city's swap, not the whole map.
  MutexLock lock(&entry->mu);
  if (entry->snapshot == nullptr) {
    return Status::FailedPrecondition("city '" + city +
                                      "' has no valid snapshot");
  }
  return entry->snapshot;
}

Status NetworkManager::Reload(const std::string& city) {
  Entry* entry = nullptr;
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(city);
    if (it == entries_.end()) {
      return Status::NotFound("unknown city '" + city + "'");
    }
    entry = it->second.get();
  }
  // entries_ never shrinks, so `entry` stays valid after mu_ is dropped.
  // reload_mu serialises concurrent reloads of this city; the expensive
  // rebuild runs without any serving lock, so readers are never blocked.
  MutexLock reload_lock(&entry->reload_mu);
  uint64_t next_generation;
  {
    MutexLock lock(&entry->mu);
    next_generation =
        entry->snapshot == nullptr ? 1 : entry->snapshot->generation + 1;
  }
  auto rebuilt = BuildSnapshot(city, entry->loader, next_generation);
  if (!rebuilt.ok()) {
    DataPlaneMetrics::Get().reloads.WithLabels({city, "failed"}).Increment();
    ALTROUTE_LOG(Warning) << "reload of city '" << city
                       << "' failed, old snapshot keeps serving: "
                       << rebuilt.status();
    if (options_.retry_failed_reloads) ScheduleRetry(city);
    return rebuilt.status();
  }
  std::shared_ptr<const NetworkSnapshot> old;
  {
    MutexLock lock(&entry->mu);
    old = entry->snapshot;  // keep alive past the lock: dtor can be slow
    entry->snapshot = std::move(rebuilt).ValueOrDie();
  }
  DataPlaneMetrics::Get().reloads.WithLabels({city, "success"}).Increment();
  DataPlaneMetrics::Get().snapshot_age.WithLabels({city}).Set(0.0);
  if (options_.retry_failed_reloads) ClearRetry(city);
  ALTROUTE_LOG(Info) << "city '" << city << "' swapped to generation "
                     << next_generation;
  return Status::OK();
}

NetworkManager::~NetworkManager() {
  {
    MutexLock lock(&retry_mu_);
    retry_stop_ = true;
  }
  retry_cv_.NotifyAll();
  if (retry_thread_.joinable()) retry_thread_.join();
}

void NetworkManager::ScheduleRetry(const std::string& city) {
  MutexLock lock(&retry_mu_);
  if (retry_stop_) return;
  auto it = retry_.find(city);
  if (it == retry_.end()) {
    // Seed the jitter per city so two cities failing together do not retry
    // in lockstep; deterministic across runs for testability.
    RetryState state{
        ExponentialBackoff(options_.reload_backoff,
                           static_cast<uint64_t>(std::hash<std::string>{}(
                               city))),
        {}};
    it = retry_.emplace(city, std::move(state)).first;
  }
  it->second.next_attempt =
      std::chrono::steady_clock::now() + it->second.backoff.NextDelay();
  if (!retry_thread_started_) {
    retry_thread_started_ = true;
    retry_thread_ = std::thread([this] { RetryLoop(); });
  }
  retry_cv_.NotifyAll();
}

void NetworkManager::ClearRetry(const std::string& city) {
  MutexLock lock(&retry_mu_);
  retry_.erase(city);
}

void NetworkManager::RetryLoop() {
  MutexLock lock(&retry_mu_);
  while (!retry_stop_) {
    if (retry_.empty()) {
      while (!retry_stop_ && retry_.empty()) retry_cv_.Wait(&retry_mu_);
      continue;
    }
    // Earliest pending attempt across cities.
    auto due = retry_.begin();
    for (auto it = std::next(retry_.begin()); it != retry_.end(); ++it) {
      if (it->second.next_attempt < due->second.next_attempt) due = it;
    }
    const auto when = due->second.next_attempt;
    if (std::chrono::steady_clock::now() < when) {
      retry_cv_.WaitUntil(&retry_mu_, when);
      continue;  // re-evaluate: stop flag, new failures, cleared cities
    }
    const std::string city = due->first;
    lock.Unlock();
    DataPlaneMetrics::Get().reload_retries.WithLabels({city}).Increment();
    ALTROUTE_LOG(Info) << "retrying reload of city '" << city << "'";
    // Reload itself reschedules on failure (advancing the backoff) and
    // clears the retry state on success.
    Status status = Reload(city);
    if (!status.ok()) {
      ALTROUTE_LOG(Warning) << "background reload retry of city '" << city
                            << "' failed: " << status;
    }
    lock.Lock();
  }
}

std::map<std::string, Status> NetworkManager::ReloadAll() {
  std::map<std::string, Status> outcomes;
  for (const std::string& city : cities()) {
    outcomes.emplace(city, Reload(city));
  }
  return outcomes;
}

std::vector<std::string> NetworkManager::cities() const {
  MutexLock lock(&mu_);
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const auto& [city, entry] : entries_) keys.push_back(city);
  return keys;
}

bool NetworkManager::Ready() const {
  MutexLock lock(&mu_);
  if (entries_.empty()) return false;
  for (const auto& [city, entry] : entries_) {
    MutexLock entry_lock(&entry->mu);  // lock order: mu_ -> entry->mu
    if (entry->snapshot == nullptr) return false;
  }
  return true;
}

size_t NetworkManager::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

void NetworkManager::RefreshGauges() const {
  MutexLock lock(&mu_);
  for (const auto& [city, entry] : entries_) {
    double age_seconds = -1.0;
    {
      MutexLock entry_lock(&entry->mu);  // lock order: mu_ -> entry->mu
      if (entry->snapshot == nullptr) continue;
      age_seconds = entry->snapshot->age_seconds();
    }
    DataPlaneMetrics::Get().snapshot_age.WithLabels({city}).Set(age_seconds);
  }
}

}  // namespace altroute
