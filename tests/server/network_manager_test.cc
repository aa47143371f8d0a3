#include "server/network_manager.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "obs/metrics.h"
#include "util/fault_injector.h"

namespace altroute {
namespace {

NetworkManager::Loader GridLoader(int rows = 4, int cols = 4) {
  return [rows, cols]() -> Result<std::shared_ptr<RoadNetwork>> {
    return std::shared_ptr<RoadNetwork>(testutil::GridNetwork(rows, cols));
  };
}

NetworkManager::Loader BrokenLoader() {
  return []() -> Result<std::shared_ptr<RoadNetwork>> {
    auto net = testutil::GridNetwork(3, 3);
    RoadNetworkTestPeer::travel_times(*net)[0] =
        std::numeric_limits<double>::quiet_NaN();
    return std::shared_ptr<RoadNetwork>(std::move(net));
  };
}

/// Current value of a labeled child counter; 0 when not yet materialised.
/// Global metrics accumulate across tests, so assertions compare deltas.
uint64_t CounterValue(const std::string& family,
                      const std::vector<std::string>& labels) {
  const obs::CounterFamily* fam =
      obs::MetricsRegistry::Global().FindCounterFamily(family);
  if (fam == nullptr) return 0;
  for (const auto& [values, counter] : fam->Children()) {
    if (values == labels) return counter->Value();
  }
  return 0;
}

TEST(NetworkManagerTest, AddCityLoadsValidatesAndServes) {
  NetworkManager manager;
  EXPECT_FALSE(manager.Ready());  // nothing registered yet
  ASSERT_TRUE(manager.AddCity("gridtown", GridLoader()).ok());

  auto snapshot = manager.GetSnapshot("gridtown");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ((*snapshot)->generation, 1u);
  EXPECT_EQ((*snapshot)->network().num_nodes(), 16u);
  EXPECT_GE((*snapshot)->age_seconds(), 0.0);
  EXPECT_TRUE(manager.Ready());
  EXPECT_EQ(manager.size(), 1u);
  EXPECT_EQ(manager.cities(), std::vector<std::string>{"gridtown"});
}

TEST(NetworkManagerTest, AddCityRejectsInvalidNetwork) {
  const uint64_t before = CounterValue(
      "altroute_network_validation_failures_total", {"nm_bad", "edge_weights"});
  NetworkManager manager;
  const Status st = manager.AddCity("nm_bad", BrokenLoader());
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_TRUE(manager.GetSnapshot("nm_bad").status().IsNotFound());
  EXPECT_EQ(CounterValue("altroute_network_validation_failures_total",
                         {"nm_bad", "edge_weights"}),
            before + 1);
}

TEST(NetworkManagerTest, AddCityRejectsDuplicatesAndEmptyKeys) {
  NetworkManager manager;
  ASSERT_TRUE(manager.AddCity("twice", GridLoader()).ok());
  EXPECT_TRUE(manager.AddCity("twice", GridLoader()).IsInvalidArgument());
  EXPECT_TRUE(manager.AddCity("", GridLoader()).IsInvalidArgument());
  EXPECT_EQ(manager.size(), 1u);
}

TEST(NetworkManagerTest, AddCitiesLoadsThreeCitiesAtOnce) {
  NetworkManager::Options options;
  options.build_ch = true;
  options.contexts_per_city = 2;
  NetworkManager manager(options);
  std::vector<NetworkManager::Source> sources;
  sources.emplace_back("trio_a", GridLoader(4, 4));
  sources.emplace_back("trio_b", GridLoader(5, 6));
  sources.emplace_back("trio_c", GridLoader(7, 3));
  ASSERT_TRUE(manager.AddCities(std::move(sources)).ok());
  EXPECT_TRUE(manager.Ready());
  EXPECT_EQ(manager.cities(),
            (std::vector<std::string>{"trio_a", "trio_b", "trio_c"}));
  const std::pair<const char*, size_t> nodes[] = {
      {"trio_a", 16}, {"trio_b", 30}, {"trio_c", 21}};
  for (const auto& [city, n] : nodes) {
    auto snapshot = manager.GetSnapshot(city);
    ASSERT_TRUE(snapshot.ok()) << city;
    EXPECT_EQ((*snapshot)->generation, 1u) << city;
    EXPECT_EQ((*snapshot)->network().num_nodes(), n) << city;
    ASSERT_NE((*snapshot)->ch, nullptr) << city;
    EXPECT_GT((*snapshot)->pool_build_seconds, 0.0) << city;
    const RoadNetwork& net = (*snapshot)->network();
    auto lease = (*snapshot)->pool->Acquire();
    auto response = lease->Process(net.coord(0),
                                   net.coord(static_cast<NodeId>(n - 1)));
    ASSERT_TRUE(response.ok()) << city << ": " << response.status();
    EXPECT_FALSE(response->degraded) << city;
  }
}

TEST(NetworkManagerTest, AddCitiesReportsTheFirstFailureInOrder) {
  NetworkManager manager;
  std::vector<NetworkManager::Source> sources;
  sources.emplace_back("mixed_ok_1", GridLoader());
  sources.emplace_back("mixed_bad_1", BrokenLoader());
  sources.emplace_back("mixed_bad_2",
                       []() -> Result<std::shared_ptr<RoadNetwork>> {
                         return Status::IOError("unreadable");
                       });
  sources.emplace_back("mixed_ok_2", GridLoader());
  const Status st = manager.AddCities(std::move(sources));
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_NE(st.message().find("mixed_bad_1"), std::string::npos) << st;
  // The cities that loaded are served.
  EXPECT_EQ(manager.cities(),
            (std::vector<std::string>{"mixed_ok_1", "mixed_ok_2"}));

  // Keys are checked before anything loads.
  std::atomic<int> loads{0};
  const NetworkManager::Loader counted =
      [&loads]() -> Result<std::shared_ptr<RoadNetwork>> {
    ++loads;
    return std::shared_ptr<RoadNetwork>(testutil::GridNetwork(3, 3));
  };
  std::vector<NetworkManager::Source> repeated;
  repeated.emplace_back("mixed_new", counted);
  repeated.emplace_back("mixed_new", counted);
  EXPECT_TRUE(manager.AddCities(std::move(repeated)).IsInvalidArgument());
  std::vector<NetworkManager::Source> taken;
  taken.emplace_back("mixed_other", counted);
  taken.emplace_back("mixed_ok_1", counted);
  EXPECT_TRUE(manager.AddCities(std::move(taken)).IsInvalidArgument());
  EXPECT_EQ(loads.load(), 0);
  EXPECT_EQ(manager.size(), 2u);
}

TEST(NetworkManagerTest, GetSnapshotUnknownCityIsNotFound) {
  NetworkManager manager;
  ASSERT_TRUE(manager.AddCity("real", GridLoader()).ok());
  EXPECT_TRUE(manager.GetSnapshot("imaginary").status().IsNotFound());
}

TEST(NetworkManagerTest, ReloadSwapsSnapshotAndBumpsGeneration) {
  const uint64_t before =
      CounterValue("altroute_network_reloads_total", {"nm_swap", "success"});
  // The loader alternates sizes so the swap is observable in the network.
  auto calls = std::make_shared<int>(0);
  NetworkManager manager;
  ASSERT_TRUE(manager
                  .AddCity("nm_swap",
                           [calls]() -> Result<std::shared_ptr<RoadNetwork>> {
                             ++*calls;
                             const int rows = (*calls % 2 == 1) ? 3 : 5;
                             return std::shared_ptr<RoadNetwork>(
                                 testutil::GridNetwork(rows, rows));
                           })
                  .ok());
  auto old_snapshot = *manager.GetSnapshot("nm_swap");
  EXPECT_EQ(old_snapshot->network().num_nodes(), 9u);

  ASSERT_TRUE(manager.Reload("nm_swap").ok());
  auto fresh = *manager.GetSnapshot("nm_swap");
  EXPECT_EQ(fresh->generation, 2u);
  EXPECT_EQ(fresh->network().num_nodes(), 25u);
  EXPECT_EQ(*calls, 2);
  EXPECT_EQ(CounterValue("altroute_network_reloads_total",
                         {"nm_swap", "success"}),
            before + 1);
  // The old generation stays fully usable while anyone still holds it —
  // that is what makes the swap safe for in-flight requests.
  EXPECT_EQ(old_snapshot->generation, 1u);
  EXPECT_EQ(old_snapshot->network().num_nodes(), 9u);
  auto lease = old_snapshot->pool->Acquire();
  EXPECT_EQ((*lease).network().num_nodes(), 9u);
}

TEST(NetworkManagerTest, FailedReloadKeepsOldSnapshotServing) {
  const uint64_t before =
      CounterValue("altroute_network_reloads_total", {"nm_fail", "failed"});
  auto calls = std::make_shared<int>(0);
  NetworkManager manager;
  ASSERT_TRUE(manager
                  .AddCity("nm_fail",
                           [calls]() -> Result<std::shared_ptr<RoadNetwork>> {
                             if (++*calls > 1) {
                               return Status::IOError("disk went away");
                             }
                             return std::shared_ptr<RoadNetwork>(
                                 testutil::GridNetwork(4, 4));
                           })
                  .ok());

  const Status st = manager.Reload("nm_fail");
  EXPECT_TRUE(st.IsIOError()) << st;
  auto snapshot = manager.GetSnapshot("nm_fail");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->generation, 1u);  // old snapshot, untouched
  EXPECT_TRUE(manager.Ready());
  EXPECT_EQ(CounterValue("altroute_network_reloads_total",
                         {"nm_fail", "failed"}),
            before + 1);
}

TEST(NetworkManagerTest, ValidationRejectedReloadKeepsOldSnapshot) {
  auto calls = std::make_shared<int>(0);
  NetworkManager manager;
  ASSERT_TRUE(manager
                  .AddCity("nm_corrupt",
                           [calls]() -> Result<std::shared_ptr<RoadNetwork>> {
                             if (++*calls > 1) return BrokenLoader()();
                             return std::shared_ptr<RoadNetwork>(
                                 testutil::GridNetwork(4, 4));
                           })
                  .ok());
  EXPECT_TRUE(manager.Reload("nm_corrupt").IsCorruption());
  auto snapshot = manager.GetSnapshot("nm_corrupt");
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->generation, 1u);
  EXPECT_TRUE(manager.Ready());
}

TEST(NetworkManagerTest, ReloadUnknownCityIsNotFound) {
  NetworkManager manager;
  EXPECT_TRUE(manager.Reload("nowhere").IsNotFound());
}

TEST(NetworkManagerTest, AddCityWithPoolServesButCannotReload) {
  auto net = testutil::GridNetwork(3, 3);
  auto pool_or = QueryProcessorPool::Create(net, 1);
  ASSERT_TRUE(pool_or.ok()) << pool_or.status();
  NetworkManager manager;
  ASSERT_TRUE(manager
                  .AddCityWithPool("adopted",
                                   std::make_shared<QueryProcessorPool>(
                                       std::move(pool_or).ValueOrDie()))
                  .ok());
  EXPECT_TRUE(manager.GetSnapshot("adopted").ok());
  EXPECT_TRUE(manager.Ready());
  EXPECT_TRUE(manager.Reload("adopted").IsFailedPrecondition());
}

TEST(NetworkManagerTest, ReloadAllReportsPerCityOutcomes) {
  auto calls = std::make_shared<int>(0);
  NetworkManager manager;
  ASSERT_TRUE(manager.AddCity("ra_good", GridLoader()).ok());
  ASSERT_TRUE(manager
                  .AddCity("ra_flaky",
                           [calls]() -> Result<std::shared_ptr<RoadNetwork>> {
                             if (++*calls > 1) {
                               return Status::IOError("gone");
                             }
                             return std::shared_ptr<RoadNetwork>(
                                 testutil::GridNetwork(3, 3));
                           })
                  .ok());
  const std::map<std::string, Status> outcomes = manager.ReloadAll();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes.at("ra_good").ok());
  EXPECT_TRUE(outcomes.at("ra_flaky").IsIOError());
  EXPECT_TRUE(manager.Ready());  // the failed city still has generation 1
}

TEST(NetworkManagerTest, BuildChOptionAttachesHierarchyToSnapshots) {
  NetworkManager::Options options;
  options.build_ch = true;
  NetworkManager manager(options);
  ASSERT_TRUE(manager.AddCity("ch_city", GridLoader(5, 5)).ok());
  auto snapshot = manager.GetSnapshot("ch_city");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_NE((*snapshot)->ch, nullptr);
  EXPECT_EQ(&(*snapshot)->ch->network(), &(*snapshot)->network());
  EXPECT_GE((*snapshot)->ch_build_seconds, 0.0);

  // Reload rebuilds the hierarchy for the fresh network.
  ASSERT_TRUE(manager.Reload("ch_city").ok());
  auto fresh = manager.GetSnapshot("ch_city");
  ASSERT_TRUE(fresh.ok());
  ASSERT_NE((*fresh)->ch, nullptr);
  EXPECT_NE((*fresh)->ch, (*snapshot)->ch);
  EXPECT_EQ(&(*fresh)->ch->network(), &(*fresh)->network());
}

TEST(NetworkManagerTest, ChOffByDefault) {
  NetworkManager manager;
  ASSERT_TRUE(manager.AddCity("plain_city", GridLoader()).ok());
  EXPECT_EQ((*manager.GetSnapshot("plain_city"))->ch, nullptr);
}

TEST(NetworkManagerTest, ContextsPerCityOptionSizesThePool) {
  NetworkManager::Options options;
  options.contexts_per_city = 3;
  NetworkManager manager(options);
  ASSERT_TRUE(manager.AddCity("pooled", GridLoader()).ok());
  EXPECT_EQ((*manager.GetSnapshot("pooled"))->pool->size(), 3u);
}

TEST(NetworkManagerTest, BreakersOffByDefaultOnWhenEnabled) {
  NetworkManager plain;
  ASSERT_TRUE(plain.AddCity("nb_city", GridLoader()).ok());
  EXPECT_EQ((*plain.GetSnapshot("nb_city"))->breakers, nullptr);

  NetworkManager::Options options;
  options.enable_breakers = true;
  options.breaker.consecutive_failures_to_open = 2;
  NetworkManager manager(options);
  ASSERT_TRUE(manager.AddCity("wb_city", GridLoader()).ok());
  auto snapshot = manager.GetSnapshot("wb_city");
  ASSERT_TRUE(snapshot.ok());
  ASSERT_NE((*snapshot)->breakers, nullptr);
  EXPECT_EQ((*snapshot)->breakers->city(), "wb_city");
  EXPECT_EQ((*snapshot)->breakers->ForEngine("plateau").state(),
            BreakerState::kClosed);
}

TEST(NetworkManagerTest, ReloadReplacesTheBreakerSet) {
  NetworkManager::Options options;
  options.enable_breakers = true;
  NetworkManager manager(options);
  ASSERT_TRUE(manager.AddCity("rb_city", GridLoader()).ok());
  auto before = (*manager.GetSnapshot("rb_city"))->breakers;
  ASSERT_TRUE(manager.Reload("rb_city").ok());
  auto after = (*manager.GetSnapshot("rb_city"))->breakers;
  // A reload is a fresh data plane: breaker history does not carry over.
  EXPECT_NE(before, after);
}

TEST(NetworkManagerTest, ChBuildFaultFailsTheSnapshotBuild) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  fi.InjectError("ch_build", Status::Internal("injected CH build failure"));
  NetworkManager::Options options;
  options.build_ch = true;
  NetworkManager manager(options);
  EXPECT_TRUE(manager.AddCity("chf_city", GridLoader()).IsInternal());
  fi.Disarm();
}

/// A loader whose outcome is scripted per call: entry i of `fail` says
/// whether call i fails. Calls past the script succeed.
NetworkManager::Loader ScriptedLoader(std::shared_ptr<std::atomic<int>> calls,
                                      std::vector<bool> fail) {
  return [calls,
          fail = std::move(fail)]() -> Result<std::shared_ptr<RoadNetwork>> {
    const int call = calls->fetch_add(1);
    if (call < static_cast<int>(fail.size()) && fail[static_cast<size_t>(call)]) {
      return Status::IOError("injected load failure on call " +
                             std::to_string(call));
    }
    return std::shared_ptr<RoadNetwork>(testutil::GridNetwork(4, 4));
  };
}

TEST(NetworkManagerTest, FailedReloadRetriesInBackgroundUntilSuccess) {
  const uint64_t retries_before =
      CounterValue("altroute_reload_retries_total", {"retry_city"});
  NetworkManager::Options options;
  options.retry_failed_reloads = true;
  options.reload_backoff.initial_delay = std::chrono::milliseconds(5);
  options.reload_backoff.max_delay = std::chrono::milliseconds(20);
  options.reload_backoff.jitter = 0.0;
  NetworkManager manager(options);
  // Call 0 (startup) succeeds; calls 1 and 2 (explicit reload + first
  // background retry) fail; call 3 (second retry) succeeds.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ASSERT_TRUE(
      manager
          .AddCity("retry_city",
                   ScriptedLoader(calls, {false, true, true, false}))
          .ok());

  EXPECT_TRUE(manager.Reload("retry_city").IsIOError());

  // The background retries drive the city to generation 2 without any
  // further calls from us. Poll with a generous deadline (the waits
  // themselves are milliseconds).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t generation = 1;
  while (std::chrono::steady_clock::now() < deadline) {
    generation = (*manager.GetSnapshot("retry_city"))->generation;
    if (generation >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(generation, 2u);
  EXPECT_EQ(calls->load(), 4);
  EXPECT_EQ(CounterValue("altroute_reload_retries_total", {"retry_city"}) -
                retries_before,
            2u);
}

TEST(NetworkManagerTest, RetryDisabledByDefault) {
  NetworkManager manager;
  auto calls = std::make_shared<std::atomic<int>>(0);
  ASSERT_TRUE(
      manager.AddCity("noretry_city", ScriptedLoader(calls, {false, true}))
          .ok());
  EXPECT_TRUE(manager.Reload("noretry_city").IsIOError());
  // No retry thread exists; nothing else ever calls the loader.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ((*manager.GetSnapshot("noretry_city"))->generation, 1u);
}

}  // namespace
}  // namespace altroute
