// Chaos suite: scripted fault timelines against a live server, asserting
// the failure-containment SLOs end to end (paper Sec. 3 serving demo, grown
// toward production robustness):
//
//   1. An engine fault storm never produces a 5xx — responses degrade.
//   2. The per-(city, engine) breaker opens within K failures and recovers
//      within N probes once the fault clears and the cooldown elapses.
//   3. Shed responses (queue saturation) carry Retry-After, and liveness
//      (/healthz) stays observable while the pool is saturated.
//   4. Tail latency of non-faulted traffic stays bounded through the storm.
//
// Everything is deterministic: the FaultInjector is armed with fixed seeds,
// breakers run on a test-advanced fake clock, and timelines drive requests
// sequentially (see chaos_scenario.h). The only polling is bounded
// wait-for-state, never sleep-as-synchronization.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "graph/serialization.h"
#include "obs/metrics.h"
#include "chaos_scenario.h"
#include "server/demo_service.h"
#include "server/http_server.h"
#include "server/network_manager.h"
#include "util/check.h"
#include "util/circuit_breaker.h"
#include "util/fault_injector.h"
#include "util/json_parse.h"
#include "util/logging.h"

namespace altroute {
namespace {

constexpr char kCity[] = "chaostown";

/// Current value of one labeled child counter; 0 when not materialised.
/// The global registry accumulates across tests, so compare deltas.
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

/// One file-backed city behind a live server, with breakers enabled on a
/// fake clock the tests advance explicitly. Tight breaker thresholds
/// (K = 3, cooldown 1000ms, 2 probe successes to close) keep timelines
/// short.
class ChaosFixture : public ::testing::Test {
 protected:
  explicit ChaosFixture(bool build_ch = false) : build_ch_(build_ch) {}

  void SetUp() override {
    // Named per test: ctest runs each test in its own process, in parallel,
    // and a shared path let one test's SetUp/TearDown rewrite or delete the
    // file another test was reloading.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = ::testing::TempDir() + "/chaos_city_" + test + ".bin";
    WriteNetwork(path_, 6);

    NetworkManager::Options options;
    options.contexts_per_city = 2;
    options.build_ch = build_ch_;
    options.enable_breakers = true;
    options.breaker.consecutive_failures_to_open = 3;
    options.breaker.failure_rate_to_open = 2.0;  // rate trigger off
    options.breaker.open_cooldown = std::chrono::milliseconds(1000);
    options.breaker.half_open_max_probes = 1;
    options.breaker.half_open_successes_to_close = 2;
    options.breaker_clock = [this] {
      return CircuitBreaker::Clock::time_point(
          std::chrono::milliseconds(fake_now_ms_.load()));
    };
    manager_ = std::make_shared<NetworkManager>(options);
    ASSERT_TRUE(manager_->AddCity(kCity, FileLoader(path_)).ok());

    service_ = std::make_unique<DemoService>(manager_);
    HttpServerOptions server_options;
    server_options.num_threads = 2;
    server_ = std::make_unique<HttpServer>(server_options);
    service_->Install(server_.get());
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override {
    server_->Stop();
    FaultInjector::Global().Disarm();
    ::remove(path_.c_str());
  }

  static void WriteNetwork(const std::string& path, int rows) {
    auto net = testutil::GridNetwork(rows, rows);
    ALT_CHECK(NetworkSerializer::SaveToFile(*net, path).ok());
  }

  static NetworkManager::Loader FileLoader(const std::string& path) {
    return [path]() -> Result<std::shared_ptr<RoadNetwork>> {
      ALTROUTE_ASSIGN_OR_RETURN(std::shared_ptr<RoadNetwork> net,
                                NetworkSerializer::LoadFromFile(path));
      return net;
    };
  }

  std::string RouteTarget() const {
    auto snapshot = *manager_->GetSnapshot(kCity);
    const RoadNetwork& net = snapshot->network();
    const LatLng a = net.coord(0);
    const LatLng b = net.coord(static_cast<NodeId>(net.num_nodes() - 1));
    char target[256];
    std::snprintf(target, sizeof(target),
                  "/route?city=%s&slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f",
                  kCity, a.lat, a.lng, b.lat, b.lng);
    return target;
  }

  void AdvanceClockMs(int64_t ms) { fake_now_ms_ += ms; }

  uint64_t Transitions(const std::string& engine, const std::string& to) {
    return CounterValue("altroute_breaker_transitions_total",
                        {kCity, engine, to});
  }

  CircuitBreaker& Breaker(const std::string& engine) {
    return (*manager_->GetSnapshot(kCity))->breakers->ForEngine(engine);
  }

  const bool build_ch_;
  std::string path_;
  std::atomic<int64_t> fake_now_ms_{0};
  std::shared_ptr<NetworkManager> manager_;
  std::unique_ptr<DemoService> service_;
  std::unique_ptr<HttpServer> server_;
};

// SLO 1 + 2 + 4 on one timeline: a hard plateau fault storm degrades
// responses but never 5xxes; the breaker trips after exactly K = 3 failures
// (the engine is not invoked again while open); once the fault clears and
// the cooldown elapses, 2 probe successes close it and responses are clean;
// client-observed p99 stays bounded throughout.
TEST_F(ChaosFixture, EngineFaultStormIsContainedAndRecovers) {
  FaultInjector& fi = FaultInjector::Global();
  const uint64_t opens_before = Transitions("plateau", "open");
  const uint64_t closes_before = Transitions("plateau", "closed");
  int64_t plateau_runs_at_clear = -1;

  const auto records = chaos::RunTimeline(
      server_->port(), RouteTarget(), 25,
      {
          {0, "plateau fails hard on every call",
           [&] {
             fi.Arm(7);
             fi.InjectError("engine:plateau",
                            Status::Internal("chaos: engine down"));
           }},
          {20, "fault clears; open cooldown elapses",
           [&] {
             plateau_runs_at_clear = fi.TriggerCount("engine:plateau");
             fi.Disarm();
             AdvanceClockMs(1001);
           }},
      });

  ASSERT_EQ(records.size(), 25u);
  // SLO 1: a faulted engine never turns into a server error.
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].status, 200) << "request " << i << ": "
                                      << records[i].headers;
  }
  // The first K = 3 requests run the engine and fail...
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NE(records[i].body.find("\"status\":\"internal\""),
              std::string::npos)
        << records[i].body;
    EXPECT_NE(records[i].body.find("\"degraded\":true"), std::string::npos);
  }
  // ...then the breaker is open: the engine is skipped, not invoked.
  for (size_t i = 3; i < 20; ++i) {
    EXPECT_NE(records[i].body.find("\"status\":\"breaker_open\""),
              std::string::npos)
        << "request " << i << ": " << records[i].body;
    EXPECT_EQ(records[i].body.find("\"status\":\"internal\""),
              std::string::npos);
  }
  // SLO 2a: opened within exactly K failures — 3 engine runs, no more.
  EXPECT_EQ(plateau_runs_at_clear, 3);
  EXPECT_EQ(Transitions("plateau", "open"), opens_before + 1);
  // SLO 2b: recovered within N = 2 probes. Both probes succeed (the fault
  // is gone), so the probe responses are already clean.
  for (size_t i = 20; i < 25; ++i) {
    EXPECT_NE(records[i].body.find("\"degraded\":false"), std::string::npos)
        << "request " << i << ": " << records[i].body;
  }
  EXPECT_EQ(Breaker("plateau").state(), BreakerState::kClosed);
  EXPECT_EQ(Transitions("plateau", "closed"), closes_before + 1);
  // The state gauge agrees with what /metrics scrapes.
  const chaos::RequestRecord metrics =
      chaos::Fetch(server_->port(), "/metrics");
  EXPECT_NE(metrics.body.find("altroute_breaker_state{city=\"chaostown\","
                              "engine=\"plateau\"} 0"),
            std::string::npos);
  // SLO 4: the storm never blew up client-observed tail latency (the grid
  // is tiny; 2s leaves two orders of magnitude of headroom on a loaded CI
  // box while still catching a hang).
  EXPECT_LT(chaos::LatencyPercentileMs(records, 99.0), 2000.0);
}

/// The same live server over `serve --ch`'s hierarchy: plateau_ch,
/// dissimilarity and penalty_ch share one tree pair per request, which
/// plateau_ch builds when it runs.
class ChChaosFixture : public ChaosFixture {
 protected:
  ChChaosFixture() : ChaosFixture(/*build_ch=*/true) {}
};

/// One approach of a /route body: its status and what it shipped.
struct Lane {
  std::string status;
  std::vector<std::string> routes;  // "minutes/polyline" per route
};

std::vector<Lane> Lanes(const std::string& body) {
  std::vector<Lane> lanes;
  auto doc = ParseJson(body);
  if (!doc.ok()) {
    ADD_FAILURE() << doc.status() << ": " << body;
    return lanes;
  }
  const JsonValue* approaches = doc->Find("approaches");
  if (approaches == nullptr || !approaches->is_array()) return lanes;
  for (const JsonValue& approach : approaches->AsArray()) {
    Lane lane;
    lane.status = approach.GetString("status", "");
    if (const JsonValue* routes = approach.Find("routes");
        routes != nullptr && routes->is_array()) {
      for (const JsonValue& route : routes->AsArray()) {
        lane.routes.push_back(
            std::to_string(route.GetNumber("travel_time_min", -1.0)) + "/" +
            route.GetString("polyline", ""));
      }
    }
    lanes.push_back(std::move(lane));
  }
  return lanes;
}

// The engine that builds the shared tree pair fails, first through its
// fault and then behind its open breaker: either way it builds nothing, and
// Dissimilarity (which then builds the pair) and Penalty still ship "ok"
// with exactly the routes of a healthy request.
TEST_F(ChChaosFixture, TreeBuilderFailureLeavesOtherLanesIntact) {
  FaultInjector& fi = FaultInjector::Global();
  const std::string target = RouteTarget();
  const chaos::RequestRecord healthy = chaos::Fetch(server_->port(), target);
  ASSERT_EQ(healthy.status, 200) << healthy.body;
  const std::vector<Lane> want = Lanes(healthy.body);
  ASSERT_EQ(want.size(), 4u);
  for (const Lane& lane : want) {
    EXPECT_EQ(lane.status, "ok");
    EXPECT_FALSE(lane.routes.empty());
  }

  fi.Arm(17);
  fi.InjectError("engine:plateau_ch", Status::Internal("chaos: trees down"));
  for (int i = 0; i < 6; ++i) {
    const chaos::RequestRecord r = chaos::Fetch(server_->port(), target);
    ASSERT_EQ(r.status, 200) << "request " << i << ": " << r.body;
    const std::vector<Lane> got = Lanes(r.body);
    ASSERT_EQ(got.size(), 4u) << r.body;
    // K = 3 failed runs, then the breaker skips the engine.
    EXPECT_EQ(got[1].status, i < 3 ? "internal" : "breaker_open")
        << "request " << i;
    EXPECT_TRUE(got[1].routes.empty());
    for (size_t lane : {0u, 2u, 3u}) {
      EXPECT_EQ(got[lane].status, "ok") << "request " << i << " lane " << lane;
      EXPECT_EQ(got[lane].routes, want[lane].routes)
          << "request " << i << " lane " << lane;
    }
  }
  EXPECT_EQ(fi.TriggerCount("engine:plateau_ch"), 3);
  EXPECT_EQ(Breaker("plateau_ch").state(), BreakerState::kOpen);
}

// Client-class outcomes (NotFound: no such route) are not engine failures:
// a storm of them must never trip the breaker.
TEST_F(ChaosFixture, ClientOutcomeStormNeverTripsTheBreaker) {
  FaultInjector& fi = FaultInjector::Global();
  const auto records = chaos::RunTimeline(
      server_->port(), RouteTarget(), 10,
      {{0, "plateau finds no route for anyone",
        [&] {
          fi.Arm(13);
          fi.InjectError("engine:plateau", Status::NotFound("chaos: no route"));
        }}});
  for (const chaos::RequestRecord& r : records) {
    EXPECT_EQ(r.status, 200) << r.headers;
    EXPECT_EQ(r.body.find("breaker_open"), std::string::npos) << r.body;
  }
  EXPECT_EQ(Breaker("plateau").state(), BreakerState::kClosed);
}

// SLO 3: with the worker pool saturated by a slow engine, the overflow
// connection is shed 503 + Retry-After while /healthz keeps answering from
// the accept thread. The saturation is deterministic: one worker, one queue
// slot, and an injected engine latency that provably holds the worker
// (observed via TriggerCount) while the queue is filled behind it.
TEST_F(ChaosFixture, SaturationShedsWithRetryAfterWhileLivenessHolds) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.healthz_poll_ms = 1000;
  HttpServer small(options);
  service_->Install(&small);
  ASSERT_TRUE(small.Start(0).ok());

  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(11);
  fi.InjectLatencyMs("engine:commercial", 800);
  const uint64_t full_before =
      CounterValue("altroute_queue_rejected_total", {"queue_full"});
  const std::string target = RouteTarget();

  // A holds the single worker inside the slow engine.
  chaos::RequestRecord response_a;
  std::thread client_a([&] { response_a = chaos::Fetch(small.port(), target); });
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (fi.TriggerCount("engine:commercial") < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fi.TriggerCount("engine:commercial"), 1);

  // B fills the one queue slot (the accept thread serves connections in
  // arrival order, so B is queued before C is even looked at)...
  const int fd_b = chaos::Connect(small.port());
  ASSERT_GE(fd_b, 0);
  chaos::SendRequest(fd_b, "GET", target);
  // ...and C must be shed with 503 + Retry-After.
  const chaos::RequestRecord response_c = chaos::Fetch(small.port(), target);
  EXPECT_EQ(response_c.status, 503) << response_c.headers;
  EXPECT_TRUE(response_c.HasHeader("Retry-After:")) << response_c.headers;
  EXPECT_NE(response_c.body.find("overloaded"), std::string::npos);
  EXPECT_GE(CounterValue("altroute_queue_rejected_total", {"queue_full"}),
            full_before + 1);

  // Liveness stays observable through the saturation.
  const chaos::RequestRecord probe = chaos::Fetch(small.port(), "/healthz");
  EXPECT_EQ(probe.status, 200) << probe.headers;

  // Clear the fault: the queued B and the in-flight A both complete.
  fi.Disarm();
  const chaos::RequestRecord response_b =
      chaos::ParseResponse(chaos::ReadAll(fd_b));
  ::close(fd_b);
  EXPECT_EQ(response_b.status, 200) << response_b.headers;
  client_a.join();
  EXPECT_EQ(response_a.status, 200) << response_a.headers;
  small.Stop();
}

// Response-path faults are request-scoped, never sticky. A render fault
// degrades the response (routes are dropped, approaches still listed); a
// serialize fault fails that one request with 500; clearing the faults
// restores clean service immediately — no state to recover.
TEST_F(ChaosFixture, ResponsePathFaultsAreRequestScoped) {
  FaultInjector& fi = FaultInjector::Global();
  const std::string target = RouteTarget();

  fi.Arm(17);
  fi.InjectError("render", Status::Internal("chaos: render failure"));
  chaos::RequestRecord rendered = chaos::Fetch(server_->port(), target);
  EXPECT_EQ(rendered.status, 200) << rendered.headers;
  EXPECT_NE(rendered.body.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(rendered.body.find("\"routes\":[]"), std::string::npos);

  fi.Arm(17);  // re-arm clears the render rule
  fi.InjectError("serialize", Status::Internal("chaos: serialize failure"));
  chaos::RequestRecord torn = chaos::Fetch(server_->port(), target);
  EXPECT_EQ(torn.status, 500) << torn.headers;
  EXPECT_NE(torn.body.find("\"error\""), std::string::npos) << torn.body;

  fi.Disarm();
  chaos::RequestRecord clean = chaos::Fetch(server_->port(), target);
  EXPECT_EQ(clean.status, 200) << clean.headers;
  EXPECT_NE(clean.body.find("\"degraded\":false"), std::string::npos);
}

// Satellite: /admin/reload racing chaos traffic. Clients hammer /route
// while the backing file alternates between two valid networks and engines
// flap (probabilistic errors + latency). Every response must still be 200 —
// possibly degraded, never a 5xx, never a drop — and every reload must land
// (each one swapping in a fresh breaker set).
TEST_F(ChaosFixture, ReloadRacesChaosTrafficWithZeroServerErrors) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Arm(23);
  fi.InjectError("engine:plateau", Status::Internal("chaos: flapping"), 0.4);
  fi.InjectLatencyMs("engine:dissimilarity", 2, 0.5);

  const std::string target = RouteTarget();
  std::atomic<bool> done{false};
  std::atomic<int> requests{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!done.load()) {
        const chaos::RequestRecord r = chaos::Fetch(server_->port(), target);
        ++requests;
        if (r.status != 200 || r.body.empty()) ++failures;
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    WriteNetwork(path_, round % 2 == 0 ? 5 : 6);
    const chaos::RequestRecord reload = chaos::Fetch(
        server_->port(), "/admin/reload?city=chaostown", "POST");
    EXPECT_EQ(reload.status, 200) << reload.headers;
  }
  done.store(true);
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0)
      << failures.load() << " of " << requests.load() << " requests failed";
  EXPECT_GT(requests.load(), 0);
  EXPECT_EQ((*manager_->GetSnapshot(kCity))->generation, 7u);
}

}  // namespace
}  // namespace altroute
