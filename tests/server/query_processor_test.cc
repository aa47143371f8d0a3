#include "server/query_processor.h"

#include <gtest/gtest.h>

#include "../testutil.h"
#include "geo/polyline.h"
#include "obs/metrics.h"
#include "util/fault_injector.h"
#include "util/check.h"
#include "util/json_parse.h"
#include "util/logging.h"

namespace altroute {
namespace {

class QueryProcessorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto net = testutil::GridNetwork(8, 8, 60.0, 500.0);
    auto suite = EngineSuite::MakePaperSuite(net);
    ALT_CHECK(suite.ok());
    processor_ = new QueryProcessor(std::move(suite).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete processor_;
    processor_ = nullptr;
  }

  static QueryProcessor* processor_;
};

QueryProcessor* QueryProcessorFixture::processor_ = nullptr;

TEST_F(QueryProcessorFixture, SnapsAndReturnsFourMaskedApproaches) {
  const RoadNetwork& net = processor_->network();
  // Click slightly off two opposite corners.
  const LatLng src(net.coord(0).lat + 0.0005, net.coord(0).lng - 0.0005);
  const NodeId far_node = static_cast<NodeId>(net.num_nodes() - 1);
  const LatLng dst(net.coord(far_node).lat, net.coord(far_node).lng + 0.0008);

  auto response = processor_->Process(src, dst);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->snapped_source, 0u);
  EXPECT_EQ(response->snapped_target, far_node);
  EXPECT_LT(response->snap_distance_source_m, 200.0);
  ASSERT_EQ(response->approaches.size(), 4u);
  EXPECT_EQ(response->approaches[0].label, 'A');
  EXPECT_EQ(response->approaches[3].label, 'D');
  for (const auto& approach : response->approaches) {
    EXPECT_GE(approach.routes.size(), 1u);
    EXPECT_LE(approach.routes.size(), 3u);
    for (const auto& route : approach.routes) {
      EXPECT_GT(route.travel_time_min, 0);
      EXPECT_GT(route.length_km, 0.0);
      // The polyline must decode to a valid coordinate sequence.
      auto coords = DecodePolyline(route.polyline);
      ASSERT_TRUE(coords.ok());
      EXPECT_GE(coords->size(), 2u);
    }
  }
}

TEST_F(QueryProcessorFixture, DisplayedMinutesUseOsmDataForAllApproaches) {
  const RoadNetwork& net = processor_->network();
  auto response =
      processor_->Process(net.coord(0), net.coord(static_cast<NodeId>(
                                            net.num_nodes() - 1)));
  ASSERT_TRUE(response.ok());
  // All approaches' fastest displayed route must show (roughly) the same
  // number of minutes: they are measured on the same OSM data (Sec. 3).
  int best_min = 1 << 30;
  int best_max = 0;
  for (const auto& approach : response->approaches) {
    int fastest = 1 << 30;
    for (const auto& r : approach.routes) {
      fastest = std::min(fastest, r.travel_time_min);
    }
    best_min = std::min(best_min, fastest);
    best_max = std::max(best_max, fastest);
  }
  EXPECT_LE(best_max - best_min, 3);
}

TEST_F(QueryProcessorFixture, RejectsFarAwayClicks) {
  auto response = processor_->Process(LatLng(45.0, 9.0), LatLng(45.1, 9.1));
  EXPECT_TRUE(response.status().IsInvalidArgument());
}

TEST_F(QueryProcessorFixture, RejectsInvalidCoordinates) {
  EXPECT_TRUE(processor_->Process(LatLng(91.0, 0.0), LatLng(0, 0))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(QueryProcessorFixture, RejectsSameSnapVertex) {
  const RoadNetwork& net = processor_->network();
  const LatLng p = net.coord(5);
  auto response = processor_->Process(
      p, LatLng(p.lat + 1e-6, p.lng + 1e-6));  // snaps to the same vertex
  EXPECT_TRUE(response.status().IsInvalidArgument());
}

TEST_F(QueryProcessorFixture, GenerateForReturnsRawRoutes) {
  const RoadNetwork& net = processor_->network();
  auto set = processor_->GenerateFor(
      net.coord(0), net.coord(static_cast<NodeId>(net.num_nodes() - 1)),
      Approach::kPlateaus);
  ASSERT_TRUE(set.ok()) << set.status();
  ASSERT_FALSE(set->routes.empty());
  EXPECT_EQ(set->routes[0].source, 0u);
  EXPECT_EQ(set->routes[0].target, net.num_nodes() - 1);
  // Same snapping rules as Process().
  EXPECT_TRUE(processor_->GenerateFor(LatLng(45, 9), LatLng(45.1, 9.1),
                                      Approach::kPenalty)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(QueryProcessorFixture, ServedPolylinesDecodeToTheirRoutes) {
  // Every served polyline is the exact geometry of its route, at the
  // encoding's precision of 1e-5 degrees.
  const RoadNetwork& net = processor_->network();
  const NodeId far = static_cast<NodeId>(net.num_nodes() - 1);
  for (const auto& [s, t] : {std::pair<NodeId, NodeId>{0, far}, {5, 42}}) {
    const LatLng a = net.coord(s);
    const LatLng b = net.coord(t);
    auto response = processor_->Process(a, b);
    ASSERT_TRUE(response.ok()) << response.status();
    for (const ApproachDisplay& ad : response->approaches) {
      auto set = processor_->GenerateFor(a, b,
                                         static_cast<Approach>(ad.label - 'A'));
      ASSERT_TRUE(set.ok()) << set.status();
      ASSERT_EQ(ad.routes.size(), set->routes.size()) << ad.label;
      for (size_t r = 0; r < ad.routes.size(); ++r) {
        auto decoded = DecodePolyline(ad.routes[r].polyline);
        ASSERT_TRUE(decoded.ok()) << decoded.status();
        const std::vector<LatLng> coords = PathCoords(net, set->routes[r]);
        ASSERT_EQ(decoded->size(), coords.size()) << ad.label << r;
        for (size_t i = 0; i < coords.size(); ++i) {
          EXPECT_NEAR((*decoded)[i].lat, coords[i].lat, 1e-5);
          EXPECT_NEAR((*decoded)[i].lng, coords[i].lng, 1e-5);
        }
      }
    }
  }
}

TEST_F(QueryProcessorFixture, JsonSerialisationIsWellFormed) {
  const RoadNetwork& net = processor_->network();
  auto response = processor_->Process(
      net.coord(1), net.coord(static_cast<NodeId>(net.num_nodes() - 2)));
  ASSERT_TRUE(response.ok());
  const std::string json = processor_->ToJson(*response);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"approaches\":["), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"A\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"D\""), std::string::npos);
  EXPECT_NE(json.find("\"travel_time_min\":"), std::string::npos);
  EXPECT_NE(json.find("\"polyline\":"), std::string::npos);
}

TEST_F(QueryProcessorFixture, LapsTileProcessAndRenderAsTrace) {
  const RoadNetwork& net = processor_->network();
  obs::RequestProfile profile;
  auto response = processor_->Process(
      net.coord(0), net.coord(static_cast<NodeId>(net.num_nodes() - 1)),
      nullptr, Deadline{}, &profile);
  ASSERT_TRUE(response.ok()) << response.status();
  // Snap, then per engine its lap and its render lap; the last has ended.
  const auto& laps = profile.laps();
  ASSERT_EQ(laps.size(), 9u);
  EXPECT_EQ(laps[0].name, "snap");
  ASSERT_EQ(response->approaches.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    const ApproachDisplay& ad = response->approaches[i];
    EXPECT_EQ(laps[1 + 2 * i].name, "engine:" + ad.engine_name);
    EXPECT_EQ(laps[2 + 2 * i].name, "render");
    EXPECT_EQ(ad.elapsed_ms, laps[1 + 2 * i].seconds * 1e3);
  }
  for (size_t i = 1; i < laps.size(); ++i) {
    EXPECT_DOUBLE_EQ(laps[i - 1].start_s + laps[i - 1].seconds,
                     laps[i].start_s);
  }
  EXPECT_EQ(profile.Stop(), 0.0);

  const std::string untraced = processor_->ToJson(*response);
  const std::string json = processor_->ToJson(*response, &profile, &profile);
  // Tracing appends its members and changes nothing before them.
  EXPECT_EQ(json.compare(0, untraced.size() - 1, untraced, 0,
                         untraced.size() - 1),
            0);
  EXPECT_EQ(untraced.find("\"trace\""), std::string::npos);
  const auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* trace = parsed->Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_EQ(trace->AsArray().size(), 10u);
  EXPECT_EQ(trace->AsArray().back().GetString("name", ""), "serialize");
  const JsonValue& commercial = trace->AsArray()[1];
  EXPECT_EQ(commercial.GetString("label", ""), "A");
  EXPECT_EQ(commercial.GetString("status", ""), "ok");
  EXPECT_EQ(commercial.GetNumber("routes", -1.0),
            static_cast<double>(response->approaches[0].routes.size()));
  ASSERT_NE(commercial.Find("stats"), nullptr);
  EXPECT_GT(commercial.Find("stats")->GetNumber("nodes_settled", 0.0), 0.0);
  EXPECT_EQ(trace->AsArray()[0].Find("stats"), nullptr);  // snap has none

  const JsonValue* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  const double total_ms = phases->GetNumber("total_ms", -1.0);
  ASSERT_GT(total_ms, 0.0);
  double sum_ms = 0.0;
  std::vector<std::string> names;
  for (const JsonValue& phase : phases->Find("phases")->AsArray()) {
    names.push_back(phase.GetString("name", ""));
    sum_ms += phase.GetNumber("ms", 0.0);
  }
  // In the order each name's first lap ended: snap, commercial, render (one
  // entry for all four), the other three engines, serialize.
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names[2], "render");
  EXPECT_EQ(names[6], "serialize");
  EXPECT_EQ(names[7], "unattributed");
  EXPECT_NEAR(sum_ms, total_ms, total_ms * 1e-6);
}

TEST_F(QueryProcessorFixture, ProcessEndsItsLastLapOnAnError) {
  obs::RequestProfile profile;
  auto response = processor_->Process(LatLng(45.0, 9.0), LatLng(45.1, 9.1),
                                      nullptr, Deadline{}, &profile);
  EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();
  ASSERT_EQ(profile.laps().size(), 1u);
  EXPECT_EQ(profile.laps()[0].name, "snap");
  EXPECT_GT(profile.laps()[0].seconds, 0.0);
  EXPECT_EQ(profile.Stop(), 0.0);
}

TEST_F(QueryProcessorFixture, BudgetHistogramNamesTheEngine) {
  // The budget left to each engine is labelled by engine name, as its
  // latency and search counters are, never by its masked letter.
  const RoadNetwork& net = processor_->network();
  auto response = processor_->Process(
      net.coord(0), net.coord(static_cast<NodeId>(net.num_nodes() - 1)),
      nullptr, Deadline::AfterSeconds(10.0));
  ASSERT_TRUE(response.ok()) << response.status();
  const std::string exposition =
      obs::MetricsRegistry::Global().ExposePrometheus();
  const std::string series = "altroute_engine_budget_remaining_seconds_count";
  EXPECT_NE(exposition.find(series + "{approach=\"commercial\",city=\"" +
                            net.name() + "\"}"),
            std::string::npos)
      << exposition;
  EXPECT_EQ(exposition.find(series + "{approach=\"A\""), std::string::npos);
}

// Fault-isolation and deadline behaviour. Masked order is A=commercial,
// B=plateau, C=dissimilarity, D=penalty (kAllApproaches).
class QueryProcessorFaultFixture : public QueryProcessorFixture {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }

  LatLng Origin() const { return processor_->network().coord(0); }
  LatLng Far() const {
    const RoadNetwork& net = processor_->network();
    return net.coord(static_cast<NodeId>(net.num_nodes() - 1));
  }
};

TEST_F(QueryProcessorFaultFixture, EngineFailureDegradesOnlyThatApproach) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  fi.InjectError("engine:plateau_ch", Status::Internal("injected engine crash"));

  auto response = processor_->Process(Origin(), Far());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->degraded);
  ASSERT_EQ(response->approaches.size(), 4u);
  // B (plateau) shipped empty with its failure class; the rest are intact.
  EXPECT_EQ(response->approaches[1].status, "internal");
  EXPECT_TRUE(response->approaches[1].routes.empty());
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    EXPECT_EQ(response->approaches[i].status, "ok") << "approach " << i;
    EXPECT_FALSE(response->approaches[i].routes.empty()) << "approach " << i;
  }
  const std::string json = processor_->ToJson(*response);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"internal\""), std::string::npos);
}

TEST_F(QueryProcessorFaultFixture, SlowEngineExhaustsSliceOthersStillShip) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  // The request budget is 2s, so the first engine's slice is 500ms; 600ms of
  // injected latency deterministically overruns it while leaving ~1.4s for
  // the other three (sub-millisecond on this grid).
  fi.InjectLatencyMs("engine:commercial", 600);

  auto response =
      processor_->Process(Origin(), Far(), nullptr, Deadline::AfterMs(2000));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->degraded);
  ASSERT_EQ(response->approaches.size(), 4u);
  EXPECT_EQ(response->approaches[0].status, "deadline_exceeded");
  EXPECT_TRUE(response->approaches[0].routes.empty());
  for (size_t i : {size_t{1}, size_t{2}, size_t{3}}) {
    EXPECT_EQ(response->approaches[i].status, "ok") << "approach " << i;
    EXPECT_FALSE(response->approaches[i].routes.empty()) << "approach " << i;
  }
  EXPECT_EQ(fi.TriggerCount("engine:commercial"), 1);
}

TEST_F(QueryProcessorFaultFixture, ExpiredRequestDeadlineFailsWholeRequest) {
  auto response =
      processor_->Process(Origin(), Far(), nullptr, Deadline::AfterMs(-1));
  EXPECT_TRUE(response.status().IsDeadlineExceeded()) << response.status();
}

TEST_F(QueryProcessorFaultFixture, AllEnginesFailingReturnsFirstFailure) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  for (const char* site : {"engine:commercial", "engine:plateau_ch",
                           "engine:dissimilarity", "engine:penalty_ch"}) {
    fi.InjectError(site, Status::Internal("injected engine crash"));
  }
  auto response = processor_->Process(Origin(), Far());
  EXPECT_TRUE(response.status().IsInternal()) << response.status();
}

TEST_F(QueryProcessorFaultFixture, SnapFaultSurfacesAsQueryError) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  fi.InjectError("snap", Status::Internal("index unavailable"));
  auto response = processor_->Process(Origin(), Far());
  EXPECT_TRUE(response.status().IsInternal()) << response.status();
}

TEST_F(QueryProcessorFaultFixture, GenerateForHonoursExpiredDeadline) {
  auto set = processor_->GenerateFor(Origin(), Far(), Approach::kPenalty,
                                     /*stats=*/nullptr, Deadline::AfterMs(-1));
  // Either the engine bailed before the shortest path (error) or it shipped
  // a truncated set — never a silently complete result.
  if (set.ok()) {
    EXPECT_FALSE(set->completion.ok());
  } else {
    EXPECT_TRUE(set.status().IsDeadlineExceeded()) << set.status();
  }
}

TEST_F(QueryProcessorFaultFixture, RenderFaultShipsApproachesWithoutRoutes) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  fi.InjectError("render", Status::Internal("injected render crash"));
  auto response = processor_->Process(Origin(), Far());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->degraded);
  ASSERT_EQ(response->approaches.size(), 4u);
  for (const auto& approach : response->approaches) {
    EXPECT_EQ(approach.status, "internal");
    EXPECT_TRUE(approach.routes.empty());
  }
}

// Circuit-breaker integration: own fixture (not the shared static processor)
// so breaker state never leaks across tests. The breaker clock is a fake the
// test advances by hand — cooldown expiry is exact, no sleeping.
class QueryProcessorBreakerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto net = testutil::GridNetwork(6, 6, 60.0, 500.0);
    auto suite = EngineSuite::MakePaperSuite(net);
    ALT_CHECK(suite.ok());
    processor_ =
        std::make_unique<QueryProcessor>(std::move(suite).ValueOrDie());
    CircuitBreakerOptions options;
    options.consecutive_failures_to_open = 3;
    options.open_cooldown = std::chrono::milliseconds(1000);
    options.half_open_successes_to_close = 2;
    breakers_ = std::make_shared<EngineBreakerSet>(
        "testcity", options, [this] { return fake_now_; });
    processor_->set_breakers(breakers_);
  }
  void TearDown() override { FaultInjector::Global().Disarm(); }

  Result<QueryResponse> Query() {
    const RoadNetwork& net = processor_->network();
    return processor_->Process(
        net.coord(0), net.coord(static_cast<NodeId>(net.num_nodes() - 1)));
  }

  std::unique_ptr<QueryProcessor> processor_;
  std::shared_ptr<EngineBreakerSet> breakers_;
  CircuitBreaker::Clock::time_point fake_now_{};
};

TEST_F(QueryProcessorBreakerTest, OpensAfterKFailuresAndSkipsTheEngine) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  fi.InjectError("engine:plateau_ch", Status::Internal("injected engine crash"));

  // Exactly K = 3 failing runs trip the breaker...
  for (int i = 0; i < 3; ++i) {
    auto response = Query();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->approaches[1].status, "internal") << "query " << i;
  }
  EXPECT_EQ(breakers_->ForEngine("plateau_ch").state(), BreakerState::kOpen);
  EXPECT_EQ(fi.TriggerCount("engine:plateau_ch"), 3);

  // ...and from then on the engine is not invoked at all: the approach ships
  // "breaker_open" and the fault site stops firing.
  for (int i = 0; i < 5; ++i) {
    auto response = Query();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->degraded);
    ASSERT_EQ(response->approaches.size(), 4u);
    EXPECT_EQ(response->approaches[1].status, "breaker_open");
    EXPECT_TRUE(response->approaches[1].routes.empty());
    // The healthy engines keep shipping full results.
    for (size_t a : {size_t{0}, size_t{2}, size_t{3}}) {
      EXPECT_EQ(response->approaches[a].status, "ok") << "approach " << a;
      EXPECT_FALSE(response->approaches[a].routes.empty());
    }
  }
  EXPECT_EQ(fi.TriggerCount("engine:plateau_ch"), 3);
}

TEST_F(QueryProcessorBreakerTest, RecoversViaProbesAfterFaultClears) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  fi.InjectError("engine:plateau_ch", Status::Internal("injected engine crash"));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(Query().ok());
  ASSERT_EQ(breakers_->ForEngine("plateau_ch").state(), BreakerState::kOpen);

  // Fault cleared but the cooldown has not elapsed: still skipped.
  fi.Disarm();
  auto response = Query();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->approaches[1].status, "breaker_open");

  // Cooldown over: the next two queries run the engine as recovery probes
  // and their successes close the breaker.
  fake_now_ += std::chrono::milliseconds(1000);
  for (int probe = 0; probe < 2; ++probe) {
    response = Query();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->approaches[1].status, "ok") << "probe " << probe;
  }
  EXPECT_EQ(breakers_->ForEngine("plateau_ch").state(), BreakerState::kClosed);
  response = Query();
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->degraded);
}

TEST_F(QueryProcessorBreakerTest, ClientOutcomesNeverTrip) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  // NotFound means the query had no answer, not that the engine is broken.
  fi.InjectError("engine:plateau_ch", Status::NotFound("no route"));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(Query().ok());
  EXPECT_EQ(breakers_->ForEngine("plateau_ch").state(), BreakerState::kClosed);
}

TEST_F(QueryProcessorBreakerTest, NullBreakerSetDisablesChecks) {
  processor_->set_breakers(nullptr);
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  fi.InjectError("engine:plateau_ch", Status::Internal("injected engine crash"));
  for (int i = 0; i < 20; ++i) {
    auto response = Query();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->approaches[1].status, "internal");
  }
  EXPECT_EQ(fi.TriggerCount("engine:plateau_ch"), 20);
}

}  // namespace
}  // namespace altroute
