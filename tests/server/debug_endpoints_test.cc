// Integration tests of the performance-attribution surface over real
// loopback sockets: X-Request-Id on every response, request_id in error
// bodies, the ?trace=1 phase breakdown (phase sum must explain the total),
// and the /debug/slow, /debug/requests, /debug/build endpoints (build costs
// per snapshot included).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "server/demo_service.h"
#include "server/http_server.h"
#include "server/network_manager.h"
#include "server/query_processor_pool.h"
#include "util/json_parse.h"

namespace altroute {
namespace {

/// Raw GET: returns the full response (status line + headers + body).
std::string HttpGetRaw(uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  ::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string Body(const std::string& raw) {
  const size_t pos = raw.find("\r\n\r\n");
  return pos == std::string::npos ? raw : raw.substr(pos + 4);
}

class DebugEndpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Large enough that engine compute dominates the request: the
    // phase-sum-vs-total bar below measures attribution coverage, not the
    // fixed per-request overhead of a trivial route.
    net_ = testutil::GridNetwork(15, 15);
    auto pool = QueryProcessorPool::Create(net_, 2);
    ASSERT_TRUE(pool.ok()) << pool.status();
    service_ = std::make_unique<DemoService>(
        std::make_unique<QueryProcessorPool>(std::move(pool).ValueOrDie()));
    HttpServerOptions options;
    options.num_threads = 2;
    server_ = std::make_unique<HttpServer>(options);
    service_->Install(server_.get());
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override { server_->Stop(); }

  std::string RouteTarget(NodeId s, NodeId t, const char* extra = "") {
    const LatLng a = net_->coord(s);
    const LatLng b = net_->coord(t);
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f%s", a.lat,
                  a.lng, b.lat, b.lng, extra);
    return buf;
  }

  std::shared_ptr<RoadNetwork> net_;
  std::unique_ptr<DemoService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(DebugEndpointsTest, EveryResponseCarriesARequestId) {
  const std::string ok = HttpGetRaw(server_->port(), RouteTarget(0, 20));
  EXPECT_NE(ok.find(" 200 "), std::string::npos);
  EXPECT_NE(ok.find("X-Request-Id: r"), std::string::npos);

  // The id is also the first member of the success body.
  const auto parsed = ParseJson(Body(ok));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("request_id", "").substr(0, 1), "r");

  // Errors carry it in both the header and the JSON body (inside the
  // structured "error" object).
  const std::string bad = HttpGetRaw(server_->port(), "/route?slat=oops");
  EXPECT_NE(bad.find(" 400 "), std::string::npos);
  EXPECT_NE(bad.find("X-Request-Id: r"), std::string::npos);
  const auto bad_body = ParseJson(Body(bad));
  ASSERT_TRUE(bad_body.ok()) << bad_body.status();
  const JsonValue* error = bad_body->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->GetString("request_id", "").substr(0, 1), "r");

  const std::string missing = HttpGetRaw(server_->port(), "/no-such-path");
  EXPECT_NE(missing.find(" 404 "), std::string::npos);
  EXPECT_NE(missing.find("X-Request-Id: r"), std::string::npos);
}

TEST_F(DebugEndpointsTest, TracePhasesSumExplainsTotal) {
  const NodeId far = static_cast<NodeId>(net_->num_nodes() - 1);
  const std::string raw =
      HttpGetRaw(server_->port(), RouteTarget(0, far, "&trace=1"));
  ASSERT_NE(raw.find(" 200 "), std::string::npos);
  const auto parsed = ParseJson(Body(raw));
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  const JsonValue* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr) << "trace=1 must embed the phase breakdown";
  const double total_ms = phases->GetNumber("total_ms", -1.0);
  ASSERT_GT(total_ms, 0.0);

  const JsonValue* list = phases->Find("phases");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  double sum_ms = 0.0;
  bool saw_engine = false, saw_serialize = false;
  for (const JsonValue& phase : list->AsArray()) {
    sum_ms += phase.GetNumber("ms", 0.0);
    const std::string name = phase.GetString("name", "");
    if (name.rfind("engine:", 0) == 0) saw_engine = true;
    if (name == "serialize") saw_serialize = true;
  }
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_serialize);
  // Attribution quality bar: the phases explain >= 90% of the wall total.
  EXPECT_LE(sum_ms, total_ms * 1.001);
  EXPECT_GE(sum_ms, total_ms * 0.9)
      << "untimed gap too large: sum=" << sum_ms << " total=" << total_ms;

  // Untraced responses stay lean: no phases block.
  const auto untraced =
      ParseJson(Body(HttpGetRaw(server_->port(), RouteTarget(0, 35))));
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->Find("phases"), nullptr);
}

TEST_F(DebugEndpointsTest, DebugRequestsRecordsEveryRequest) {
  HttpGetRaw(server_->port(), RouteTarget(0, 20));
  HttpGetRaw(server_->port(), RouteTarget(1, 30));
  const std::string raw = HttpGetRaw(server_->port(), "/debug/requests");
  ASSERT_NE(raw.find(" 200 "), std::string::npos);
  const auto parsed = ParseJson(Body(raw));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("kind", ""), "recent");
  const JsonValue* records = parsed->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_GE(records->AsArray().size(), 2u);
  const JsonValue& newest = records->AsArray().front();
  EXPECT_EQ(newest.GetString("request_id", "").substr(0, 1), "r");
  EXPECT_GT(newest.GetNumber("total_ms", -1.0), 0.0);
  ASSERT_NE(newest.Find("phases"), nullptr);
  EXPECT_FALSE(newest.Find("phases")->AsArray().empty());
  // Forensics records name the engines (server-side only — the participant
  // JSON keeps them blinded as A-D).
  ASSERT_NE(newest.Find("engines"), nullptr);
  EXPECT_FALSE(newest.Find("engines")->AsArray().empty());
}

TEST_F(DebugEndpointsTest, DebugSlowCollectsOffendersAboveThreshold) {
  // Everything is slower than a nano-threshold, so every request offends.
  service_->slow_queries().set_threshold_ms(0.000001);
  HttpGetRaw(server_->port(), RouteTarget(0, 20));
  const std::string raw = HttpGetRaw(server_->port(), "/debug/slow");
  ASSERT_NE(raw.find(" 200 "), std::string::npos);
  const auto parsed = ParseJson(Body(raw));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("kind", ""), "slow");
  EXPECT_GE(parsed->GetNumber("offenders_total", 0.0), 1.0);
  const JsonValue* records = parsed->Find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_GE(records->AsArray().size(), 1u);
  // Slow records keep the (bounded) request params for reproduction.
  const JsonValue* params = records->AsArray().front().Find("params");
  ASSERT_NE(params, nullptr);
  EXPECT_NE(params->Find("slat"), nullptr);
}

TEST_F(DebugEndpointsTest, PhaseHistogramsAppearInMetricsExposition) {
  HttpGetRaw(server_->port(), RouteTarget(0, 20));
  const std::string metrics = Body(HttpGetRaw(server_->port(), "/metrics"));
  EXPECT_NE(metrics.find("# HELP altroute_request_phase_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.find("# TYPE altroute_request_phase_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("phase=\"snap\""), std::string::npos);
  EXPECT_NE(metrics.find("phase=\"serialize\""), std::string::npos);
}

TEST_F(DebugEndpointsTest, DebugBuildReportsToolchainAndCities) {
  const std::string raw = HttpGetRaw(server_->port(), "/debug/build");
  ASSERT_NE(raw.find(" 200 "), std::string::npos);
  const auto parsed = ParseJson(Body(raw));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_FALSE(parsed->GetString("compiler", "").empty());
  const std::string build_type = parsed->GetString("build_type", "");
  EXPECT_TRUE(build_type == "release" || build_type == "debug");
  EXPECT_GE(parsed->GetNumber("bench_schema_version", 0.0), 1.0);
  EXPECT_GE(parsed->GetNumber("uptime_seconds", -1.0), 0.0);
  const JsonValue* cities = parsed->Find("cities");
  ASSERT_NE(cities, nullptr);
  ASSERT_EQ(cities->AsObject().size(), 1u);
  const JsonValue& city = cities->AsObject().begin()->second;
  EXPECT_TRUE(city.GetBool("ready", false));
  EXPECT_GT(city.GetNumber("nodes", 0.0), 0.0);
  // An adopted pool was built outside the data plane, and has no hierarchy.
  EXPECT_EQ(city.GetNumber("pool_build_seconds", -1.0), 0.0);
  EXPECT_FALSE(city.GetBool("ch", true));
}

// A CH snapshot's pool holds the commercial hierarchy: /debug/build reports
// its build seconds beside the display hierarchy's, so the commercial
// build's share of a reload stays visible.
TEST(DebugBuildTest, ReportsPoolAndChBuildSecondsPerSnapshot) {
  NetworkManager::Options options;
  options.build_ch = true;
  auto manager = std::make_shared<NetworkManager>(options);
  ASSERT_TRUE(manager
                  ->AddCity("gridburg",
                            [] {
                              return Result<std::shared_ptr<RoadNetwork>>(
                                  testutil::GridNetwork(12, 12));
                            })
                  .ok());
  DemoService service(manager);
  HttpServerOptions server_options;
  server_options.num_threads = 1;
  HttpServer server(server_options);
  service.Install(&server);
  ASSERT_TRUE(server.Start(0).ok());
  const std::string raw = HttpGetRaw(server.port(), "/debug/build");
  server.Stop();
  ASSERT_NE(raw.find(" 200 "), std::string::npos);
  const auto parsed = ParseJson(Body(raw));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* cities = parsed->Find("cities");
  ASSERT_NE(cities, nullptr);
  const JsonValue* city = cities->Find("gridburg");
  ASSERT_NE(city, nullptr);
  EXPECT_TRUE(city->GetBool("ch", false));
  EXPECT_GT(city->GetNumber("ch_build_seconds", 0.0), 0.0);
  EXPECT_GT(city->GetNumber("pool_build_seconds", 0.0), 0.0);
  EXPECT_GT(city->GetNumber("ch_shortcuts", 0.0), 0.0);
}

}  // namespace
}  // namespace altroute
