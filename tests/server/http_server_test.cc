// Integration tests: a real HttpServer + DemoService on an ephemeral port,
// exercised through actual loopback sockets — the full web-demo flow of
// paper Figs. 2-3 (query -> masked routes -> rating form -> stats).
#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <regex>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "http_test_client.h"
#include "obs/metrics.h"
#include "server/demo_service.h"
#include "util/fault_injector.h"
#include "util/check.h"
#include "util/json_parse.h"
#include "util/logging.h"

namespace altroute {
namespace {

std::string HttpGet(uint16_t port, const std::string& target,
                    std::string* status_line = nullptr,
                    std::string* headers = nullptr) {
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
                          " HTTP/1.1\r\nHost: localhost\r\nConnection: "
                          "close\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (status_line != nullptr) {
    *status_line = out.substr(0, out.find("\r\n"));
  }
  const size_t body = out.find("\r\n\r\n");
  if (headers != nullptr) {
    *headers = body == std::string::npos ? out : out.substr(0, body);
  }
  return body == std::string::npos ? out : out.substr(body + 4);
}

/// True when every non-empty line of `body` is a valid Prometheus text
/// exposition line: a # HELP/# TYPE comment or `name[{labels}] value`.
bool LooksLikePrometheusText(const std::string& body) {
  static const std::regex sample(
      R"(^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? ([-+0-9.eE]+|[-+]Inf|NaN)$)");
  std::istringstream in(body);
  std::string line;
  bool any_sample = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    if (!std::regex_match(line, sample)) return false;
    any_sample = true;
  }
  return any_sample;
}

/// A loader that serves `net` on every load.
NetworkManager::Loader GridLoader(std::shared_ptr<RoadNetwork> net) {
  return [net]() -> Result<std::shared_ptr<RoadNetwork>> { return net; };
}

class DemoServerFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto net = testutil::GridNetwork(6, 6, 60.0, 500.0);
    net_coord_origin_ = net->coord(0);
    net_coord_far_ = net->coord(static_cast<NodeId>(net->num_nodes() - 1));
    // The full concurrent wiring: a two-context pool with circuit breakers
    // behind a two-worker server, exactly as `altroute_cli serve --threads 2`
    // runs it.
    NetworkManager::Options manager_options;
    manager_options.contexts_per_city = 2;
    manager_options.enable_breakers = true;
    auto manager = std::make_shared<NetworkManager>(manager_options);
    ALT_CHECK_OK(manager->AddCity("grid", GridLoader(net)));
    service_ = new DemoService(manager);
    HttpServerOptions options;
    options.num_threads = 2;
    server_ = new HttpServer(options);
    service_->Install(server_);
    ALT_CHECK(server_->Start(0).ok());
  }

  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
    delete service_;
  }

  static DemoService* service_;
  static HttpServer* server_;
  static LatLng net_coord_origin_;
  static LatLng net_coord_far_;
};

DemoService* DemoServerFixture::service_ = nullptr;
HttpServer* DemoServerFixture::server_ = nullptr;
LatLng DemoServerFixture::net_coord_origin_;
LatLng DemoServerFixture::net_coord_far_;

TEST_F(DemoServerFixture, ServesLandingPage) {
  std::string status;
  const std::string body = HttpGet(server_->port(), "/", &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("Alternative Route Planning"), std::string::npos);
}

TEST_F(DemoServerFixture, RouteEndpointReturnsMaskedApproaches) {
  char target[256];
  std::snprintf(target, sizeof(target),
                "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f",
                net_coord_origin_.lat, net_coord_origin_.lng,
                net_coord_far_.lat, net_coord_far_.lng);
  std::string status;
  const std::string body = HttpGet(server_->port(), target, &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"label\":\"A\""), std::string::npos);
  EXPECT_NE(body.find("\"label\":\"B\""), std::string::npos);
  EXPECT_NE(body.find("\"label\":\"C\""), std::string::npos);
  EXPECT_NE(body.find("\"label\":\"D\""), std::string::npos);
  // Masking: approach names must never leak to the client.
  EXPECT_EQ(body.find("Plateaus"), std::string::npos);
  EXPECT_EQ(body.find("Google"), std::string::npos);
  EXPECT_EQ(body.find("Penalty"), std::string::npos);
}

TEST_F(DemoServerFixture, DirectionsEndpointReturnsSteps) {
  char target[256];
  std::snprintf(target, sizeof(target),
                "/directions?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f&label=B",
                net_coord_origin_.lat, net_coord_origin_.lng,
                net_coord_far_.lat, net_coord_far_.lng);
  std::string status;
  const std::string body = HttpGet(server_->port(), target, &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"steps\":["), std::string::npos);
  EXPECT_NE(body.find("\"maneuver\":\"depart\""), std::string::npos);
  EXPECT_NE(body.find("\"maneuver\":\"arrive\""), std::string::npos);
  EXPECT_NE(body.find("arrive at destination"), std::string::npos);
}

TEST_F(DemoServerFixture, DirectionsEndpointValidatesLabel) {
  char target[256];
  std::snprintf(target, sizeof(target),
                "/directions?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f&label=Z",
                net_coord_origin_.lat, net_coord_origin_.lng,
                net_coord_far_.lat, net_coord_far_.lng);
  std::string status;
  HttpGet(server_->port(), target, &status);
  EXPECT_NE(status.find("400"), std::string::npos);
}

TEST_F(DemoServerFixture, RouteEndpointValidatesParameters) {
  std::string status;
  HttpGet(server_->port(), "/route?slat=1.0", &status);
  EXPECT_NE(status.find("400"), std::string::npos);
  HttpGet(server_->port(), "/route?slat=x&slng=1&tlat=2&tlng=3", &status);
  EXPECT_NE(status.find("400"), std::string::npos);
}

TEST_F(DemoServerFixture, RatingFlowStoresSubmissions) {
  const size_t before = service_->ratings().size();
  std::string status;
  const std::string body = HttpGet(
      server_->port(), "/rate?a=3&b=4&c=4&d=5&resident=1&comment=less+zigzag",
      &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"stored\":true"), std::string::npos);
  EXPECT_EQ(service_->ratings().size(), before + 1);
  const auto all = service_->ratings().Snapshot();
  EXPECT_EQ(all.back().comment, "less zigzag");
  EXPECT_TRUE(all.back().melbourne_resident);
}

TEST_F(DemoServerFixture, RatingValidation) {
  std::string status;
  HttpGet(server_->port(), "/rate?a=9&b=4&c=4&d=5", &status);
  EXPECT_NE(status.find("400"), std::string::npos);
  HttpGet(server_->port(), "/rate?a=3&b=4&c=4", &status);
  EXPECT_NE(status.find("400"), std::string::npos);
}

TEST_F(DemoServerFixture, StatsEndpointAggregates) {
  ASSERT_TRUE(service_->ratings().Add({{5, 5, 5, 5}, true, ""}).ok());
  const std::string body = HttpGet(server_->port(), "/stats");
  EXPECT_NE(body.find("\"submissions\":"), std::string::npos);
  EXPECT_NE(body.find("\"mean_ratings\":"), std::string::npos);
}

TEST_F(DemoServerFixture, MetricsEndpointServesPrometheusText) {
  // Run one query first so the per-approach instruments exist.
  char target[256];
  std::snprintf(target, sizeof(target),
                "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f",
                net_coord_origin_.lat, net_coord_origin_.lng,
                net_coord_far_.lat, net_coord_far_.lng);
  HttpGet(server_->port(), target);

  std::string status, headers;
  const std::string body =
      HttpGet(server_->port(), "/metrics", &status, &headers);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(headers.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_TRUE(LooksLikePrometheusText(body)) << body;

  // Per-approach latency histogram and search counters are present.
  EXPECT_NE(body.find("# TYPE altroute_query_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(body.find("altroute_query_latency_seconds_bucket{approach="
                      "\"penalty_ch\""),
            std::string::npos);
  EXPECT_NE(body.find("altroute_search_nodes_settled_total{approach="),
            std::string::npos);
  EXPECT_NE(body.find("altroute_queries_total{city="), std::string::npos);
  // The HTTP layer counts requests by path and status code.
  EXPECT_NE(body.find("altroute_http_requests_total{path=\"/route\","
                      "code=\"200\"}"),
            std::string::npos);
}

TEST_F(DemoServerFixture, RouteWithTraceReturnsSpanTree) {
  char target[256];
  std::snprintf(target, sizeof(target),
                "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f&trace=1",
                net_coord_origin_.lat, net_coord_origin_.lng,
                net_coord_far_.lat, net_coord_far_.lng);
  std::string status;
  const std::string body = HttpGet(server_->port(), target, &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  const auto parsed = ParseJson(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // The trace block lists the request's laps in order: snap, then one lap
  // per engine (each carrying its approach's details and search stats)
  // followed by its render lap, then serialize.
  const JsonValue* trace = parsed->Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_array());
  std::vector<std::string> names;
  std::vector<std::string> engines;
  for (const JsonValue& lap : trace->AsArray()) {
    names.push_back(lap.GetString("name", ""));
    EXPECT_GE(lap.GetNumber("duration_ms", -1.0), 0.0) << names.back();
    if (names.back().rfind("engine:", 0) != 0) continue;
    engines.push_back(names.back());
    EXPECT_EQ(lap.GetString("status", ""), "ok") << names.back();
    EXPECT_EQ(lap.GetString("label", "").size(), 1u) << names.back();
    EXPECT_GE(lap.GetNumber("routes", 0.0), 1.0) << names.back();
    const JsonValue* stats = lap.Find("stats");
    ASSERT_NE(stats, nullptr) << names.back();
    EXPECT_NE(stats->Find("nodes_settled"), nullptr) << names.back();
  }
  ASSERT_FALSE(names.empty());
  EXPECT_NE(std::find(names.begin(), names.end(), "snap"), names.end());
  EXPECT_EQ(names.back(), "serialize");
  ASSERT_EQ(engines.size(), 4u);
  for (const char* engine : {"commercial", "plateau_ch", "dissimilarity",
                             "penalty_ch"}) {
    EXPECT_EQ(std::count_if(engines.begin(), engines.end(),
                            [&](const std::string& name) {
                              return name.rfind(std::string("engine:") +
                                                    engine,
                                                0) == 0;
                            }),
              1)
        << engine;
  }
  // Routes payload still present alongside the trace.
  EXPECT_NE(body.find("\"approaches\":["), std::string::npos);
}

TEST_F(DemoServerFixture, RouteWithoutTraceOmitsTraceBlock) {
  char target[256];
  std::snprintf(target, sizeof(target),
                "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f",
                net_coord_origin_.lat, net_coord_origin_.lng,
                net_coord_far_.lat, net_coord_far_.lng);
  const std::string body = HttpGet(server_->port(), target);
  EXPECT_EQ(body.find("\"trace\""), std::string::npos);
}

TEST_F(DemoServerFixture, UnknownPathIs404) {
  std::string status;
  const std::string body = HttpGet(server_->port(), "/nope", &status);
  EXPECT_NE(status.find("404"), std::string::npos);
  EXPECT_NE(body.find("error"), std::string::npos);
}

TEST_F(DemoServerFixture, FarAwayClickIs422WithStructuredError) {
  // Coordinates parse fine but snap outside the study area: semantic
  // rejection, not a malformed request.
  std::string status;
  const std::string body = HttpGet(
      server_->port(), "/route?slat=45.0&slng=9.0&tlat=45.1&tlng=9.1",
      &status);
  EXPECT_NE(status.find("422"), std::string::npos);
  EXPECT_NE(body.find("\"error\":{\"code\":\"invalid_argument\""),
            std::string::npos);
  EXPECT_NE(body.find("study area"), std::string::npos);
}

TEST_F(DemoServerFixture, InjectedEngineFailureYieldsDegraded200) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  fi.InjectError("engine:dissimilarity", Status::Internal("injected"));
  char target[256];
  std::snprintf(target, sizeof(target),
                "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f",
                net_coord_origin_.lat, net_coord_origin_.lng,
                net_coord_far_.lat, net_coord_far_.lng);
  std::string status;
  const std::string body = HttpGet(server_->port(), target, &status);
  fi.Disarm();
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(body.find("\"status\":\"internal\""), std::string::npos);
  // All four masked labels are still present.
  for (const char* label : {"\"label\":\"A\"", "\"label\":\"B\"",
                            "\"label\":\"C\"", "\"label\":\"D\""}) {
    EXPECT_NE(body.find(label), std::string::npos) << label;
  }
}

/// A demo server with a per-request wall budget, as `serve
/// --request-timeout-ms 100` would run it. Per-test (not per-suite) because
/// the fault-injection rules differ between tests.
class DeadlineServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto net = testutil::GridNetwork(6, 6, 60.0, 500.0);
    origin_ = net->coord(0);
    far_ = net->coord(static_cast<NodeId>(net->num_nodes() - 1));
    NetworkManager::Options manager_options;
    manager_options.contexts_per_city = 2;
    auto manager = std::make_shared<NetworkManager>(manager_options);
    ALT_CHECK_OK(manager->AddCity("grid", GridLoader(net)));
    service_ = std::make_unique<DemoService>(manager);
    HttpServerOptions options;
    options.num_threads = 2;
    options.request_timeout_ms = 100;
    server_ = std::make_unique<HttpServer>(options);
    service_->Install(server_.get());
    ALT_CHECK(server_->Start(0).ok());
  }

  void TearDown() override {
    server_->Stop();
    FaultInjector::Global().Disarm();
  }

  std::string RouteTarget() const {
    char target[256];
    std::snprintf(target, sizeof(target),
                  "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f",
                  origin_.lat, origin_.lng, far_.lat, far_.lng);
    return target;
  }

  std::unique_ptr<DemoService> service_;
  std::unique_ptr<HttpServer> server_;
  LatLng origin_;
  LatLng far_;
};

TEST_F(DeadlineServerFixture, ExhaustedRequestBudgetIs504WithinBound) {
  auto& fi = FaultInjector::Global();
  fi.Arm(/*seed=*/1);
  // 110ms of injected engine latency overruns the 100ms request budget, so
  // the engine loop must fail the request before starting engine #2.
  fi.InjectLatencyMs("engine:commercial", 110);
  fi.InjectError("engine:plateau_ch", Status::Internal("must never run"));

  const auto begin = std::chrono::steady_clock::now();
  std::string status;
  const std::string body = HttpGet(server_->port(), RouteTarget(), &status);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  EXPECT_NE(status.find("504"), std::string::npos) << status;
  EXPECT_NE(body.find("\"error\":{\"code\":\"deadline_exceeded\""),
            std::string::npos)
      << body;
  // Acceptance bound: the 504 lands within deadline + 100ms of slack.
  EXPECT_LE(elapsed, 100 + 100) << "504 took " << elapsed << "ms";
  // The request failed fast: engines after the slow one never started.
  EXPECT_EQ(fi.TriggerCount("engine:plateau_ch"), 0);
}

TEST_F(DeadlineServerFixture, RequestExpiringInQueueGets504BeforeDispatch) {
  // Stamp the deadline at accept, then let it expire before the request
  // even arrives: the worker must answer 504 without running a handler.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const std::string req = "GET " + RouteTarget() +
                          " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_GT(::send(fd, req.data(), req.size(), 0), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(out.find("504"), std::string::npos) << out;
  EXPECT_NE(out.find("deadline_exceeded"), std::string::npos) << out;
}

TEST_F(DeadlineServerFixture, FastRequestsUnaffectedByBudget) {
  std::string status;
  const std::string body = HttpGet(server_->port(), RouteTarget(), &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"degraded\":false"), std::string::npos);
}

using testing_http::KeepAliveClient;

/// A bare two-worker server for the keep-alive tests. /echo answers with
/// its query parameter n and its body; /admin/reload counts its calls, so a
/// smuggled request that reached it would show.
class KeepAliveFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    HttpServerOptions options;
    options.num_threads = 2;
    server_ = std::make_unique<HttpServer>(options);
    server_->Route("/ping", [](const HttpRequest&) {
      return HttpResponse::Json("{\"pong\":true}");
    });
    server_->Route("/echo", [](const HttpRequest& req) {
      const auto n = req.query.find("n");
      return HttpResponse::Json(
          "{\"n\":\"" + (n == req.query.end() ? std::string() : n->second) +
          "\",\"body\":\"" + req.body + "\"}");
    });
    server_->Route("/admin/reload", [this](const HttpRequest&) {
      reloads_.fetch_add(1);
      return HttpResponse::Json("{}");
    });
    ASSERT_TRUE(server_->Start(0).ok());
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<HttpServer> server_;
  std::atomic<int> reloads_{0};
};

TEST_F(KeepAliveFixture, TwoRequestsOnOneSocketGetTheirOwnIds) {
  KeepAliveClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.SendGet("/ping");
  const std::string first = client.ReadResponse();
  client.SendGet("/ping");
  const std::string second = client.ReadResponse();
  EXPECT_EQ(KeepAliveClient::Status(first), 200) << first;
  EXPECT_EQ(KeepAliveClient::Status(second), 200) << second;
  EXPECT_EQ(KeepAliveClient::HeaderValue(first, "Connection"), "keep-alive");
  const std::string first_id = KeepAliveClient::HeaderValue(first, "X-Request-Id");
  const std::string second_id =
      KeepAliveClient::HeaderValue(second, "X-Request-Id");
  EXPECT_FALSE(first_id.empty());
  EXPECT_FALSE(second_id.empty());
  EXPECT_NE(first_id, second_id);
}

TEST_F(KeepAliveFixture, RequestsSentInOneWriteAreAnsweredInOrder) {
  KeepAliveClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send(
      "GET /echo?n=1 HTTP/1.1\r\nHost: x\r\n\r\n"
      "POST /echo?n=2 HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc"
      "GET /echo?n=3 HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string first = client.ReadResponse();
  const std::string second = client.ReadResponse();
  const std::string third = client.ReadResponse();
  EXPECT_NE(first.find("{\"n\":\"1\",\"body\":\"\"}"), std::string::npos)
      << first;
  EXPECT_NE(second.find("{\"n\":\"2\",\"body\":\"abc\"}"), std::string::npos)
      << second;
  EXPECT_NE(third.find("{\"n\":\"3\",\"body\":\"\"}"), std::string::npos)
      << third;
}

TEST_F(KeepAliveFixture, ClosingClientsGetConnectionCloseAndEof) {
  for (const std::string request :
       {"GET /ping HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        "GET /ping HTTP/1.0\r\n\r\n"}) {
    KeepAliveClient client(server_->port());
    ASSERT_TRUE(client.connected());
    client.Send(request);
    const std::string response = client.ReadResponse();
    EXPECT_EQ(KeepAliveClient::Status(response), 200) << request;
    EXPECT_EQ(KeepAliveClient::HeaderValue(response, "Connection"), "close")
        << request;
    EXPECT_TRUE(client.ReadsEof()) << request;
  }
  // An HTTP/1.0 client that asks to keep the connection keeps it.
  KeepAliveClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("GET /ping HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
  const std::string first = client.ReadResponse();
  EXPECT_EQ(KeepAliveClient::HeaderValue(first, "Connection"), "keep-alive");
  client.Send("GET /ping HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
  EXPECT_EQ(KeepAliveClient::Status(client.ReadResponse()), 200);
}

TEST_F(KeepAliveFixture, MalformedSecondRequestGets400AndEof) {
  KeepAliveClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.SendGet("/ping");
  EXPECT_EQ(KeepAliveClient::Status(client.ReadResponse()), 200);
  client.Send("ONLYONETOKEN\r\n\r\n");
  const std::string response = client.ReadResponse();
  EXPECT_EQ(KeepAliveClient::Status(response), 400) << response;
  EXPECT_EQ(KeepAliveClient::HeaderValue(response, "Connection"), "close");
  EXPECT_TRUE(client.ReadsEof());
}

// A HEAD response carries its body here, which a client does not read: on
// a kept connection the client would take those bytes for the start of the
// next response, so the server answers HEAD and closes.
TEST_F(KeepAliveFixture, HeadRequestClosesTheConnection) {
  KeepAliveClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.SendGet("/ping");
  ASSERT_EQ(KeepAliveClient::Status(client.ReadResponse()), 200);
  client.Send("HEAD /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string response = client.ReadResponse();
  EXPECT_EQ(KeepAliveClient::Status(response), 200) << response;
  EXPECT_EQ(KeepAliveClient::HeaderValue(response, "Connection"), "close");
  EXPECT_TRUE(client.ReadsEof());
}

// A body whose length cannot be trusted is not read, so the bytes after the
// headers must not be taken for the next request: the server answers once
// and closes, and the request spelled in the body never runs.
TEST_F(KeepAliveFixture, UntrustedBodyFramingAnswersOnceThenCloses) {
  const std::string smuggled =
      "POST /admin/reload HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
  for (const std::string framing :
       {"Content-Length: 99999999999\r\n",  // above max_body_bytes
        "Content-Length: twelve\r\n",
        "Content-Length: 0\r\nContent-Length: 0\r\n",
        "Transfer-Encoding: chunked\r\n"}) {
    KeepAliveClient client(server_->port());
    ASSERT_TRUE(client.connected());
    client.Send("POST /ping HTTP/1.1\r\nHost: x\r\n" + framing + "\r\n" +
                smuggled);
    const std::string response = client.ReadResponse();
    EXPECT_EQ(KeepAliveClient::Status(response), 200) << framing;
    EXPECT_EQ(KeepAliveClient::HeaderValue(response, "Connection"), "close")
        << framing;
    EXPECT_TRUE(client.ReadsEof()) << framing;
  }
  EXPECT_EQ(reloads_.load(), 0);
}

// Requests per connection can be read off /metrics, and a worker idle on a
// kept-alive connection does not count as busy.
TEST_F(KeepAliveFixture, MetricsCountRequestsPerConnection) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& connections =
      registry.GetCounter("altroute_http_connections_total", "");
  obs::Counter& pings =
      registry
          .GetCounterFamily("altroute_http_requests_total",
                            "HTTP requests served.", {"path", "code"})
          .WithLabels({"/ping", "200"});
  const obs::Gauge& busy = registry.GetGauge("altroute_http_workers_busy", "");
  const uint64_t connections_before = connections.Value();
  const uint64_t pings_before = pings.Value();

  KeepAliveClient client(server_->port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 3; ++i) {
    client.SendGet("/ping");
    ASSERT_EQ(KeepAliveClient::Status(client.ReadResponse()), 200);
  }
  EXPECT_EQ(pings.Value() - pings_before, 3u);
  EXPECT_EQ(connections.Value() - connections_before, 1u);

  // The worker lets go of the gauge just after its send returns.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (busy.Value() != 0.0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(busy.Value(), 0.0);
  // ...while the connection was still open and kept: it serves a fourth.
  client.SendGet("/ping");
  EXPECT_EQ(KeepAliveClient::Status(client.ReadResponse()), 200);
  EXPECT_EQ(connections.Value() - connections_before, 1u);
}

TEST(HttpServerTest, StopIsIdempotentAndRestartable) {
  HttpServer server;
  server.Route("/ping", [](const HttpRequest&) {
    return HttpResponse::Json("{\"pong\":true}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  const uint16_t port = server.port();
  EXPECT_GT(port, 0);
  EXPECT_NE(HttpGet(port, "/ping").find("pong"), std::string::npos);
  server.Stop();
  server.Stop();  // idempotent
  EXPECT_FALSE(server.running());
}

TEST(HttpServerTest, DoubleStartFails) {
  HttpServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.Start(0).IsFailedPrecondition());
  server.Stop();
}

}  // namespace
}  // namespace altroute
