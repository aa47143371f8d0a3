// Integration tests for the multi-city data plane: DemoService over a
// NetworkManager with file-backed loaders, exercised through real loopback
// sockets. Covers per-city routing, /healthz, /readyz, POST /admin/reload
// with both valid and corrupt replacement files, and the zero-downtime
// guarantee: no request fails while a snapshot is being swapped.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.h"
#include "graph/serialization.h"
#include "server/demo_service.h"
#include "server/http_server.h"
#include "server/network_manager.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {
namespace {

std::string HttpDo(uint16_t port, const std::string& method,
                   const std::string& target,
                   std::string* status_line = nullptr) {
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
  const std::string req = method + " " + target +
                          " HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0"
                          "\r\nConnection: close\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (status_line != nullptr) *status_line = out.substr(0, out.find("\r\n"));
  const size_t body = out.find("\r\n\r\n");
  return body == std::string::npos ? out : out.substr(body + 4);
}

std::string HttpGet(uint16_t port, const std::string& target,
                    std::string* status_line = nullptr) {
  return HttpDo(port, "GET", target, status_line);
}

/// Two file-backed cities behind one server, as
/// `serve --net alpha.bin --net beta.bin` runs it. Per-test (not per-suite)
/// because the tests overwrite the backing files.
class DataPlaneFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Named per test: ctest runs each test in its own process, in parallel,
    // and a shared path let one test's SetUp/TearDown rewrite or delete the
    // file another test was reloading.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    alpha_path_ = ::testing::TempDir() + "/dataplane_alpha_" + test + ".bin";
    beta_path_ = ::testing::TempDir() + "/dataplane_beta_" + test + ".bin";
    WriteNetwork(alpha_path_, 5);
    WriteNetwork(beta_path_, 4);

    NetworkManager::Options options;
    options.contexts_per_city = 2;
    manager_ = std::make_shared<NetworkManager>(options);
    ASSERT_TRUE(manager_->AddCity("alpha", FileLoader(alpha_path_)).ok());
    ASSERT_TRUE(manager_->AddCity("beta", FileLoader(beta_path_)).ok());

    service_ = std::make_unique<DemoService>(manager_);
    HttpServerOptions server_options;
    server_options.num_threads = 4;
    server_ = std::make_unique<HttpServer>(server_options);
    service_->Install(server_.get());
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override {
    server_->Stop();
    ::remove(alpha_path_.c_str());
    ::remove(beta_path_.c_str());
  }

  static void WriteNetwork(const std::string& path, int rows) {
    auto net = testutil::GridNetwork(rows, rows);
    ALT_CHECK(NetworkSerializer::SaveToFile(*net, path).ok());
  }

  static void WriteGarbage(const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "ALTR not actually a serialized network";
  }

  static NetworkManager::Loader FileLoader(const std::string& path) {
    return [path]() -> Result<std::shared_ptr<RoadNetwork>> {
      ALTROUTE_ASSIGN_OR_RETURN(std::shared_ptr<RoadNetwork> net,
                                NetworkSerializer::LoadFromFile(path));
      return net;
    };
  }

  /// A /route target snapped to the city's own corner coordinates.
  std::string RouteTarget(const std::string& city) const {
    auto snapshot = *manager_->GetSnapshot(city);
    const RoadNetwork& net = snapshot->network();
    const LatLng a = net.coord(0);
    const LatLng b = net.coord(static_cast<NodeId>(net.num_nodes() - 1));
    char target[256];
    std::snprintf(target, sizeof(target),
                  "/route?city=%s&slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f",
                  city.c_str(), a.lat, a.lng, b.lat, b.lng);
    return target;
  }

  std::string alpha_path_;
  std::string beta_path_;
  std::shared_ptr<NetworkManager> manager_;
  std::unique_ptr<DemoService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(DataPlaneFixture, HealthzIsAlwaysOk) {
  std::string status;
  const std::string body = HttpGet(server_->port(), "/healthz", &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_EQ(body, "ok\n");
}

TEST_F(DataPlaneFixture, ReadyzReportsEveryCity) {
  std::string status;
  const std::string body = HttpGet(server_->port(), "/readyz", &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_NE(body.find("\"ready\":true"), std::string::npos);
  EXPECT_NE(body.find("\"alpha\""), std::string::npos);
  EXPECT_NE(body.find("\"beta\""), std::string::npos);
  EXPECT_NE(body.find("\"generation\":1"), std::string::npos);
}

TEST_F(DataPlaneFixture, RoutesToTheRequestedCity) {
  std::string status;
  const std::string body =
      HttpGet(server_->port(), RouteTarget("alpha"), &status);
  EXPECT_NE(status.find("200"), std::string::npos) << status;
  EXPECT_NE(body.find("\"label\":\"A\""), std::string::npos);
  HttpGet(server_->port(), RouteTarget("beta"), &status);
  EXPECT_NE(status.find("200"), std::string::npos) << status;
}

TEST_F(DataPlaneFixture, MissingCityParameterIs400WhenSeveralServed) {
  std::string status;
  const std::string body = HttpGet(
      server_->port(), "/route?slat=0&slng=0&tlat=0.001&tlng=0.001", &status);
  EXPECT_NE(status.find("400"), std::string::npos) << status;
  EXPECT_NE(body.find("alpha"), std::string::npos);  // the error names them
  EXPECT_NE(body.find("beta"), std::string::npos);
}

TEST_F(DataPlaneFixture, UnknownCityIs404) {
  std::string status;
  HttpGet(server_->port(),
          "/route?city=atlantis&slat=0&slng=0&tlat=0.001&tlng=0.001", &status);
  EXPECT_NE(status.find("404"), std::string::npos) << status;
}

TEST_F(DataPlaneFixture, ReloadRequiresPost) {
  std::string status;
  HttpGet(server_->port(), "/admin/reload?city=alpha", &status);
  EXPECT_NE(status.find("405"), std::string::npos) << status;
}

TEST_F(DataPlaneFixture, ValidReplacementSwapsSnapshot) {
  WriteNetwork(alpha_path_, 7);  // 49 nodes instead of 25
  std::string status;
  const std::string body =
      HttpDo(server_->port(), "POST", "/admin/reload?city=alpha", &status);
  EXPECT_NE(status.find("200"), std::string::npos) << status;
  EXPECT_NE(body.find("\"outcome\":\"success\""), std::string::npos) << body;

  auto snapshot = *manager_->GetSnapshot("alpha");
  EXPECT_EQ(snapshot->generation, 2u);
  EXPECT_EQ(snapshot->network().num_nodes(), 49u);
  // Routing keeps working against the new snapshot; beta is untouched.
  HttpGet(server_->port(), RouteTarget("alpha"), &status);
  EXPECT_NE(status.find("200"), std::string::npos);
  EXPECT_EQ((*manager_->GetSnapshot("beta"))->generation, 1u);
}

TEST_F(DataPlaneFixture, CorruptReplacementKeepsOldSnapshotServing) {
  WriteGarbage(beta_path_);
  std::string status;
  const std::string body =
      HttpDo(server_->port(), "POST", "/admin/reload?city=beta", &status);
  EXPECT_NE(status.find("500"), std::string::npos) << status;
  EXPECT_NE(body.find("\"outcome\":\"failed\""), std::string::npos) << body;

  // The old generation is still the serving one...
  EXPECT_EQ((*manager_->GetSnapshot("beta"))->generation, 1u);
  HttpGet(server_->port(), RouteTarget("beta"), &status);
  EXPECT_NE(status.find("200"), std::string::npos) << status;
  // ...and readiness is unaffected: the pod must not be drained.
  HttpGet(server_->port(), "/readyz", &status);
  EXPECT_NE(status.find("200"), std::string::npos) << status;
  // The failure is visible to monitoring.
  const std::string metrics = HttpGet(server_->port(), "/metrics");
  EXPECT_NE(metrics.find("altroute_network_reloads_total{city=\"beta\","
                         "outcome=\"failed\"}"),
            std::string::npos);
}

TEST_F(DataPlaneFixture, ReloadWithoutCityReloadsEveryCity) {
  std::string status;
  const std::string body =
      HttpDo(server_->port(), "POST", "/admin/reload", &status);
  EXPECT_NE(status.find("200"), std::string::npos) << status;
  EXPECT_NE(body.find("\"alpha\""), std::string::npos);
  EXPECT_NE(body.find("\"beta\""), std::string::npos);
  EXPECT_EQ((*manager_->GetSnapshot("alpha"))->generation, 2u);
  EXPECT_EQ((*manager_->GetSnapshot("beta"))->generation, 2u);
}

TEST_F(DataPlaneFixture, ReloadUnknownCityIs404) {
  std::string status;
  HttpDo(server_->port(), "POST", "/admin/reload?city=atlantis", &status);
  EXPECT_NE(status.find("404"), std::string::npos) << status;
}

// Standalone servers (no fixture) for degenerate manager configurations.

TEST(DataPlaneEdgeTest, NoCitiesConfiguredIs503NotReady) {
  auto manager = std::make_shared<NetworkManager>();
  DemoService service(manager);
  HttpServer server{HttpServerOptions{}};
  service.Install(&server);
  ASSERT_TRUE(server.Start(0).ok());
  std::string status;
  const std::string body = HttpGet(
      server.port(), "/route?slat=0&slng=0&tlat=0.001&tlng=0.001", &status);
  EXPECT_NE(status.find("503"), std::string::npos) << status;
  EXPECT_NE(body.find("no cities configured"), std::string::npos) << body;
  HttpGet(server.port(), "/readyz", &status);
  EXPECT_NE(status.find("503"), std::string::npos) << status;
  server.Stop();
}

TEST(DataPlaneEdgeTest, IndexEscapesCityKeysAndNetworkNames) {
  // A --net file basename becomes the city key verbatim, so a hostile name
  // must not inject markup into the landing page.
  auto manager = std::make_shared<NetworkManager>();
  ASSERT_TRUE(manager
                  ->AddCity("<script>alert(1)</script>",
                            []() -> Result<std::shared_ptr<RoadNetwork>> {
                              return testutil::GridNetwork(3, 3);
                            })
                  .ok());
  DemoService service(manager);
  HttpServer server{HttpServerOptions{}};
  service.Install(&server);
  ASSERT_TRUE(server.Start(0).ok());
  const std::string body = HttpGet(server.port(), "/");
  EXPECT_EQ(body.find("<script>"), std::string::npos) << body;
  EXPECT_NE(body.find("&lt;script&gt;"), std::string::npos) << body;
  server.Stop();
}

TEST_F(DataPlaneFixture, NoRequestFailsDuringRepeatedReloads) {
  // The acceptance test for zero-downtime swaps: clients hammer /route while
  // the backing file alternates between two valid networks and is reloaded
  // repeatedly. Every single response must be 200 — no 5xx, no connection
  // drops, no torn snapshot.
  const std::string target = RouteTarget("alpha");
  std::atomic<bool> done{false};
  std::atomic<int> requests{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!done.load()) {
        std::string status;
        const std::string body = HttpGet(server_->port(), target, &status);
        ++requests;
        if (status.find("200") == std::string::npos || body.empty()) {
          ++failures;
        }
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    WriteNetwork(alpha_path_, round % 2 == 0 ? 6 : 5);
    std::string status;
    HttpDo(server_->port(), "POST", "/admin/reload?city=alpha", &status);
    EXPECT_NE(status.find("200"), std::string::npos) << status;
  }
  done.store(true);
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0)
      << failures.load() << " of " << requests.load() << " requests failed";
  EXPECT_GT(requests.load(), 0);
  EXPECT_EQ((*manager_->GetSnapshot("alpha"))->generation, 7u);
}

}  // namespace
}  // namespace altroute
