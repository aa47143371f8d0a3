// web_demo: the paper's web-based demonstration system (Sec. 3, Fig. 2) as a
// self-contained HTTP backend. Endpoints:
//   GET /       landing page
//   GET /route  ?slat=&slng=&tlat=&tlng=   -> masked A-D route sets (JSON)
//   GET /rate   ?a=&b=&c=&d=&resident=     -> store a feedback form
//   GET /stats  submission count and mean ratings
//
//   ./examples/web_demo [port] [--self-test]
//
// The city is served as `altroute_cli serve` serves it: added to a
// NetworkManager with a citygen loader, so POST /admin/reload rebuilds it.
//
// --self-test starts the server on an ephemeral port, drives the query,
// rating and stats flow once through a real socket, prints the responses,
// and exits 0 only when /route answered four approaches labelled A-D, /rate
// stored the form and /stats counts one submission (ctest runs it).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "citygen/city_generator.h"
#include "server/demo_service.h"
#include "server/http_server.h"
#include "util/json_parse.h"
#include "util/random.h"

using namespace altroute;

namespace {

/// Minimal HTTP GET for the self-test (loopback only).
std::string HttpGet(uint16_t port, const std::string& target) {
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
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  ::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = out.find("\r\n\r\n");
  return body == std::string::npos ? out : out.substr(body + 4);
}

/// True when a /route body carries four approaches labelled A-D in order.
bool HasFourMaskedApproaches(const std::string& body) {
  auto parsed = ParseJson(body);
  if (!parsed.ok()) return false;
  const JsonValue* approaches = parsed->Find("approaches");
  if (approaches == nullptr || !approaches->is_array() ||
      approaches->AsArray().size() != size_t{kNumApproaches}) {
    return false;
  }
  char label = 'A';
  for (const JsonValue& approach : approaches->AsArray()) {
    if (approach.GetString("label", "") != std::string(1, label++)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 8080;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) {
      self_test = true;
      port = 0;  // ephemeral
    } else {
      port = static_cast<uint16_t>(std::atoi(argv[i]));
    }
  }

  const citygen::CitySpec spec =
      citygen::Scaled(citygen::MelbourneSpec(), 0.5);
  auto manager = std::make_shared<NetworkManager>();
  if (const Status added = manager->AddCity(
          "melbourne", [spec] { return citygen::BuildCityNetwork(spec); });
      !added.ok()) {
    std::fprintf(stderr, "%s\n", added.ToString().c_str());
    return 1;
  }
  // The startup snapshot; a reload swaps the served one, not this.
  const std::shared_ptr<const NetworkSnapshot> snapshot =
      *manager->GetSnapshot("melbourne");
  const RoadNetwork* net = &snapshot->network();
  DemoService service(manager);

  HttpServer server;
  service.Install(&server);
  const Status st = server.Start(port);
  if (!st.ok()) {
    std::fprintf(stderr, "server: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("Demo backend for %s (%zu vertices) on http://127.0.0.1:%u/\n",
              net->name().c_str(), net->num_nodes(), server.port());

  if (self_test) {
    // Pick two nodes and drive the full query + rate + stats flow.
    Rng rng(3);
    const NodeId s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    NodeId t = s;
    while (t == s) t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    char target[256];
    std::snprintf(target, sizeof(target),
                  "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f",
                  net->coord(s).lat, net->coord(s).lng, net->coord(t).lat,
                  net->coord(t).lng);
    const std::string route = HttpGet(server.port(), target);
    std::printf("\nGET %s\n%.600s...\n", target, route.c_str());
    const std::string rate =
        HttpGet(server.port(), "/rate?a=3&b=4&c=4&d=5&resident=1");
    std::printf("\nGET /rate?a=3&b=4&c=4&d=5&resident=1\n%s\n", rate.c_str());
    const std::string stats = HttpGet(server.port(), "/stats");
    std::printf("\nGET /stats\n%s\n", stats.c_str());
    server.Stop();
    bool ok = true;
    if (!HasFourMaskedApproaches(route)) {
      std::fprintf(stderr, "self-test: /route did not answer approaches A-D\n");
      ok = false;
    }
    if (rate.find("\"stored\":true") == std::string::npos) {
      std::fprintf(stderr, "self-test: /rate did not store the form\n");
      ok = false;
    }
    if (stats.find("\"submissions\":1") == std::string::npos) {
      std::fprintf(stderr, "self-test: /stats does not count one submission\n");
      ok = false;
    }
    return ok ? 0 : 1;
  }

  std::printf("Try:\n  curl 'http://127.0.0.1:%u/route?slat=%.4f&slng=%.4f"
              "&tlat=%.4f&tlng=%.4f'\nCtrl-C to stop.\n",
              server.port(), spec.center.lat - 0.02, spec.center.lng - 0.02,
              spec.center.lat + 0.02, spec.center.lng + 0.02);
  // Serve until killed.
  for (;;) pause();
}
