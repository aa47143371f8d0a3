// Closed-loop throughput benchmark of the concurrent HTTP serving path:
// C client threads issue /route queries back-to-back against a server with
// T worker threads (one QueryProcessor context per worker), for T sweeping
// 1 -> N. Each client keeps one HTTP/1.1 connection alive, as a browser
// does, so the run measures serving rather than connection set-up. The
// server keeps a connection only while no other connection waits for a
// worker, so the saving needs connections <= workers: in the runs with more
// clients than workers, connections are re-established about once per
// request (conn/request shows it).
// Alternative-route generation is embarrassingly parallel across queries,
// so requests-per-second should scale near-linearly with T until the
// hardware runs out of cores.
//
//   bench_perf_server [--city melbourne] [--scale 0.2] [--seconds 2]
//                     [--max-threads N (default: min(hw, 4))] [--clients C]
//                     [--smoke] [--bench-json FILE]
//
// --smoke shrinks the run to CI size (tiny city, sub-second measurement,
// at most 2 worker threads). --bench-json FILE additionally writes a
// BENCH_perf_server.json report (per-request latency percentiles +
// requests/s per thread count) for tools/bench_compare.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/demo_service.h"
#include "util/check.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace altroute;
using namespace altroute::bench;

namespace {

/// One client's kept-alive connection. Responses are read by their
/// Content-Length; the client reconnects when the server closes.
class KeepAliveClient {
 public:
  KeepAliveClient(uint16_t port, std::atomic<uint64_t>* connects)
      : port_(port), connects_(connects) {}
  ~KeepAliveClient() { Close(); }
  KeepAliveClient(const KeepAliveClient&) = delete;
  KeepAliveClient& operator=(const KeepAliveClient&) = delete;

  /// The status code of one GET, or 0 when the exchange failed.
  int Get(const std::string& target) {
    if (fd_ < 0 && !Connect()) return 0;
    const std::string req =
        "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    if (::send(fd_, req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size())) {
      Close();
      return 0;
    }
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return 0;
    }
    const std::string head = ToLower(buffer_.substr(0, header_end));
    size_t length = 0;
    if (const size_t at = head.find("\r\ncontent-length:");
        at != std::string::npos) {
      const size_t begin = at + 17;
      length = static_cast<size_t>(
          ParseInt64(Trim(head.substr(begin, head.find("\r\n", begin) - begin)))
              .ValueOr(0));
    }
    while (buffer_.size() < header_end + 4 + length) {
      if (!Fill()) return 0;
    }
    buffer_.erase(0, header_end + 4 + length);
    const int status = static_cast<int>(
        ParseInt64(head.size() >= 12 ? head.substr(9, 3) : "").ValueOr(0));
    if (head.find("\r\nconnection: close") != std::string::npos) {
      // Wait for the server's close, as a client that reads to the end
      // does: closing first would leave this side's port in TIME_WAIT.
      while (Fill()) {
      }
    }
    return status;
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      Close();
      return false;
    }
    connects_->fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool Fill() {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      Close();
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  uint16_t port_;
  std::atomic<uint64_t>* connects_;
  int fd_ = -1;
  std::string buffer_;
};

struct Flags {
  std::string city = "melbourne";
  double scale = 0.2;
  double seconds = 2.0;
  int max_threads = 0;
  int clients = 0;
  bool smoke = false;
  std::string bench_json;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      // CI-sized run: tiny city, sub-second measurement, tiny thread sweep.
      f.smoke = true;
      f.scale = 0.05;
      f.seconds = 0.3;
      if (f.max_threads <= 0) f.max_threads = 2;
      continue;
    }
    if (i + 1 >= argc) break;
    const char* value = argv[++i];
    if (key == "--city") f.city = value;
    else if (key == "--scale") f.scale = ParseDouble(value).ValueOr(f.scale);
    else if (key == "--seconds") f.seconds = ParseDouble(value).ValueOr(f.seconds);
    else if (key == "--max-threads")
      f.max_threads = static_cast<int>(ParseInt64(value).ValueOr(f.max_threads));
    else if (key == "--clients")
      f.clients = static_cast<int>(ParseInt64(value).ValueOr(f.clients));
    else if (key == "--bench-json")
      f.bench_json = value;
  }
  return f;
}

/// One closed-loop run's outcome: completed 200s per second, every
/// completed request's wall time (for the BENCH_perf_server.json
/// percentiles), and connections opened per completed request.
struct RunResult {
  double rps = 0.0;
  std::vector<double> latencies_ms;
  double connections_per_request = 0.0;
};

/// One closed-loop run: `clients` threads hammer /route until the deadline.
RunResult MeasureRps(uint16_t port, int clients, double seconds,
                     const std::vector<std::string>& targets) {
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> connects{0};
  std::atomic<bool> stop{false};
  std::mutex latencies_mu;
  RunResult result;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto begin = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t i = static_cast<size_t>(c);  // offset so clients spread queries
      std::vector<double> local_ms;
      KeepAliveClient client(port, &connects);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto start = std::chrono::steady_clock::now();
        if (client.Get(targets[i++ % targets.size()]) == 200) {
          completed.fetch_add(1, std::memory_order_relaxed);
          local_ms.push_back(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count());
        }
      }
      std::lock_guard<std::mutex> lock(latencies_mu);
      result.latencies_ms.insert(result.latencies_ms.end(), local_ms.begin(),
                                 local_ms.end());
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  result.rps = static_cast<double>(completed.load()) / elapsed;
  result.connections_per_request =
      completed.load() == 0 ? 0.0
                            : static_cast<double>(connects.load()) /
                                  static_cast<double>(completed.load());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  int max_threads = flags.max_threads;
  if (max_threads <= 0) {
    max_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (max_threads <= 0) max_threads = 4;
    if (max_threads > 4) max_threads = 4;
  }
  const int clients = flags.clients > 0 ? flags.clients : max_threads;

  auto net = City(flags.city, flags.scale);
  std::printf("=== /route throughput scaling, %s at scale %.2f "
              "(%zu vertices, %zu edges) ===\n",
              net->name().c_str(), flags.scale, net->num_nodes(),
              net->num_edges());
  std::printf("closed loop: %d client thread(s), one kept-alive connection "
              "each, %.1f s per run\n\n",
              clients, flags.seconds);

  // Pre-generate a pool of valid query targets between random vertices.
  Rng rng(42);
  std::vector<std::string> targets;
  while (targets.size() < 64) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    const LatLng a = net->coord(s);
    const LatLng b = net->coord(t);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "/route?slat=%.6f&slng=%.6f&tlat=%.6f&tlng=%.6f", a.lat,
                  a.lng, b.lat, b.lng);
    targets.emplace_back(buf);
  }

  BenchReporter reporter("perf_server", flags.smoke ? "smoke" : "full");
  std::printf("%8s %12s %10s %10s %10s %12s\n", "threads", "requests/s",
              "speedup", "ideal", "p50 ms", "conn/request");
  double base_rps = 0.0;
  double t2_rps = 0.0;
  for (int threads = 1; threads <= max_threads; threads *= 2) {
    auto pool = QueryProcessorPool::Create(net, static_cast<size_t>(threads));
    ALT_CHECK(pool.ok()) << pool.status();
    DemoService service(std::make_unique<QueryProcessorPool>(
        std::move(pool).ValueOrDie()));
    HttpServerOptions options;
    options.num_threads = threads;
    HttpServer server(options);
    service.Install(&server);
    ALT_CHECK_OK(server.Start(0));

    // Short warmup so lazily-registered metrics and caches are in place.
    MeasureRps(server.port(), clients, 0.2, targets);
    const RunResult run =
        MeasureRps(server.port(), clients, flags.seconds, targets);
    server.Stop();

    if (threads == 1) base_rps = run.rps;
    if (threads == 2) t2_rps = run.rps;
    std::printf("%8d %12.1f %9.2fx %9dx %10.3f %12.4f\n", threads, run.rps,
                base_rps > 0.0 ? run.rps / base_rps : 0.0, threads,
                obs::PercentileMs(run.latencies_ms, 0.50),
                run.connections_per_request);
    if (!flags.bench_json.empty()) {
      reporter.Add("route_t" + std::to_string(threads), run.latencies_ms,
                   {{"requests_per_s", run.rps}});
    }
  }
  std::printf("\nworker scaling t2/t1: %.2f\n(speedup is against the "
              "single-threaded run; near-linear scaling is expected\n up to "
              "the physical core count because per-query searches are "
              "independent)\n",
              t2_rps > 0.0 && base_rps > 0.0 ? t2_rps / base_rps : 0.0);
  if (!flags.bench_json.empty()) {
    return reporter.WriteFile(flags.bench_json) ? 0 : 1;
  }
  return 0;
}
