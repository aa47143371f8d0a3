// Concurrency behaviour of the HTTP worker pool: overlapping requests on
// different workers, SIGPIPE survival when a client hangs up mid-response,
// 503 load shedding when the connection queue is full, graceful drain on
// Stop(), socket receive timeouts, and kept-alive connections giving their
// worker up. All through real loopback sockets.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "http_test_client.h"
#include "obs/metrics.h"
#include "server/http_server.h"

namespace altroute {
namespace {

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendRequest(int fd, const std::string& target) {
  const std::string req = "GET " + target +
                          " HTTP/1.1\r\nHost: localhost\r\nConnection: "
                          "close\r\n\r\n";
  ::send(fd, req.data(), req.size(), MSG_NOSIGNAL);
}

std::string ReadAll(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  return out;
}

std::string HttpGet(uint16_t port, const std::string& target) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  SendRequest(fd, target);
  const std::string out = ReadAll(fd);
  ::close(fd);
  return out;
}

/// Current value of one altroute_queue_rejected_total{reason} child; 0 when
/// not yet materialised. The global registry accumulates across tests, so
/// assertions compare deltas.
uint64_t RejectedCount(const std::string& reason) {
  const obs::CounterFamily* fam =
      obs::MetricsRegistry::Global().FindCounterFamily(
          "altroute_queue_rejected_total");
  if (fam == nullptr) return 0;
  for (const auto& [values, counter] : fam->Children()) {
    if (values == std::vector<std::string>{reason}) return counter->Value();
  }
  return 0;
}

// Two slow requests on a two-worker server must be in their handlers at the
// same time: each waits (bounded) for the other before answering, so a
// serialised server would time out and answer overlap:false.
TEST(HttpConcurrencyTest, TwoSlowRequestsOverlapAcrossWorkers) {
  HttpServerOptions options;
  options.num_threads = 2;
  HttpServer server(options);

  std::mutex mu;
  std::condition_variable cv;
  int inside = 0;
  server.Route("/slow", [&](const HttpRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    ++inside;
    cv.notify_all();
    const bool overlapped = cv.wait_for(lock, std::chrono::seconds(2),
                                        [&] { return inside >= 2; });
    return HttpResponse::Json(overlapped ? "{\"overlap\":true}"
                                         : "{\"overlap\":false}");
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_EQ(server.num_threads(), 2);

  std::vector<std::string> responses(2);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < 2; ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = HttpGet(server.port(), "/slow"); });
  }
  for (auto& c : clients) c.join();
  for (const std::string& r : responses) {
    EXPECT_NE(r.find("\"overlap\":true"), std::string::npos) << r;
  }
  server.Stop();
}

// Regression for the SIGPIPE crash: a client that disconnects mid-response
// must not kill the process (writes use MSG_NOSIGNAL, SIGPIPE is ignored),
// and the server must keep serving subsequent requests.
TEST(HttpConcurrencyTest, ClientDisconnectMidResponseDoesNotKillServer) {
  HttpServerOptions options;
  options.num_threads = 2;
  HttpServer server(options);
  // Big enough to overflow the socket send buffer, so the worker is still
  // writing when the client is already gone.
  const std::string big(4u << 20, 'x');
  server.Route("/big", [&](const HttpRequest&) {
    return HttpResponse::Json(big);
  });
  ASSERT_TRUE(server.Start(0).ok());

  for (int i = 0; i < 3; ++i) {
    const int fd = Connect(server.port());
    ASSERT_GE(fd, 0);
    SendRequest(fd, "/big");
    // Hang up without reading the response.
    ::close(fd);
  }
  // Give the workers a moment to run into the half-closed sockets.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const std::string response = HttpGet(server.port(), "/big");
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find(big), std::string::npos);
  server.Stop();
}

// With one worker busy and the queue full, new connections are shed with an
// immediate 503 and counted in altroute_http_requests_shed_total.
TEST(HttpConcurrencyTest, FullQueueShedsWith503) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  HttpServer server(options);

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  server.Route("/block", [&](const HttpRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
    return HttpResponse::Json("{\"blocked\":true}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  obs::Counter& shed = obs::MetricsRegistry::Global().GetCounter(
      "altroute_http_requests_shed_total", "");
  const uint64_t shed_before = shed.Value();

  // A occupies the single worker.
  std::string response_a;
  std::thread client_a(
      [&] { response_a = HttpGet(server.port(), "/block"); });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered; }));
  }

  // B fills the one queue slot.
  const int fd_b = Connect(server.port());
  ASSERT_GE(fd_b, 0);
  SendRequest(fd_b, "/block");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // C must be rejected immediately with 503 while the worker is still busy.
  const int fd_c = Connect(server.port());
  ASSERT_GE(fd_c, 0);
  SendRequest(fd_c, "/block");
  const std::string response_c = ReadAll(fd_c);
  ::close(fd_c);
  EXPECT_NE(response_c.find("503"), std::string::npos) << response_c;
  EXPECT_NE(response_c.find("overloaded"), std::string::npos);
  // Every 503 tells the client when to come back.
  EXPECT_NE(response_c.find("Retry-After:"), std::string::npos) << response_c;
  EXPECT_GT(shed.Value(), shed_before);

  // Release the worker: both A and the queued B complete.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  client_a.join();
  EXPECT_NE(response_a.find("200"), std::string::npos);
  EXPECT_NE(ReadAll(fd_b).find("200"), std::string::npos);
  ::close(fd_b);
  server.Stop();
}

// Liveness must stay observable while the pool is saturated: with the single
// worker blocked and the queue full, a plain GET /healthz is recognised on
// the accept thread and answered 200 instead of being shed.
TEST(HttpConcurrencyTest, HealthzAnsweredWhileQueueFull) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  // Generous wait for the probe bytes so the test is deterministic even if
  // the accept races ahead of the client's send.
  options.healthz_poll_ms = 1000;
  HttpServer server(options);

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  server.Route("/block", [&](const HttpRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
    return HttpResponse::Json("{\"blocked\":true}");
  });
  server.Route("/healthz", [](const HttpRequest&) {
    return HttpResponse::Json("{\"status\":\"ok\"}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  // A occupies the single worker; B fills the one queue slot.
  std::string response_a;
  std::thread client_a(
      [&] { response_a = HttpGet(server.port(), "/block"); });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered; }));
  }
  const int fd_b = Connect(server.port());
  ASSERT_GE(fd_b, 0);
  SendRequest(fd_b, "/block");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The probe bypasses the saturated queue entirely.
  const std::string probe = HttpGet(server.port(), "/healthz");
  EXPECT_NE(probe.find("200"), std::string::npos) << probe;
  EXPECT_NE(probe.find("\"status\":\"ok\""), std::string::npos) << probe;

  // A non-probe request is still shed: the fast lane is for /healthz only.
  const std::string other = HttpGet(server.port(), "/block");
  EXPECT_NE(other.find("503"), std::string::npos) << other;

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  client_a.join();
  EXPECT_NE(response_a.find("200"), std::string::npos);
  EXPECT_NE(ReadAll(fd_b).find("200"), std::string::npos);
  ::close(fd_b);
  server.Stop();
}

// CoDel-style admission: once the queue wait observed at dequeue has stayed
// above queue_target_delay_ms for queue_delay_interval_ms, new connections
// are shed with 503 + Retry-After even though the queue is nowhere near its
// hard capacity bound.
TEST(HttpConcurrencyTest, SustainedQueueDelayShedsBeforeQueueIsFull) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 100;  // the hard bound is never the trigger here
  options.queue_target_delay_ms = 10;
  options.queue_delay_interval_ms = 50;
  HttpServer server(options);

  // Each request blocks until its 1-based arrival index has been released,
  // so the test controls exactly when the worker dequeues the next one.
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  int released = 0;
  server.Route("/block", [&](const HttpRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    const int my = ++entered;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(5),
                [&] { return released >= my; });
    return HttpResponse::Json("{\"blocked\":true}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  const uint64_t delay_before = RejectedCount("queue_delay");

  // A is dequeued immediately (queue wait ~0); B and C stand in the queue.
  std::vector<std::string> responses(3);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < 3; ++i) {
    clients.emplace_back(
        [&, i] { responses[i] = HttpGet(server.port(), "/block"); });
    if (i == 0) {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                              [&] { return entered >= 1; }));
    }
  }
  // Let B and C age in the queue well past the 10ms target.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Release A: the worker dequeues B, observes ~100ms of queue wait and
  // latches "above target".
  {
    std::lock_guard<std::mutex> lock(mu);
    released = 1;
  }
  cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered >= 2; }));
  }
  // Hold the latch past the 50ms interval, then knock: D must be shed even
  // though only C occupies the 100-slot queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(75));
  const std::string response_d = HttpGet(server.port(), "/block");
  EXPECT_NE(response_d.find("503"), std::string::npos) << response_d;
  EXPECT_NE(response_d.find("Retry-After:"), std::string::npos) << response_d;
  EXPECT_GE(RejectedCount("queue_delay"), delay_before + 1);

  // Drain everyone; the admitted requests all complete normally.
  {
    std::lock_guard<std::mutex> lock(mu);
    released = 100;
  }
  cv.notify_all();
  for (auto& c : clients) c.join();
  for (const std::string& r : responses) {
    EXPECT_NE(r.find("200"), std::string::npos) << r;
  }
  server.Stop();
}

// A request whose whole wall budget was burned waiting in the queue is
// dropped at dequeue with 504 + Retry-After, before a worker reads a single
// byte of it, and counted under altroute_queue_rejected_total{expired}.
TEST(HttpConcurrencyTest, ExpiredInQueueIsDroppedAtDequeue) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 4;
  options.request_timeout_ms = 100;
  HttpServer server(options);

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  server.Route("/block", [&](const HttpRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
    return HttpResponse::Json("{\"blocked\":true}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  const uint64_t expired_before = RejectedCount("expired");

  // A occupies the worker long enough for B's 100ms budget to expire while
  // B is still sitting in the queue.
  std::string response_a;
  std::thread client_a(
      [&] { response_a = HttpGet(server.port(), "/block"); });
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered; }));
  }
  const int fd_b = Connect(server.port());
  ASSERT_GE(fd_b, 0);
  SendRequest(fd_b, "/block");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  const std::string response_b = ReadAll(fd_b);
  ::close(fd_b);
  EXPECT_NE(response_b.find("504"), std::string::npos) << response_b;
  EXPECT_NE(response_b.find("expired"), std::string::npos) << response_b;
  EXPECT_NE(response_b.find("Retry-After:"), std::string::npos) << response_b;
  EXPECT_GE(RejectedCount("expired"), expired_before + 1);

  client_a.join();
  EXPECT_NE(response_a.find("200"), std::string::npos);
  server.Stop();
}

// Stop() drains gracefully: the in-flight request finishes and its response
// reaches the client even though Stop() was called while it was running.
TEST(HttpConcurrencyTest, StopFinishesInFlightRequests) {
  HttpServerOptions options;
  options.num_threads = 1;
  HttpServer server(options);

  std::atomic<bool> entered{false};
  server.Route("/slow", [&](const HttpRequest&) {
    entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return HttpResponse::Json("{\"drained\":true}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  std::string response;
  std::thread client([&] { response = HttpGet(server.port(), "/slow"); });
  while (!entered.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(5));
  server.Stop();  // must wait for the in-flight request, then join workers
  client.join();
  EXPECT_NE(response.find("\"drained\":true"), std::string::npos) << response;
  EXPECT_FALSE(server.running());
}

// A client that sends a partial request and stalls is timed out by
// SO_RCVTIMEO and answered 408, freeing the worker for other clients.
TEST(HttpConcurrencyTest, StalledClientTimesOutWith408) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.recv_timeout_ms = 150;
  HttpServer server(options);
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = Connect(server.port());
  ASSERT_GE(fd, 0);
  const std::string partial = "GET /ok HTT";  // never finishes the request
  ::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
  const auto begin = std::chrono::steady_clock::now();
  const std::string response = ReadAll(fd);
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  ::close(fd);
  EXPECT_NE(response.find("408"), std::string::npos) << response;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);

  // The single worker is free again and serves the next client.
  EXPECT_NE(HttpGet(server.port(), "/ok").find("200"), std::string::npos);
  server.Stop();
}

// An idle connection that never sends a byte is closed quietly after the
// receive timeout without occupying the worker forever.
TEST(HttpConcurrencyTest, SilentIdleConnectionIsClosedQuietly) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.recv_timeout_ms = 100;
  HttpServer server(options);
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  const int fd = Connect(server.port());
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(ReadAll(fd).empty());  // server closes with no response
  ::close(fd);
  EXPECT_NE(HttpGet(server.port(), "/ok").find("200"), std::string::npos);
  server.Stop();
}

using testing_http::KeepAliveClient;

// With one worker, a connection sitting idle between requests gives the
// worker up the moment another connection waits for it, long before the
// receive timeout would close it.
TEST(HttpConcurrencyTest, IdleKeptAliveConnectionYieldsToAWaitingOne) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.recv_timeout_ms = 5000;
  HttpServer server(options);
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  KeepAliveClient a(server.port());
  ASSERT_TRUE(a.connected());
  a.SendGet("/ok");
  const std::string first = a.ReadResponse();
  ASSERT_EQ(KeepAliveClient::Status(first), 200) << first;
  ASSERT_EQ(KeepAliveClient::HeaderValue(first, "Connection"), "keep-alive");

  const auto begin = std::chrono::steady_clock::now();
  const std::string b = HttpGet(server.port(), "/ok");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  EXPECT_NE(b.find(" 200 "), std::string::npos) << b;
  EXPECT_LT(elapsed, 1000);
  EXPECT_TRUE(a.ReadsEof());
  server.Stop();
}

// A response finished while another connection waits for the only worker
// says "Connection: close", and the worker moves on to the waiting one.
TEST(HttpConcurrencyTest, ResponseClosesWhileAnotherConnectionWaits) {
  HttpServerOptions options;
  options.num_threads = 1;
  HttpServer server(options);
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  server.Route("/block", [&](const HttpRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
    return HttpResponse::Json("{}");
  });
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  KeepAliveClient a(server.port());
  ASSERT_TRUE(a.connected());
  a.SendGet("/block");
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered; }));
  }
  const int fd_b = Connect(server.port());
  ASSERT_GE(fd_b, 0);
  SendRequest(fd_b, "/ok");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // B queues
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  const std::string response_a = a.ReadResponse();
  EXPECT_EQ(KeepAliveClient::Status(response_a), 200) << response_a;
  EXPECT_EQ(KeepAliveClient::HeaderValue(response_a, "Connection"), "close");
  EXPECT_TRUE(a.ReadsEof());
  EXPECT_NE(ReadAll(fd_b).find(" 200 "), std::string::npos);
  ::close(fd_b);
  server.Stop();
}

// Two kept-alive connections finish their responses while one connection
// waits for a worker: the first worker to finish takes the waiting
// connection, so only one of the two is closed.
TEST(HttpConcurrencyTest, OneWaitingConnectionClosesOneKeptAliveConnection) {
  HttpServerOptions options;
  options.num_threads = 2;
  HttpServer server(options);
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool release = false;
  server.Route("/block", [&](const HttpRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
    return HttpResponse::Json("{}");
  });
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  KeepAliveClient a(server.port());
  KeepAliveClient b(server.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  a.SendGet("/block");
  b.SendGet("/block");
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered == 2; }));
  }
  const int fd_c = Connect(server.port());
  ASSERT_GE(fd_c, 0);
  SendRequest(fd_c, "/ok");
  const obs::Gauge& queue_depth = obs::MetricsRegistry::Global().GetGauge(
      "altroute_http_queue_depth", "");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (queue_depth.Value() != 1.0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(queue_depth.Value(), 1.0);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  const std::string response_a = a.ReadResponse();
  const std::string response_b = b.ReadResponse();
  ASSERT_EQ(KeepAliveClient::Status(response_a), 200) << response_a;
  ASSERT_EQ(KeepAliveClient::Status(response_b), 200) << response_b;
  const bool a_closed =
      KeepAliveClient::HeaderValue(response_a, "Connection") == "close";
  const bool b_closed =
      KeepAliveClient::HeaderValue(response_b, "Connection") == "close";
  EXPECT_NE(a_closed, b_closed);
  EXPECT_NE(ReadAll(fd_c).find(" 200 "), std::string::npos);
  ::close(fd_c);
  // The connection that was kept still serves.
  KeepAliveClient& kept = a_closed ? b : a;
  kept.SendGet("/ok");
  EXPECT_EQ(KeepAliveClient::Status(kept.ReadResponse()), 200);
  server.Stop();
}

// A kept-alive connection that stays silent for the receive timeout is
// closed quietly, as a connection that never sent a byte is.
TEST(HttpConcurrencyTest, SilentKeptAliveConnectionClosesAfterReceiveTimeout) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.recv_timeout_ms = 150;
  HttpServer server(options);
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  KeepAliveClient client(server.port());
  ASSERT_TRUE(client.connected());
  client.SendGet("/ok");
  const std::string response = client.ReadResponse();
  ASSERT_EQ(KeepAliveClient::HeaderValue(response, "Connection"), "keep-alive");
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.ReadsEof());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  EXPECT_GE(elapsed, 100);
  EXPECT_LT(elapsed, 2000);
  server.Stop();
}

// Stop() does not wait out an idle kept-alive connection's receive timeout,
// and a request already sent on a kept-alive connection is still answered.
TEST(HttpConcurrencyTest, StopClosesIdleKeptAliveConnectionsPromptly) {
  HttpServerOptions options;
  options.num_threads = 2;
  options.recv_timeout_ms = 5000;
  HttpServer server(options);
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  KeepAliveClient idle(server.port());
  KeepAliveClient pending(server.port());
  ASSERT_TRUE(idle.connected());
  ASSERT_TRUE(pending.connected());
  idle.SendGet("/ok");
  ASSERT_EQ(KeepAliveClient::Status(idle.ReadResponse()), 200);
  pending.SendGet("/ok");
  ASSERT_EQ(KeepAliveClient::Status(pending.ReadResponse()), 200);
  pending.SendGet("/ok");  // not read until the server has stopped

  const auto begin = std::chrono::steady_clock::now();
  server.Stop();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count();
  EXPECT_LT(elapsed, 1000);
  EXPECT_EQ(KeepAliveClient::Status(pending.ReadResponse()), 200);
  EXPECT_TRUE(pending.ReadsEof());
  EXPECT_TRUE(idle.ReadsEof());
}

// Each request on a kept-alive connection gets its own budget: three
// requests 150 ms apart all fit a 200 ms request timeout, though the
// connection outlives it.
TEST(HttpConcurrencyTest, DeadlinesBelongToRequestsNotConnections) {
  HttpServerOptions options;
  options.num_threads = 1;
  options.request_timeout_ms = 200;
  HttpServer server(options);
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  KeepAliveClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 3; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(150));
    client.SendGet("/ok");
    const std::string response = client.ReadResponse();
    EXPECT_EQ(KeepAliveClient::Status(response), 200)
        << "request " << i << ": " << response;
  }
  server.Stop();
}

}  // namespace
}  // namespace altroute
