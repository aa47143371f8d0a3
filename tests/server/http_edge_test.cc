// Robustness of the HTTP server against malformed and hostile input,
// exercised through raw sockets.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "server/http_server.h"

namespace altroute {
namespace {

class RawClient {
 public:
  explicit RawClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    ::send(fd_, bytes.data(), bytes.size(), 0);
    ::shutdown(fd_, SHUT_WR);
  }

  std::string ReadAll() {
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd_, buf, sizeof(buf), 0)) > 0) {
      out.append(buf, static_cast<size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class HttpEdgeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    server_ = new HttpServer();
    server_->Route("/ok", [](const HttpRequest& req) {
      HttpResponse r;
      r.body = "{\"method\":\"" + req.method + "\",\"body_len\":" +
               std::to_string(req.body.size()) + "}";
      return r;
    });
    ASSERT_TRUE(server_->Start(0).ok());
  }
  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
  }
  static HttpServer* server_;
};

HttpServer* HttpEdgeFixture::server_ = nullptr;

TEST_F(HttpEdgeFixture, GarbageBytesDoNotCrashTheServer) {
  {
    RawClient client(server_->port());
    ASSERT_TRUE(client.connected());
    client.Send("\x00\x01\x02 utter garbage without any structure");
    client.ReadAll();  // server may close silently
  }
  // Server still alive and serving.
  RawClient client(server_->port());
  ASSERT_TRUE(client.connected());
  client.Send("GET /ok HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(client.ReadAll().find("200"), std::string::npos);
}

TEST_F(HttpEdgeFixture, MissingHttpVersionStillParses) {
  RawClient client(server_->port());
  client.Send("GET /ok\r\n\r\n");
  // Request line has only two tokens; the server accepts method + target.
  EXPECT_NE(client.ReadAll().find("200"), std::string::npos);
}

TEST_F(HttpEdgeFixture, EmptyRequestClosesQuietly) {
  RawClient client(server_->port());
  client.Send("");
  EXPECT_TRUE(client.ReadAll().empty());
}

TEST_F(HttpEdgeFixture, PostBodyRespectsContentLength) {
  RawClient client(server_->port());
  client.Send(
      "POST /ok HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello");
  const std::string response = client.ReadAll();
  EXPECT_NE(response.find("\"method\":\"POST\""), std::string::npos);
  EXPECT_NE(response.find("\"body_len\":5"), std::string::npos);
}

TEST_F(HttpEdgeFixture, AbsurdContentLengthIsClamped) {
  RawClient client(server_->port());
  client.Send("POST /ok HTTP/1.1\r\nHost: x\r\nContent-Length: "
              "99999999999\r\n\r\nshort");
  // Out-of-bounds length is treated as 0; the request still completes.
  EXPECT_NE(client.ReadAll().find("200"), std::string::npos);
}

TEST_F(HttpEdgeFixture, HeadersAreCaseInsensitive) {
  RawClient client(server_->port());
  client.Send("POST /ok HTTP/1.1\r\nhOsT: x\r\ncOnTeNt-LeNgTh: 3\r\n\r\nabc");
  EXPECT_NE(client.ReadAll().find("\"body_len\":3"), std::string::npos);
}

TEST_F(HttpEdgeFixture, PercentEncodedPathDoesNotAliasRoutes) {
  // Routes match on the raw path: "/%6fk" must not reach the "/ok" handler
  // (aliasing would also pollute the bounded-cardinality path metric label).
  RawClient client(server_->port());
  client.Send("GET /%6fk HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(client.ReadAll().find("404"), std::string::npos);
  // The literal path still works.
  RawClient plain(server_->port());
  plain.Send("GET /ok HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(plain.ReadAll().find("200"), std::string::npos);
}

TEST_F(HttpEdgeFixture, RepeatedSpacesInRequestLineStillRoute) {
  RawClient client(server_->port());
  client.Send("GET   /ok   HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(client.ReadAll().find("200"), std::string::npos);
}

TEST_F(HttpEdgeFixture, MalformedRequestLineGets400) {
  obs::CounterFamily& requests =
      obs::MetricsRegistry::Global().GetCounterFamily(
          "altroute_http_requests_total", "HTTP requests served.",
          {"path", "code"});
  const uint64_t before = requests.WithLabels({"malformed", "400"}).Value();

  RawClient client(server_->port());
  client.Send("ONLYONETOKEN\r\n\r\n");
  const std::string response = client.ReadAll();
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_NE(response.find("malformed request line"), std::string::npos);

  // Malformed requests are counted, not silently dropped.
  EXPECT_GT(requests.WithLabels({"malformed", "400"}).Value(), before);
}

TEST_F(HttpEdgeFixture, IncompleteHeadersGet400NotSilence) {
  RawClient client(server_->port());
  // Bytes arrive but the client hangs up before "\r\n\r\n".
  client.Send("GET /ok HTTP/1.1\r\nHost: x\r\n");
  EXPECT_NE(client.ReadAll().find("400"), std::string::npos);
}

TEST_F(HttpEdgeFixture, OversizedHeadersGet431) {
  // A local server with a small header cap, so the test stays fast.
  HttpServerOptions options;
  options.max_header_bytes = 4096;
  HttpServer server(options);
  server.Route("/ok", [](const HttpRequest&) {
    return HttpResponse::Json("{}");
  });
  ASSERT_TRUE(server.Start(0).ok());

  RawClient client(server.port());
  std::string request = "GET /ok HTTP/1.1\r\n";
  request.append("X-Padding: " + std::string(8192, 'a') + "\r\n\r\n");
  client.Send(request);
  EXPECT_NE(client.ReadAll().find("431"), std::string::npos);

  // The server keeps serving after rejecting the oversized request.
  RawClient plain(server.port());
  plain.Send("GET /ok HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(plain.ReadAll().find("200"), std::string::npos);
  server.Stop();
}

// The request parser on its own: a pure function over a byte buffer.
constexpr size_t kMaxHeader = 1024;
constexpr size_t kMaxBody = 64;

HttpParseResult Parse(const std::string& bytes, bool at_eof = false) {
  return ParseHttpRequest(bytes, kMaxHeader, kMaxBody, at_eof);
}

TEST(ParseHttpRequestTest, KeepAliveFollowsVersionAndConnectionHeader) {
  const struct {
    const char* request;
    bool keep_alive;
  } cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.1\r\nConnection: Upgrade, CLOSE\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n", true},
      {"GET /\r\n\r\n", false},  // no version
      {"GET / HTTP/2\r\n\r\n", false},
  };
  for (const auto& c : cases) {
    const HttpParseResult r = Parse(c.request);
    ASSERT_EQ(r.kind, HttpParseResult::Kind::kRequest) << c.request;
    EXPECT_EQ(r.keep_alive, c.keep_alive) << c.request;
    EXPECT_EQ(r.consumed, std::string(c.request).size()) << c.request;
  }
}

TEST(ParseHttpRequestTest, UntrustedFramingEndsTheConnection) {
  const std::string tail = "GET /next HTTP/1.1\r\n\r\n";
  const struct {
    const char* headers;
    size_t body;  // bytes of `tail` read as the body
  } cases[] = {
      {"Content-Length: 65\r\n", 0},  // above max_body_bytes
      {"Content-Length: -1\r\n", 0},
      {"Content-Length: 5x\r\n", 0},
      {"Content-Length: 3\r\nContent-Length: 3\r\n", 3},
      {"Transfer-Encoding: chunked\r\n", 0},
      {"Transfer-Encoding: chunked\r\nContent-Length: 3\r\n", 3},
  };
  for (const auto& c : cases) {
    const std::string head =
        std::string("POST /ok HTTP/1.1\r\n") + c.headers + "\r\n";
    const HttpParseResult r = Parse(head + tail);
    ASSERT_EQ(r.kind, HttpParseResult::Kind::kRequest) << c.headers;
    EXPECT_FALSE(r.keep_alive) << c.headers;
    EXPECT_EQ(r.request.body, tail.substr(0, c.body)) << c.headers;
    EXPECT_EQ(r.consumed, head.size() + c.body) << c.headers;
  }
  // One valid Content-Length within bounds keeps the connection.
  const HttpParseResult ok =
      Parse("POST /ok HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc" + tail);
  ASSERT_EQ(ok.kind, HttpParseResult::Kind::kRequest);
  EXPECT_TRUE(ok.keep_alive);
  EXPECT_EQ(ok.request.body, "abc");
}

TEST(ParseHttpRequestTest, IncompleteInputNeedsMoreUntilTheStreamEnds) {
  const std::string partial_head = "GET /ok HTTP/1.1\r\nHost: x\r\n";
  EXPECT_EQ(Parse("").kind, HttpParseResult::Kind::kNeedMore);
  EXPECT_EQ(Parse("", /*at_eof=*/true).kind, HttpParseResult::Kind::kNeedMore);
  EXPECT_EQ(Parse(partial_head).kind, HttpParseResult::Kind::kNeedMore);
  const HttpParseResult torn_head = Parse(partial_head, /*at_eof=*/true);
  EXPECT_EQ(torn_head.kind, HttpParseResult::Kind::kMalformed);
  EXPECT_EQ(torn_head.status, 400);

  const std::string short_body =
      "POST /ok HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  EXPECT_EQ(Parse(short_body).kind, HttpParseResult::Kind::kNeedMore);
  const HttpParseResult cut = Parse(short_body, /*at_eof=*/true);
  ASSERT_EQ(cut.kind, HttpParseResult::Kind::kRequest);
  EXPECT_EQ(cut.request.body, "abc");
  EXPECT_FALSE(cut.keep_alive);
  EXPECT_EQ(cut.consumed, short_body.size());
}

TEST(ParseHttpRequestTest, OversizedHeadersAre431AndBadRequestLines400) {
  const HttpParseResult big =
      Parse("GET /ok HTTP/1.1\r\nX-Pad: " + std::string(kMaxHeader, 'a'));
  EXPECT_EQ(big.kind, HttpParseResult::Kind::kMalformed);
  EXPECT_EQ(big.status, 431);
  const HttpParseResult bad = Parse("ONLYONETOKEN\r\n\r\n");
  EXPECT_EQ(bad.kind, HttpParseResult::Kind::kMalformed);
  EXPECT_EQ(bad.status, 400);
}

}  // namespace
}  // namespace altroute
