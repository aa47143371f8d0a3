#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"
#include "server/json.h"
#include "server/url.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace altroute {

namespace {

/// The HTTP-layer instruments, registered once and cached (registration
/// takes the registry mutex; updates are wait-free).
struct ServerMetrics {
  obs::CounterFamily& requests;
  obs::Counter& connections;
  obs::Counter& shed;
  obs::CounterFamily& queue_rejected;
  obs::Gauge& inflight;
  obs::Gauge& queue_depth;
  obs::Gauge& worker_threads;
  obs::Gauge& workers_busy;

  static ServerMetrics& Get() {
    static ServerMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new ServerMetrics{
          // Path label cardinality is bounded: registered routes plus the
          // fixed labels "unmatched", "malformed" and "shed" (the path is
          // never percent-decoded before matching).
          reg.GetCounterFamily("altroute_http_requests_total",
                               "HTTP requests served.", {"path", "code"}),
          reg.GetCounter("altroute_http_connections_total",
                         "Connections accepted, shed and inline /healthz "
                         "ones included. Requests per connection is "
                         "altroute_http_requests_total over this."),
          reg.GetCounter("altroute_http_requests_shed_total",
                         "Connections rejected with 503 before dispatch "
                         "(backpressure shed: queue full, draining, or "
                         "sustained queue delay)."),
          reg.GetCounterFamily(
              "altroute_queue_rejected_total",
              "Connections rejected before their handler ran, by reason: "
              "queue_full and draining (hard shed), queue_delay (CoDel-style "
              "adaptive shed), expired (budget spent while queued).",
              {"reason"}),
          reg.GetGauge("altroute_http_inflight_requests",
                       "Requests currently being parsed or handled."),
          reg.GetGauge("altroute_http_queue_depth",
                       "Accepted connections waiting for a worker."),
          reg.GetGauge("altroute_http_worker_threads",
                       "Size of the HTTP worker pool."),
          reg.GetGauge("altroute_http_workers_busy",
                       "Workers currently reading or handling a request (a "
                       "worker idle on a kept-alive connection is not "
                       "busy)."),
      };
    }();
    return *m;
  }
};

/// "r" + sequence number. Built by append, not operator+(const char*,
/// string&&): GCC 12 raises a false-positive -Wrestrict on the latter.
std::string RequestIdString(uint64_t id) {
  std::string s = "r";
  s += std::to_string(id);
  return s;
}

/// Per-socket timeouts, and TCP_NODELAY: each response goes out in one
/// send(), and on a kept-alive connection no close() flushes a tail segment
/// that Nagle's algorithm would otherwise hold back for the client's ACK.
void ConfigureSocket(int fd, const HttpServerOptions& options) {
  const auto set = [fd](int opt, int ms) {
    if (ms <= 0) return;
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv));
  };
  set(SO_RCVTIMEO, options.recv_timeout_ms);
  set(SO_SNDTIMEO, options.send_timeout_ms);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Deadline RequestDeadline(const HttpServerOptions& options) {
  return options.request_timeout_ms > 0
             ? Deadline::AfterMs(options.request_timeout_ms)
             : Deadline::Infinite();
}

/// True when the comma-separated Connection header value lists `token`
/// (case-insensitive).
bool ConnectionHeaderHas(std::string_view value, std::string_view token) {
  size_t start = 0;
  while (start <= value.size()) {
    size_t end = value.find(',', start);
    if (end == std::string_view::npos) end = value.size();
    if (ToLower(Trim(value.substr(start, end - start))) == token) return true;
    start = end + 1;
  }
  return false;
}

/// The client's side of the keep-alive decision: HTTP/1.1 unless it asks
/// to close, HTTP/1.0 only when it asks to keep.
bool ClientAllowsKeepAlive(std::string_view version,
                           const std::map<std::string, std::string>& headers) {
  const auto it = headers.find("connection");
  const std::string_view connection =
      it == headers.end() ? std::string_view() : std::string_view(it->second);
  if (version == "HTTP/1.1") return !ConnectionHeaderHas(connection, "close");
  if (version == "HTTP/1.0") {
    return ConnectionHeaderHas(connection, "keep-alive");
  }
  return false;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 422: return "Unprocessable Content";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Error";
  }
}

/// Machine-readable error class for the structured body, keyed by the HTTP
/// status (snake_case, matching the per-approach status codes in /route).
const char* ErrorCodeForHttpStatus(int status) {
  switch (status) {
    case 400: return "bad_request";
    case 404: return "not_found";
    case 405: return "method_not_allowed";
    case 408: return "request_timeout";
    case 422: return "invalid_argument";
    case 431: return "headers_too_large";
    case 500: return "internal";
    case 501: return "unimplemented";
    case 503: return "unavailable";
    case 504: return "deadline_exceeded";
    default: return "error";
  }
}

}  // namespace

int HttpStatusForStatusCode(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    // Semantically invalid input (well-formed request, bad content): the
    // coordinates parsed but cannot be processed — 422, not 400.
    case StatusCode::kInvalidArgument: return 422;
    case StatusCode::kOutOfRange: return 422;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kFailedPrecondition: return 503;
    case StatusCode::kUnimplemented: return 501;
    case StatusCode::kIOError: return 500;
    case StatusCode::kCorruption: return 500;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

HttpResponse HttpResponse::Error(int status, const std::string& message,
                                 const std::string& request_id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error").BeginObject();
  w.Key("code").String(ErrorCodeForHttpStatus(status));
  w.Key("message").String(message);
  if (!request_id.empty()) w.Key("request_id").String(request_id);
  w.EndObject();
  w.EndObject();
  HttpResponse r;
  r.status = status;
  r.body = w.TakeString();
  r.request_id = request_id;
  return r;
}

HttpResponse HttpResponse::FromStatus(const Status& status,
                                      const std::string& request_id) {
  return Error(HttpStatusForStatusCode(status.code()), status.message(),
               request_id);
}

HttpParseResult ParseHttpRequest(std::string_view data,
                                 size_t max_header_bytes,
                                 size_t max_body_bytes, bool at_eof) {
  using Kind = HttpParseResult::Kind;
  HttpParseResult out;
  if (data.empty()) return out;
  const size_t header_end = data.substr(0, max_header_bytes).find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    if (data.size() >= max_header_bytes) {
      out.kind = Kind::kMalformed;
      out.status = 431;
      out.error = "request header fields too large";
    } else if (at_eof) {
      out.kind = Kind::kMalformed;
      out.status = 400;
      out.error = "malformed request";
    }
    return out;
  }

  // Lines end in "\n", with or without a "\r" before it.
  const std::string_view head = data.substr(0, header_end);
  size_t line_end = head.find('\n');
  std::string_view line = head.substr(0, line_end);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  HttpRequest& req = out.request;
  std::string target;
  std::string version;
  if (!ParseRequestLine(line, &req.method, &target, &version)) {
    out.kind = Kind::kMalformed;
    out.status = 400;
    out.error = "malformed request line";
    return out;
  }
  std::string raw_query;
  SplitTarget(target, &req.path, &raw_query);
  req.query = ParseQueryString(raw_query);

  size_t content_length_headers = 0;
  bool transfer_encoding = false;
  while (line_end != std::string_view::npos) {
    const size_t begin = line_end + 1;
    line_end = head.find('\n', begin);
    line = head.substr(begin, line_end == std::string_view::npos
                                  ? std::string_view::npos
                                  : line_end - begin);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string key = ToLower(Trim(line.substr(0, colon)));
    if (key == "content-length") ++content_length_headers;
    if (key == "transfer-encoding") transfer_encoding = true;
    req.headers[std::move(key)] = std::string(Trim(line.substr(colon + 1)));
  }

  // The body is bounded at max_body_bytes. A length that cannot be trusted
  // reads no body, as does one over the bound, and ends the connection
  // after this request: whatever follows must not be taken for a request.
  bool framed = !transfer_encoding && content_length_headers <= 1;
  size_t content_length = 0;
  if (content_length_headers > 0) {
    const auto parsed = ParseInt64(req.headers["content-length"]);
    if (parsed.ok() && *parsed >= 0 &&
        static_cast<uint64_t>(*parsed) <= max_body_bytes) {
      content_length = static_cast<size_t>(*parsed);
    } else {
      framed = false;
    }
  }
  const size_t body_start = header_end + 4;
  if (data.size() - body_start < content_length) {
    if (!at_eof) {
      HttpParseResult need_body;
      need_body.needed = body_start + content_length;
      return need_body;
    }
    framed = false;  // cut short: answer with what arrived, then close
    content_length = data.size() - body_start;
  }
  req.body = std::string(data.substr(body_start, content_length));
  out.kind = Kind::kRequest;
  out.consumed = body_start + content_length;
  out.keep_alive = framed && ClientAllowsKeepAlive(version, req.headers);
  return out;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(const std::string& path, HttpHandler handler) {
  ALT_CHECK(!running_.load()) << "Route() after Start()";
  routes_[path] = std::move(handler);
}

Status HttpServer::Start(uint16_t port) {
  if (running_.load()) return Status::FailedPrecondition("already running");

  // Belt and braces alongside MSG_NOSIGNAL: a write to a half-closed socket
  // must return EPIPE, never kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::IOError("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind() failed (port in use?)");
  }
  if (::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("listen() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("eventfd() failed");
  }

  int threads = options_.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  {
    MutexLock lock(&mu_);
    draining_ = false;
    workers_exit_ = false;
    idle_workers_ = 0;
    wake_set_ = false;
  }
  queue_above_target_since_ns_.store(0);
  running_.store(true);
  accepting_.store(true);
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  ServerMetrics::Get().worker_threads.Set(static_cast<double>(threads));
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  ALTROUTE_LOG(Info) << "HTTP server listening on 127.0.0.1:" << port_
                     << " with " << threads << " worker thread(s)";
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;

  // Phase 1: shed new connections with 503 while the listener winds down;
  // workers idle on kept-alive connections close them.
  {
    MutexLock lock(&mu_);
    draining_ = true;
    UpdateWakeFdLocked();
  }
  accepting_.store(false);
  // shutdown() unblocks accept(); close() releases the port.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) accept_thread_.join();

  // Phase 2: workers finish queued and in-flight requests, then exit.
  {
    MutexLock lock(&mu_);
    workers_exit_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  ::close(wake_fd_);
  wake_fd_ = -1;
  ServerMetrics::Get().worker_threads.Set(0.0);
}

void HttpServer::AcceptLoop() {
  while (accepting_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!accepting_.load()) break;
      continue;  // transient accept error
    }
    ServerMetrics::Get().connections.Increment();
    ConfigureSocket(fd, options_);
    // The first request's deadline is stamped here, not at dispatch: a
    // request that sat in the queue has already consumed part of its
    // budget. Its id is assigned here too, so even shed connections are
    // identifiable.
    const Deadline deadline = RequestDeadline(options_);
    const uint64_t request_id = next_request_id_.fetch_add(1) + 1;

    // Liveness is answered here, on the accept thread: a probe must succeed
    // even when every worker is wedged and the queue is full. The peek is
    // non-blocking — a probe whose bytes are already in gets the fast path;
    // one still in flight gets a second, bounded chance below, but only
    // when it would otherwise be shed.
    const bool healthz_routed = routes_.count("/healthz") > 0;
    if (healthz_routed && PeekIsHealthz(fd, /*poll_ms=*/0)) {
      ServeHealthzInline(fd, request_id);
      ::close(fd);
      continue;
    }

    const char* shed_reason = nullptr;
    {
      MutexLock lock(&mu_);
      if (draining_) {
        shed_reason = "draining";
      } else if (queue_.size() >= options_.queue_capacity) {
        shed_reason = "queue_full";
      } else if (QueueDelayExceeded()) {
        shed_reason = "queue_delay";
      } else {
        if (queue_.empty()) {
          // An empty queue means zero wait: clear any stale CoDel latch left
          // from a burst that has since drained.
          queue_above_target_since_ns_.store(0);
        }
        queue_.push_back({fd, deadline, request_id,
                          std::chrono::steady_clock::now()});
        ServerMetrics::Get().queue_depth.Set(
            static_cast<double>(queue_.size()));
        UpdateWakeFdLocked();
      }
    }
    if (shed_reason != nullptr) {
      // About to shed: wait briefly for the first bytes in case this is a
      // probe whose request was still in flight at the peek above.
      if (healthz_routed && options_.healthz_poll_ms > 0 &&
          PeekIsHealthz(fd, options_.healthz_poll_ms)) {
        ServeHealthzInline(fd, request_id);
        ::close(fd);
        continue;
      }
      // Backpressure: reply immediately instead of queueing unbounded work.
      ServerMetrics::Get().shed.Increment();
      ServerMetrics::Get().queue_rejected.WithLabels({shed_reason}).Increment();
      SendResponse(fd,
                   HttpResponse::Error(503, "server overloaded",
                                       RequestIdString(request_id)),
                   "shed");
      ::close(fd);
      continue;
    }
    queue_cv_.NotifyOne();
  }
}

bool HttpServer::PeekIsHealthz(int fd, int poll_ms) {
  // "GET /healthz " — the trailing space rules out longer paths; a probe
  // with a query string takes the normal queued path.
  static constexpr char kProbe[] = "GET /healthz ";
  static constexpr size_t kProbeLen = sizeof(kProbe) - 1;
  char buf[kProbeLen];
  ssize_t n = ::recv(fd, buf, kProbeLen, MSG_PEEK | MSG_DONTWAIT);
  if (n < static_cast<ssize_t>(kProbeLen) && poll_ms > 0) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    if (::poll(&p, 1, poll_ms) > 0) {
      n = ::recv(fd, buf, kProbeLen, MSG_PEEK | MSG_DONTWAIT);
    }
  }
  return n == static_cast<ssize_t>(kProbeLen) &&
         std::memcmp(buf, kProbe, kProbeLen) == 0;
}

void HttpServer::ServeHealthzInline(int fd, uint64_t request_id) {
  const std::string id = RequestIdString(request_id);
  HttpRequest req;
  req.method = "GET";
  req.path = "/healthz";
  req.deadline = Deadline::Infinite();
  req.request_id = id;
  HttpResponse resp = routes_.at("/healthz")(req);
  resp.request_id = id;
  SendResponse(fd, resp, "/healthz");
}

void HttpServer::ObserveQueueWait(double queue_wait_s) {
  if (options_.queue_target_delay_ms <= 0) return;
  if (queue_wait_s * 1e3 > static_cast<double>(options_.queue_target_delay_ms)) {
    int64_t expected = 0;
    const int64_t now_ns =
        std::chrono::steady_clock::now().time_since_epoch().count();
    // Only the first above-target observation stamps the clock; later ones
    // leave it so the duration above target keeps accumulating.
    queue_above_target_since_ns_.compare_exchange_strong(expected, now_ns);
  } else {
    queue_above_target_since_ns_.store(0);
  }
}

bool HttpServer::QueueDelayExceeded() const {
  if (options_.queue_target_delay_ms <= 0) return false;
  const int64_t since_ns = queue_above_target_since_ns_.load();
  if (since_ns == 0) return false;
  const int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  return now_ns - since_ns >=
         static_cast<int64_t>(options_.queue_delay_interval_ms) * 1'000'000;
}

void HttpServer::WorkerLoop() {
  for (;;) {
    std::optional<QueuedConnection> conn;
    {
      MutexLock lock(&mu_);
      // Counted idle while it waits, so a connection queued for this worker
      // does not make others give up their kept-alive connections.
      ++idle_workers_;
      while (queue_.empty() && !workers_exit_) queue_cv_.Wait(&mu_);
      --idle_workers_;
      if (queue_.empty()) return;  // workers_exit_ and nothing left to drain
      conn = PopLocked();
    }
    while (conn.has_value()) conn = ServeConnection(*conn);
  }
}

HttpServer::QueuedConnection HttpServer::PopLocked() {
  QueuedConnection conn = queue_.front();
  queue_.pop_front();
  ServerMetrics::Get().queue_depth.Set(static_cast<double>(queue_.size()));
  UpdateWakeFdLocked();
  return conn;
}

bool HttpServer::ConnectionWaitingLocked() const {
  return draining_ || queue_.size() > idle_workers_;
}

void HttpServer::UpdateWakeFdLocked() {
  const bool waiting = ConnectionWaitingLocked();
  if (waiting == wake_set_) return;
  // The counter only ever moves between 0 and 1, so neither call can block
  // or come up short.
  uint64_t value = 1;
  const ssize_t n = waiting ? ::write(wake_fd_, &value, sizeof(value))
                            : ::read(wake_fd_, &value, sizeof(value));
  ALT_CHECK(n == static_cast<ssize_t>(sizeof(value)))
      << "wake eventfd " << (waiting ? "write" : "read") << " failed";
  wake_set_ = waiting;
}

std::optional<HttpServer::QueuedConnection> HttpServer::ServeConnection(
    const QueuedConnection& conn) {
  double queue_wait_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    conn.accepted_at)
          .count();
  ObserveQueueWait(queue_wait_s);
  // A request whose whole budget was spent waiting in the queue is dead
  // on arrival: answer 504 without even reading its bytes, so the worker
  // is immediately free for a request that can still make its deadline.
  if (conn.deadline.Expired()) {
    ServerMetrics::Get().queue_rejected.WithLabels({"expired"}).Increment();
    HttpResponse resp = HttpResponse::Error(
        504, "request expired waiting in queue",
        RequestIdString(conn.request_id));
    resp.retry_after_s = 1;
    SendResponse(conn.fd, resp, "shed");
    ::close(conn.fd);
    return std::nullopt;
  }
  std::string buffer;  // bytes read past the requests answered so far
  std::optional<QueuedConnection> take_over;
  Deadline deadline = conn.deadline;
  std::string request_id = RequestIdString(conn.request_id);
  while (ServeRequest(conn.fd, &buffer, deadline, request_id, queue_wait_s,
                      &take_over)) {
    // Pipelined bytes are the next request already; otherwise wait for it.
    if (buffer.empty() && !AwaitNextRequest(conn.fd, &take_over)) break;
    deadline = RequestDeadline(options_);
    request_id = RequestIdString(next_request_id_.fetch_add(1) + 1);
    queue_wait_s = 0.0;
  }
  ::close(conn.fd);
  return take_over;
}

bool HttpServer::AwaitNextRequest(
    int fd, std::optional<QueuedConnection>* take_over) {
  const int timeout_ms = options_.recv_timeout_ms;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(std::max(timeout_ms, 0));
  pollfd fds[2] = {{fd, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
  for (;;) {
    int wait_ms = -1;
    if (timeout_ms > 0) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          give_up - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      wait_ms = static_cast<int>(left.count());
    }
    const int ready = ::poll(fds, 2, wait_ms);
    if (ready == 0) return false;  // silent past recv_timeout_ms
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Bytes, EOF or an error: the next recv tells which. A request that is
    // already here is answered before the worker yields.
    if (fds[0].revents != 0) return true;
    MutexLock lock(&mu_);
    if (YieldLocked(take_over)) return false;
    // Woken, but another worker took the waiting connection first.
  }
}

bool HttpServer::YieldLocked(std::optional<QueuedConnection>* take_over) {
  if (!ConnectionWaitingLocked()) return false;
  if (!queue_.empty()) *take_over = PopLocked();
  return true;
}

bool HttpServer::SendAll(int fd, std::string_view payload) {
  size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;  // EPIPE/timeout: peer is gone, give up quietly
    sent += static_cast<size_t>(n);
  }
  return true;
}

void HttpServer::SendResponse(int fd, const HttpResponse& resp,
                              const std::string& path_label, bool keep_alive) {
  ServerMetrics::Get()
      .requests.WithLabels({path_label, std::to_string(resp.status)})
      .Increment();
  std::ostringstream out;
  out << "HTTP/1.1 " << resp.status << " " << ReasonPhrase(resp.status)
      << "\r\n"
      << "Content-Type: " << resp.content_type << "\r\n"
      << "Content-Length: " << resp.body.size() << "\r\n";
  if (!resp.request_id.empty()) {
    out << "X-Request-Id: " << resp.request_id << "\r\n";
  }
  // Every 503 tells the client when to come back, even when the handler
  // forgot to say; other statuses only when explicitly asked.
  if (resp.status == 503 || resp.retry_after_s > 0) {
    out << "Retry-After: " << std::max(1, resp.retry_after_s) << "\r\n";
  }
  out << (keep_alive ? "Connection: keep-alive\r\n\r\n"
                     : "Connection: close\r\n\r\n")
      << resp.body;
  SendAll(fd, out.str());
}

bool HttpServer::ServeRequest(int fd, std::string* buffer,
                              const Deadline& deadline,
                              const std::string& request_id,
                              double queue_wait_s,
                              std::optional<QueuedConnection>* take_over) {
  ServerMetrics& metrics = ServerMetrics::Get();
  obs::GaugeGuard inflight(metrics.inflight);
  obs::GaugeGuard busy(metrics.workers_busy);

  HttpParseResult parsed =
      ParseHttpRequest(*buffer, options_.max_header_bytes,
                       options_.max_body_bytes, /*at_eof=*/false);
  bool timed_out = false;
  while (parsed.kind == HttpParseResult::Kind::kNeedMore) {
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer->append(chunk, static_cast<size_t>(n));
      // A body still short of its Content-Length is not parsed again.
      if (buffer->size() < parsed.needed) continue;
      parsed = ParseHttpRequest(*buffer, options_.max_header_bytes,
                                options_.max_body_bytes, /*at_eof=*/false);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // The peer closed or went silent. A connection with no bytes at all
    // closes quietly (the client went away); anything else gets an answer
    // instead of vanishing.
    if (buffer->empty()) return false;
    timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    parsed = ParseHttpRequest(*buffer, options_.max_header_bytes,
                              options_.max_body_bytes, /*at_eof=*/true);
    break;
  }
  if (parsed.kind == HttpParseResult::Kind::kMalformed) {
    // Headers that never completed mean a stalled client when it timed
    // out: 408, not 400.
    SendResponse(fd,
                 timed_out ? HttpResponse::Error(408, "request timed out",
                                                 request_id)
                           : HttpResponse::Error(parsed.status, parsed.error,
                                                 request_id),
                 "malformed");
    return false;
  }
  if (parsed.kind != HttpParseResult::Kind::kRequest) return false;

  HttpRequest& req = parsed.request;
  req.deadline = deadline;
  req.request_id = request_id;
  req.queue_wait_s = queue_wait_s;

  HttpResponse resp;
  auto it = routes_.find(req.path);
  if (it == routes_.end()) {
    resp = HttpResponse::Error(404, "no such endpoint: " + req.path,
                               request_id);
  } else if (deadline.Expired()) {
    // The budget was spent on queue wait + parsing; do not start the
    // handler's (possibly expensive) work at all.
    resp = HttpResponse::Error(
        504, "request deadline exceeded before dispatch", request_id);
  } else {
    resp = it->second(req);
  }
  // Every response carries the id, whether or not the handler set it.
  resp.request_id = request_id;
  // Decoded for human eyes only; matching and metric labels use raw bytes.
  ALTROUTE_LOG(Debug) << request_id << " " << req.method << " "
                      << UrlDecode(req.path) << " -> " << resp.status;
  // Never kept after HEAD: its response carries the body here, which the
  // client does not read and would take for the start of the next response.
  bool keep_alive = parsed.keep_alive && req.method != "HEAD";
  if (keep_alive) {
    // The connection stays only while no other connection needs a worker;
    // otherwise this worker takes the waiting one under the same lock, so
    // one waiting connection closes at most one kept-alive connection.
    MutexLock lock(&mu_);
    keep_alive = !YieldLocked(take_over);
  }
  SendResponse(fd, resp, it == routes_.end() ? "unmatched" : req.path,
               keep_alive);
  buffer->erase(0, parsed.consumed);
  return keep_alive;
}

}  // namespace altroute
