// A concurrent blocking HTTP/1.1 server for the web demo backend (paper
// Sec. 3 / Fig. 2) grown toward production traffic: one accept thread feeds
// a bounded connection queue drained by N worker threads, so slow or idle
// clients cannot stall other users. A worker serves its connection's
// requests back to back (keep-alive) and gives the connection up the moment
// another accepted connection waits for a worker. Per-socket receive/send
// timeouts bound how long a worker can be held by one connection, writes use
// MSG_NOSIGNAL (a client hanging up mid-response must never SIGPIPE the
// process), a full queue sheds load with an immediate 503, and Stop() drains
// gracefully: queued and in-flight requests finish, new connections are
// rejected.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/deadline.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace altroute {

struct HttpRequest {
  std::string method;  // "GET", "POST"
  /// Raw (NOT percent-decoded) path without the query string. Routes are
  /// matched on the raw bytes — "/rou%74e" does not alias "/route" — which
  /// also keeps the path metric label's cardinality bounded.
  std::string path;
  std::map<std::string, std::string> query;
  std::map<std::string, std::string> headers;  // lowercased keys
  std::string body;
  /// Wall deadline for this request. A connection's first request is
  /// stamped when the connection was accepted (queue wait counts against
  /// it); each later request on a kept-alive connection is stamped when the
  /// worker starts reading it. Infinite when the server runs without
  /// --request-timeout-ms. Handlers thread it into their work.
  Deadline deadline;
  /// Server-assigned id ("r" + sequence number), one per request, stamped
  /// with the deadline. Threaded through logs, trace output, error bodies and
  /// slow-query records, and echoed as X-Request-Id, so one slow request can
  /// be followed across every surface.
  std::string request_id;
  /// Seconds this request waited in the connection queue before a worker
  /// picked it up; 0 for later requests on a kept-alive connection. Handlers
  /// record it as the "queue_wait" phase.
  double queue_wait_s = 0.0;
};

/// What ParseHttpRequest found at the front of a connection's byte buffer.
struct HttpParseResult {
  enum class Kind {
    kNeedMore,   // no complete request yet
    kRequest,    // `request` spans the first `consumed` bytes
    kMalformed,  // answer `status` (400 or 431) and close
  };
  Kind kind = Kind::kNeedMore;
  /// kNeedMore: the buffer size at which parsing can next make progress,
  /// once the headers are complete and the body is still short; 0 while the
  /// headers are incomplete.
  size_t needed = 0;
  /// kRequest: method, path, query, headers and body. The deadline, id and
  /// queue wait are the server's to stamp.
  HttpRequest request;
  size_t consumed = 0;
  /// kRequest: another request may follow on this connection. The client
  /// allows it (HTTP/1.1 without "Connection: close", or HTTP/1.0 with
  /// "Connection: keep-alive") and the body framing is unambiguous: no
  /// Transfer-Encoding, at most one Content-Length, parsable and within
  /// max_body_bytes, and a body that was not cut short. A request whose
  /// framing cannot be trusted is still returned, with the body its
  /// Content-Length gave (none when unparsable or oversized), but the bytes
  /// after it must not be read as another request.
  bool keep_alive = false;
  /// kMalformed: 400 or 431, and the reason.
  int status = 0;
  std::string error;
};

/// Parses the request at the front of `data`, without I/O, so bytes left
/// over after one request carry over to the next. Header bytes beyond
/// `max_header_bytes` are 431, an unparsable request line is 400. `at_eof`
/// says no more bytes will arrive (the peer closed or went silent): a
/// request whose body is cut short is then returned with the body it has,
/// and headers that never completed are 400. An empty buffer is always
/// kNeedMore. Never reads past `data`, and `consumed` <= data.size().
HttpParseResult ParseHttpRequest(std::string_view data,
                                 size_t max_header_bytes,
                                 size_t max_body_bytes, bool at_eof);

/// The HTTP status a Status-valued handler failure maps to: 422 for
/// semantically invalid input (bad coordinates, snap failure), 404 NotFound,
/// 504 DeadlineExceeded, 501 Unimplemented, 503 FailedPrecondition, 500 for
/// internal classes (IOError/Corruption/Internal).
int HttpStatusForStatusCode(StatusCode code);

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Echoed as the X-Request-Id response header when non-empty. The server
  /// fills it from HttpRequest::request_id after the handler runs.
  std::string request_id;
  /// Retry-After header value in seconds. Every 503 carries the header
  /// (defaulting to 1s when this is 0) so shed and not-ready responses
  /// always tell clients when to come back; any other status emits it only
  /// when a handler sets this > 0.
  int retry_after_s = 0;

  static HttpResponse Json(std::string json) {
    HttpResponse r;
    r.body = std::move(json);
    return r;
  }
  /// A structured error body:
  ///   {"error": {"code": "...", "message": "...", "request_id": "..."}}
  /// The code string is the snake_case error class of the HTTP status; the
  /// request_id member is present only when one was assigned.
  static HttpResponse Error(int status, const std::string& message,
                            const std::string& request_id = "");
  /// Maps a non-OK Status to Error(HttpStatusForStatusCode(code), message).
  static HttpResponse FromStatus(const Status& status,
                                 const std::string& request_id = "");
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  /// Worker threads handling requests; 0 means hardware_concurrency.
  int num_threads = 0;
  /// Accepted connections waiting for a worker beyond those in flight;
  /// when full, new connections are shed with an immediate 503.
  size_t queue_capacity = 128;
  /// SO_RCVTIMEO / SO_SNDTIMEO per accepted socket; <= 0 disables. The
  /// receive limit also closes a kept-alive connection that stays silent
  /// this long between requests.
  int recv_timeout_ms = 5000;
  int send_timeout_ms = 5000;
  /// Requests whose headers exceed this are rejected with 431.
  size_t max_header_bytes = 1 << 20;
  /// Content-Length values above this are treated as 0 (body ignored), and
  /// the connection is closed after the response.
  size_t max_body_bytes = 1 << 20;
  /// Wall budget per request, measured from accept for a connection's first
  /// request (time spent waiting in the connection queue counts) and from
  /// the start of reading for each later one. Handlers receive the deadline
  /// via HttpRequest::deadline; a request already expired when a worker
  /// picks it up is answered 504 without dispatching (and a request whose
  /// budget is already spent at dequeue is dropped with a 504 before its
  /// bytes are even read). <= 0 disables.
  int request_timeout_ms = 0;
  /// CoDel-style adaptive admission: when the queue wait observed at
  /// dequeue stays above this target continuously for
  /// queue_delay_interval_ms, new connections are shed with 503 +
  /// Retry-After BEFORE the hard queue_capacity bound is reached — a
  /// standing queue is paid by every request behind it, so it is cheaper to
  /// reject at the door than to serve everyone late. <= 0 disables.
  int queue_target_delay_ms = 0;
  /// How long the observed queue wait must stay above the target before
  /// shedding starts.
  int queue_delay_interval_ms = 100;
  /// When the accept thread is about to shed a connection, it waits up to
  /// this long for the first bytes so a liveness probe ("GET /healthz ")
  /// can still be recognised and answered inline. <= 0 disables the wait
  /// (probes whose bytes are still in flight get shed like anyone else).
  int healthz_poll_ms = 20;
};

class HttpServer {
 public:
  HttpServer() = default;
  explicit HttpServer(HttpServerOptions options) : options_(options) {}
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for an exact raw path (any method). Must be called
  /// before Start(). Handlers run concurrently on worker threads and must be
  /// thread-safe. The "/healthz" handler is special: plain GET probes for it
  /// are answered directly on the accept thread — bypassing the queue and
  /// every shed path, so liveness stays observable while the worker pool is
  /// saturated — and must therefore be fast and non-blocking.
  void Route(const std::string& path, HttpHandler handler);

  /// Binds 127.0.0.1:`port` (0 = ephemeral), spawns the worker pool and
  /// starts the accept loop. Also ignores SIGPIPE process-wide as a
  /// belt-and-braces fallback to MSG_NOSIGNAL.
  Status Start(uint16_t port);

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Number of worker threads (valid after Start()).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Graceful drain: stops accepting, finishes queued and in-flight
  /// requests, joins all threads. Idempotent; the server can Start() again.
  void Stop();

  bool running() const { return running_.load(); }

 private:
  /// An accepted connection plus its first request's deadline (stamped at
  /// accept so queue wait burns budget), its id, and its accept timestamp
  /// (so the worker can attribute queue wait as a request phase).
  struct QueuedConnection {
    int fd;
    Deadline deadline;
    uint64_t request_id;
    std::chrono::steady_clock::time_point accepted_at;
  };

  void AcceptLoop();
  void WorkerLoop();
  /// Serves `conn`'s requests until one of them closes it, then closes the
  /// fd. Returns the queued connection this worker took over when it gave
  /// up an idle connection for it.
  std::optional<QueuedConnection> ServeConnection(const QueuedConnection& conn);
  /// Reads, handles and answers one request whose leftover bytes sit in
  /// `*buffer`. True when the connection stays open for another request;
  /// when it closes because another connection waits, that connection is
  /// popped into `*take_over`.
  bool ServeRequest(int fd, std::string* buffer, const Deadline& deadline,
                    const std::string& request_id, double queue_wait_s,
                    std::optional<QueuedConnection>* take_over);
  /// Blocks, with no periodic wake-up, until the idle kept-alive connection
  /// `fd` turns readable (true), or until it should close (false): silence
  /// for recv_timeout_ms, Stop(), or another connection waiting for a
  /// worker, which is then popped into `*take_over`.
  bool AwaitNextRequest(int fd, std::optional<QueuedConnection>* take_over);
  /// Pops the queue's front connection.
  QueuedConnection PopLocked() ALT_REQUIRES(mu_);
  /// True when a kept-alive connection must give its worker up
  /// (ConnectionWaitingLocked()); the waiting connection, if any, is then
  /// popped into `*take_over`. Both yield paths go through here.
  bool YieldLocked(std::optional<QueuedConnection>* take_over)
      ALT_REQUIRES(mu_);
  /// Makes wake_fd_ readable exactly while ConnectionWaitingLocked().
  void UpdateWakeFdLocked() ALT_REQUIRES(mu_);
  /// Draining, or more accepted connections queued than workers idle on the
  /// queue: a worker on an idle kept-alive connection must give it up.
  bool ConnectionWaitingLocked() const ALT_REQUIRES(mu_);
  /// True when the connection's first bytes spell a plain "GET /healthz "
  /// request. Peeks without consuming; with `poll_ms` > 0, waits up to that
  /// long for the bytes to arrive first.
  static bool PeekIsHealthz(int fd, int poll_ms);
  /// Runs the registered /healthz handler on the calling (accept) thread.
  void ServeHealthzInline(int fd, uint64_t request_id);
  /// Updates the CoDel state with a queue wait observed at dequeue.
  void ObserveQueueWait(double queue_wait_s);
  /// True when the observed queue delay has been above target long enough
  /// that new connections should be shed.
  bool QueueDelayExceeded() const;
  /// Writes the full payload with MSG_NOSIGNAL; false on error (EPIPE etc.).
  static bool SendAll(int fd, std::string_view payload);
  /// Serialises `resp` with "Connection: keep-alive" or "Connection:
  /// close", sends it, and counts it under
  /// altroute_http_requests_total{path=`path_label`,code=...}. `path_label`
  /// is drawn from a bounded set: registered routes plus "unmatched",
  /// "malformed" and "shed".
  void SendResponse(int fd, const HttpResponse& resp,
                    const std::string& path_label, bool keep_alive = false);

  HttpServerOptions options_;
  /// Not guarded: Route() CHECK-fails after Start(), so the map is frozen
  /// before the accept/worker threads exist and is immutable while they run.
  std::map<std::string, HttpHandler> routes_;
  // Written by Start()/Stop(), read concurrently by AcceptLoop's accept().
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  /// An eventfd, readable exactly while ConnectionWaitingLocked(). Workers
  /// idle on a kept-alive connection poll it beside their socket. Created by
  /// Start() before any thread, closed by Stop() after all are joined.
  int wake_fd_ = -1;

  /// Monotonic request-id source. A connection's first id is assigned at
  /// accept, before queueing, so even shed connections are identifiable in
  /// logs; later requests on a kept-alive connection draw theirs when read.
  std::atomic<uint64_t> next_request_id_{0};

  /// CoDel state: steady-clock ns timestamp of when the observed queue wait
  /// first went above target (0 = currently below target). Written by
  /// workers at dequeue, read by the accept thread.
  std::atomic<int64_t> queue_above_target_since_ns_{0};

  Mutex mu_;
  CondVar queue_cv_;
  // accepted fds awaiting a worker
  std::deque<QueuedConnection> queue_ ALT_GUARDED_BY(mu_);
  // workers blocked on queue_cv_, about to take a queued connection
  size_t idle_workers_ ALT_GUARDED_BY(mu_) = 0;
  // wake_fd_ is readable
  bool wake_set_ ALT_GUARDED_BY(mu_) = false;
  // Stop() begun: shed new connections with 503
  bool draining_ ALT_GUARDED_BY(mu_) = false;
  // queue is final: drain it, then exit
  bool workers_exit_ ALT_GUARDED_BY(mu_) = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};
};

}  // namespace altroute
