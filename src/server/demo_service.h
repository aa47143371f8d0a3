// DemoService: wires the network manager (per-city query-processor pools)
// and rating store into HTTP routes, forming the complete web demo backend
// of paper Sec. 3 / Figs. 2-3. It serves whatever cities its NetworkManager
// holds, each added with a loader (NetworkManager::AddCity), so every city
// reloads in place:
//   GET  /              - landing page (instructions, Fig. 2 stand-in)
//   GET  /route         - ?slat=&slng=&tlat=&tlng=[&city=] -> masked A-D sets
//   GET  /directions    - ?slat=&slng=&tlat=&tlng=&label=A..D[&city=]
//   GET  /rate          - ?a=&b=&c=&d=&resident=&comment= -> store a form
//   GET  /stats         - submission count + mean rating per masked label
//   GET  /metrics       - Prometheus text exposition of the process registry
//   GET  /healthz       - liveness: 200 as long as the process serves
//   GET  /readyz        - readiness: 200 iff every city has a valid snapshot
//   GET  /debug/slow    - worst recorded requests with phase breakdowns
//   GET  /debug/requests- most recent requests with phase breakdowns
//   GET  /debug/build   - compiler / build mode / uptime / served cities
//   POST /admin/reload  - [?city=] rebuild+validate+swap snapshot(s); a
//                         failed reload keeps the old snapshot serving
// /route additionally honours &trace=1, appending a "trace" member with the
// request's laps in order (wall times; engine laps add their approach's
// status, routes and search statistics) and a "phases" member with the laps
// summed by name plus `unattributed`.
//
// Multi-city: query handlers take an optional `city` parameter. With exactly
// one configured city it may be omitted; with several it is required (400).
// Unknown cities answer 404.
//
// Handlers are thread-safe: each request copies the city's snapshot
// (shared_ptr, so a concurrent reload swap never frees state under an
// in-flight query) and checks a QueryProcessor context out of its pool for
// the duration. RatingStore is internally synchronised.
#pragma once

#include <chrono>
#include <memory>

#include "obs/phase_timer.h"
#include "server/http_server.h"
#include "server/network_manager.h"
#include "server/query_processor.h"
#include "server/query_processor_pool.h"
#include "server/rating_store.h"
#include "server/slow_query_log.h"

namespace altroute {

class DemoService {
 public:
  /// The data plane: one snapshot (pool + index + weights) per city, hot
  /// reload, readiness. The manager is shared so the CLI can also drive
  /// reloads from signals.
  explicit DemoService(std::shared_ptr<NetworkManager> manager);

  /// Registers all demo routes on `server`. The service must outlive it.
  void Install(HttpServer* server);

  RatingStore& ratings() { return ratings_; }
  NetworkManager& manager() { return *manager_; }
  /// Request forensics (--slow-query-ms / --slow-query-log wire up here).
  SlowQueryLog& slow_queries() { return slow_queries_; }

 private:
  /// Picks the city for a query handler: explicit ?city=, or the single
  /// configured city, or an error (400 with several cities, 404 unknown,
  /// 503 when no cities are configured at all).
  Result<std::shared_ptr<const NetworkSnapshot>> ResolveSnapshot(
      const HttpRequest& req) const;

  HttpResponse HandleRoute(const HttpRequest& req);
  HttpResponse HandleDirections(const HttpRequest& req);
  HttpResponse HandleRate(const HttpRequest& req);
  HttpResponse HandleStats(const HttpRequest& req) const;
  HttpResponse HandleIndex(const HttpRequest& req) const;
  HttpResponse HandleMetrics(const HttpRequest& req) const;
  HttpResponse HandleHealthz(const HttpRequest& req) const;
  HttpResponse HandleReadyz(const HttpRequest& req) const;
  HttpResponse HandleReload(const HttpRequest& req);
  HttpResponse HandleDebugSlow(const HttpRequest& req) const;
  HttpResponse HandleDebugRequests(const HttpRequest& req) const;
  HttpResponse HandleDebugBuild(const HttpRequest& req) const;

  /// Attribution sink for one finished /route request: observes every phase,
  /// `unattributed` included, into the altroute_request_phase_seconds
  /// histogram and feeds the slow-query log. `response` is null when
  /// Process() failed outright.
  void RecordRouteForensics(const HttpRequest& req, const std::string& city,
                            const QueryResponse* response,
                            const obs::RequestProfile& profile);

  std::shared_ptr<NetworkManager> manager_;
  RatingStore ratings_;
  SlowQueryLog slow_queries_;
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace altroute
