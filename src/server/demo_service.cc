#include "server/demo_service.h"

#include "obs/bench_report.h"
#include "obs/metrics.h"
#include "server/directions.h"
#include "server/json.h"
#include "util/check.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace altroute {

namespace {

/// The performance-attribution instruments, registered once and cached.
struct AttributionMetrics {
  obs::HistogramFamily& phase_seconds;
  obs::Counter& slow_queries;

  static AttributionMetrics& Get() {
    static AttributionMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new AttributionMetrics{
          // Phase label cardinality is bounded: the fixed taxonomy
          // (queue_wait, snapshot_acquire, snap, render, serialize,
          // unattributed) plus one "engine:<name>" per registered engine.
          reg.GetHistogramFamily(
              "altroute_request_phase_seconds",
              "Wall time of one request phase (per-phase latency "
              "attribution of /route).",
              {"phase"},
              // 10 us .. ~5 s in geometric steps of 2.
              obs::ExponentialBuckets(1e-5, 2.0, 20)),
          reg.GetCounter(
              "altroute_slow_queries_total",
              "Requests slower than the --slow-query-ms threshold."),
      };
    }();
    return *m;
  }
};

}  // namespace

DemoService::DemoService(std::shared_ptr<NetworkManager> manager)
    : manager_(std::move(manager)) {
  ALT_CHECK(manager_ != nullptr) << "null network manager";
}

void DemoService::Install(HttpServer* server) {
  server->Route("/", [this](const HttpRequest& r) { return HandleIndex(r); });
  server->Route("/route",
                [this](const HttpRequest& r) { return HandleRoute(r); });
  server->Route("/directions",
                [this](const HttpRequest& r) { return HandleDirections(r); });
  server->Route("/rate", [this](const HttpRequest& r) { return HandleRate(r); });
  server->Route("/stats",
                [this](const HttpRequest& r) { return HandleStats(r); });
  server->Route("/metrics",
                [this](const HttpRequest& r) { return HandleMetrics(r); });
  server->Route("/healthz",
                [this](const HttpRequest& r) { return HandleHealthz(r); });
  server->Route("/readyz",
                [this](const HttpRequest& r) { return HandleReadyz(r); });
  server->Route("/admin/reload",
                [this](const HttpRequest& r) { return HandleReload(r); });
  server->Route("/debug/slow",
                [this](const HttpRequest& r) { return HandleDebugSlow(r); });
  server->Route("/debug/requests", [this](const HttpRequest& r) {
    return HandleDebugRequests(r);
  });
  server->Route("/debug/build",
                [this](const HttpRequest& r) { return HandleDebugBuild(r); });
}

namespace {

/// Fetches a required double query parameter.
Result<double> QueryDouble(const HttpRequest& req, const std::string& key) {
  auto it = req.query.find(key);
  if (it == req.query.end()) {
    return Status::InvalidArgument("missing parameter '" + key + "'");
  }
  return ParseDouble(it->second);
}

}  // namespace

Result<std::shared_ptr<const NetworkSnapshot>> DemoService::ResolveSnapshot(
    const HttpRequest& req) const {
  if (auto it = req.query.find("city"); it != req.query.end()) {
    return manager_->GetSnapshot(it->second);
  }
  const std::vector<std::string> cities = manager_->cities();
  if (cities.empty()) {
    // Not a client mistake: the service has no data plane yet. 503 via
    // FailedPrecondition, so probes and retries treat it as "not ready".
    return Status::FailedPrecondition("no cities configured");
  }
  if (cities.size() == 1) return manager_->GetSnapshot(cities.front());
  std::string known;
  for (const std::string& city : cities) {
    if (!known.empty()) known += ", ";
    known += city;
  }
  return Status::InvalidArgument(
      "several cities are served; pass ?city= one of: " + known);
}

HttpResponse DemoService::HandleRoute(const HttpRequest& req) {
  obs::RequestProfile profile;
  // Queue wait was measured by the HTTP layer before this handler existed;
  // record it as a preceding lap so it counts into the total too.
  if (req.queue_wait_s > 0.0) {
    profile.RecordPreceding("queue_wait", req.queue_wait_s);
  }

  profile.Lap("snapshot_acquire");
  auto snapshot = ResolveSnapshot(req);
  profile.Stop();
  if (!snapshot.ok()) {
    // InvalidArgument here is a missing parameter, not bad content: 400.
    if (snapshot.status().IsInvalidArgument()) {
      return HttpResponse::Error(400, snapshot.status().message(),
                                 req.request_id);
    }
    return HttpResponse::FromStatus(snapshot.status(), req.request_id);
  }
  auto slat = QueryDouble(req, "slat");
  auto slng = QueryDouble(req, "slng");
  auto tlat = QueryDouble(req, "tlat");
  auto tlng = QueryDouble(req, "tlng");
  for (const auto* p : {&slat, &slng, &tlat, &tlng}) {
    if (!p->ok()) {
      return HttpResponse::Error(400, p->status().ToString(), req.request_id);
    }
  }
  const auto trace_it = req.query.find("trace");
  const bool want_trace = trace_it != req.query.end() &&
                          trace_it->second == "1";
  // The snapshot shared_ptr is held for the whole request: a reload swap
  // that lands mid-query retires this generation only after we return.
  // Waiting for a pool context is a second "snapshot_acquire" lap beside the
  // resolve above: both are time spent obtaining the data plane. Process()
  // ends it with its first lap.
  profile.Lap("snapshot_acquire");
  QueryProcessorPool::Lease processor = (*snapshot)->pool->Acquire();
  auto response = processor->Process(LatLng(*slat, *slng),
                                     LatLng(*tlat, *tlng), nullptr,
                                     req.deadline, &profile);
  const std::string& city = (*snapshot)->network().name();
  if (!response.ok()) {
    // Semantic failures map by status code: snap failures 422, no route
    // 404, spent request deadline 504 (see HttpStatusForStatusCode). They
    // still feed the forensics log: a slow failure is still slow.
    RecordRouteForensics(req, city, nullptr, profile);
    return HttpResponse::FromStatus(response.status(), req.request_id);
  }
  // Chaos site "serialize": a failure here models the response encoder
  // breaking after a successful computation — the request still answers,
  // with the fault's status instead of a body it cannot produce.
  Status serialize_fault = FaultInjector::Global().Check("serialize");
  if (!serialize_fault.ok()) {
    RecordRouteForensics(req, city, &*response, profile);
    return HttpResponse::FromStatus(serialize_fault, req.request_id);
  }
  HttpResponse ok = HttpResponse::Json(
      processor->ToJson(*response, want_trace ? &profile : nullptr, &profile,
                        req.request_id));
  RecordRouteForensics(req, city, &*response, profile);
  return ok;
}

void DemoService::RecordRouteForensics(const HttpRequest& req,
                                       const std::string& city,
                                       const QueryResponse* response,
                                       const obs::RequestProfile& profile) {
  // The laps have ended (Process() and ToJson() each end their last), so
  // the phases and `unattributed` sum to the recorded total.
  AttributionMetrics& metrics = AttributionMetrics::Get();
  const double unattributed_s = profile.UnattributedSeconds();
  for (const obs::RequestProfile::Phase& phase : profile.phases()) {
    metrics.phase_seconds.WithLabels({std::string(phase.name)})
        .Observe(phase.seconds);
  }
  metrics.phase_seconds
      .WithLabels({std::string(obs::RequestProfile::kUnattributed)})
      .Observe(unattributed_s);

  SlowQueryRecord record;
  record.request_id = req.request_id;
  record.city = city;
  // Copy only the route parameters we understand: the record must stay
  // bounded and free of arbitrary client input.
  for (const char* key : {"slat", "slng", "tlat", "tlng", "city", "trace"}) {
    if (auto it = req.query.find(key); it != req.query.end()) {
      record.params[key] = it->second;
    }
  }
  record.total_ms = profile.TotalSeconds() * 1e3;
  for (const obs::RequestProfile::Phase& phase : profile.phases()) {
    record.phases.emplace_back(phase.name, phase.seconds * 1e3);
  }
  record.phases.emplace_back(obs::RequestProfile::kUnattributed,
                             unattributed_s * 1e3);
  if (response != nullptr) {
    record.degraded = response->degraded;
    for (const ApproachDisplay& ad : response->approaches) {
      record.engines.push_back(
          SlowQueryEngine{ad.engine_name, ad.status, ad.elapsed_ms, ad.stats});
    }
  } else {
    // Process() failed outright; there is no per-engine story to tell.
    record.degraded = true;
  }
  record.budget_remaining_ms = req.deadline.is_infinite()
                                   ? -1.0
                                   : req.deadline.RemainingSeconds() * 1e3;
  if (slow_queries_.Add(record)) metrics.slow_queries.Increment();
}

HttpResponse DemoService::HandleDirections(const HttpRequest& req) {
  auto snapshot = ResolveSnapshot(req);
  if (!snapshot.ok()) {
    if (snapshot.status().IsInvalidArgument()) {
      return HttpResponse::Error(400, snapshot.status().message(),
                                 req.request_id);
    }
    return HttpResponse::FromStatus(snapshot.status(), req.request_id);
  }
  auto slat = QueryDouble(req, "slat");
  auto slng = QueryDouble(req, "slng");
  auto tlat = QueryDouble(req, "tlat");
  auto tlng = QueryDouble(req, "tlng");
  for (const auto* p : {&slat, &slng, &tlat, &tlng}) {
    if (!p->ok()) {
      return HttpResponse::Error(400, p->status().ToString(), req.request_id);
    }
  }
  auto label_it = req.query.find("label");
  const std::string label = label_it == req.query.end() ? "B" : label_it->second;
  if (label.size() != 1 || label[0] < 'A' ||
      label[0] >= 'A' + kNumApproaches) {
    return HttpResponse::Error(400, "label must be one of A-D",
                               req.request_id);
  }
  const auto approach = static_cast<Approach>(label[0] - 'A');

  QueryProcessorPool::Lease processor = (*snapshot)->pool->Acquire();
  auto set = processor->GenerateFor(LatLng(*slat, *slng),
                                    LatLng(*tlat, *tlng), approach,
                                    /*stats=*/nullptr, req.deadline);
  if (!set.ok()) {
    return HttpResponse::FromStatus(set.status(), req.request_id);
  }
  if (set->routes.empty()) {
    return HttpResponse::Error(404, "no route found", req.request_id);
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("label").String(label);
  w.Key("steps").BeginArray();
  for (const DirectionStep& step :
       BuildDirections(processor->network(), set->routes[0])) {
    w.BeginObject();
    w.Key("maneuver").String(std::string(ManeuverName(step.maneuver)));
    w.Key("text").String(step.text);
    w.Key("distance_m").Number(step.distance_m);
    w.Key("duration_s").Number(step.duration_s);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(w.TakeString());
}

HttpResponse DemoService::HandleRate(const HttpRequest& req) {
  RatingSubmission submission;
  const char* keys[kNumApproaches] = {"a", "b", "c", "d"};
  for (int i = 0; i < kNumApproaches; ++i) {
    auto it = req.query.find(keys[i]);
    if (it == req.query.end()) {
      return HttpResponse::Error(400, std::string("missing rating '") +
                                          keys[i] + "'");
    }
    auto v = ParseInt64(it->second);
    if (!v.ok()) return HttpResponse::Error(400, v.status().ToString());
    submission.ratings[static_cast<size_t>(i)] = static_cast<int>(*v);
  }
  if (auto it = req.query.find("resident"); it != req.query.end()) {
    submission.melbourne_resident = (it->second == "1" || it->second == "yes");
  }
  if (auto it = req.query.find("comment"); it != req.query.end()) {
    submission.comment = it->second;
  }
  const Status st = ratings_.Add(submission);
  if (st.IsInvalidArgument()) return HttpResponse::Error(400, st.ToString());
  // Persistence failures (IOError when a ratings file is attached) are the
  // server's fault, not the client's: 500, not 4xx.
  if (!st.ok()) return HttpResponse::FromStatus(st);

  JsonWriter w;
  w.BeginObject();
  w.Key("stored").Bool(true);
  w.Key("total_submissions").Int(static_cast<int64_t>(ratings_.size()));
  w.EndObject();
  return HttpResponse::Json(w.TakeString());
}

HttpResponse DemoService::HandleStats(const HttpRequest&) const {
  const auto means = ratings_.MeanRatings();
  JsonWriter w;
  w.BeginObject();
  w.Key("submissions").Int(static_cast<int64_t>(ratings_.size()));
  w.Key("mean_ratings").BeginObject();
  const char* keys[kNumApproaches] = {"A", "B", "C", "D"};
  for (int i = 0; i < kNumApproaches; ++i) {
    w.Key(keys[i]).Number(means[static_cast<size_t>(i)]);
  }
  w.EndObject();
  w.EndObject();
  return HttpResponse::Json(w.TakeString());
}

HttpResponse DemoService::HandleMetrics(const HttpRequest&) const {
  // Age gauges are point-in-time; refresh them at scrape so
  // altroute_network_snapshot_age_seconds grows between reloads.
  manager_->RefreshGauges();
  HttpResponse r;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = obs::MetricsRegistry::Global().ExposePrometheus();
  return r;
}

HttpResponse DemoService::HandleHealthz(const HttpRequest&) const {
  // Liveness only: the process is up and serving HTTP. Data-plane state is
  // /readyz's job — a load balancer must not kill a pod whose reload failed.
  HttpResponse r;
  r.content_type = "text/plain";
  r.body = "ok\n";
  return r;
}

HttpResponse DemoService::HandleReadyz(const HttpRequest&) const {
  const bool ready = manager_->Ready();
  JsonWriter w;
  w.BeginObject();
  w.Key("ready").Bool(ready);
  w.Key("cities").BeginObject();
  for (const std::string& city : manager_->cities()) {
    auto snapshot = manager_->GetSnapshot(city);
    w.Key(city).BeginObject();
    w.Key("ready").Bool(snapshot.ok());
    if (snapshot.ok()) {
      w.Key("generation").Int(static_cast<int64_t>((*snapshot)->generation));
      w.Key("age_seconds").Number((*snapshot)->age_seconds());
      w.Key("nodes").Int(static_cast<int64_t>((*snapshot)->network().num_nodes()));
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  HttpResponse r = HttpResponse::Json(w.TakeString());
  if (!ready) r.status = 503;
  return r;
}

HttpResponse DemoService::HandleReload(const HttpRequest& req) {
  if (req.method != "POST") {
    return HttpResponse::Error(405, "reload requires POST");
  }
  std::map<std::string, Status> outcomes;
  if (auto it = req.query.find("city"); it != req.query.end()) {
    const Status st = manager_->Reload(it->second);
    if (st.IsNotFound()) return HttpResponse::FromStatus(st);
    outcomes.emplace(it->second, st);
  } else {
    outcomes = manager_->ReloadAll();
  }
  bool all_ok = true;
  JsonWriter w;
  w.BeginObject();
  w.Key("reloads").BeginObject();
  for (const auto& [city, st] : outcomes) {
    w.Key(city).BeginObject();
    w.Key("outcome").String(st.ok() ? "success" : "failed");
    if (!st.ok()) {
      all_ok = false;
      w.Key("error").String(st.ToString());
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  HttpResponse r = HttpResponse::Json(w.TakeString());
  // A failed reload never took the old snapshot down, but the caller asked
  // for a swap that did not happen, so a failure must surface to automation.
  // A single-city reload maps its cause by status code (a failed load or
  // validation is 500); a bulk reload with any failure is 500.
  if (!all_ok) {
    r.status = outcomes.size() == 1
                   ? HttpStatusForStatusCode(outcomes.begin()->second.code())
                   : 500;
  }
  return r;
}

namespace {

/// Shared shape of /debug/slow and /debug/requests: a records array of
/// SlowQueryRecord JSON (the same layout the JSONL log persists).
HttpResponse DebugRecordsResponse(const char* kind,
                                  const std::vector<SlowQueryRecord>& records,
                                  const SlowQueryLog& log) {
  JsonWriter w;
  w.BeginObject();
  w.Key("kind").String(kind);
  w.Key("threshold_ms").Number(log.options().threshold_ms);
  w.Key("offenders_total")
      .Int(static_cast<int64_t>(log.offenders_total()));
  w.Key("records").BeginArray();
  for (const SlowQueryRecord& r : records) {
    w.RawValue(SlowQueryRecordToJsonLine(r));
  }
  w.EndArray();
  w.EndObject();
  return HttpResponse::Json(w.TakeString());
}

}  // namespace

HttpResponse DemoService::HandleDebugSlow(const HttpRequest&) const {
  return DebugRecordsResponse("slow", slow_queries_.Worst(), slow_queries_);
}

HttpResponse DemoService::HandleDebugRequests(const HttpRequest&) const {
  return DebugRecordsResponse("recent", slow_queries_.Recent(), slow_queries_);
}

HttpResponse DemoService::HandleDebugBuild(const HttpRequest&) const {
  JsonWriter w;
  w.BeginObject();
  w.Key("compiler").String(__VERSION__);
#ifdef NDEBUG
  w.Key("build_type").String("release");
#else
  w.Key("build_type").String("debug");
#endif
  w.Key("cxx_standard").Int(static_cast<int64_t>(__cplusplus));
  w.Key("bench_schema_version").Int(obs::kBenchSchemaVersion);
  w.Key("uptime_seconds")
      .Number(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start_time_)
                  .count());
  w.Key("cities").BeginObject();
  for (const std::string& city : manager_->cities()) {
    auto snapshot = manager_->GetSnapshot(city);
    w.Key(city).BeginObject();
    w.Key("ready").Bool(snapshot.ok());
    if (snapshot.ok()) {
      w.Key("generation").Int(static_cast<int64_t>((*snapshot)->generation));
      w.Key("nodes").Int(
          static_cast<int64_t>((*snapshot)->network().num_nodes()));
      w.Key("edges").Int(
          static_cast<int64_t>((*snapshot)->network().num_edges()));
      // What this generation's (off-serving-path) build cost: the pool,
      // which holds the commercial hierarchy, and the display hierarchy.
      w.Key("pool_build_seconds").Number((*snapshot)->pool_build_seconds);
      w.Key("ch_build_seconds").Number((*snapshot)->ch_build_seconds);
      w.Key("ch_shortcuts").Int(
          static_cast<int64_t>((*snapshot)->ch->num_shortcuts()));
    }
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return HttpResponse::Json(w.TakeString());
}

HttpResponse DemoService::HandleIndex(const HttpRequest&) const {
  std::string cities_html;
  for (const std::string& city : manager_->cities()) {
    auto snapshot = manager_->GetSnapshot(city);
    if (!snapshot.ok()) continue;
    // City keys and network names are operator-controlled (a --net file
    // basename becomes the key) but still must not inject markup.
    cities_html += "<li><code>" + HtmlEscape(city) + "</code>: " +
                   HtmlEscape((*snapshot)->network().name()) + ", " +
                   std::to_string((*snapshot)->network().num_nodes()) +
                   " vertices, " +
                   std::to_string((*snapshot)->network().num_edges()) +
                   " edges (generation " +
                   std::to_string((*snapshot)->generation) + ")</li>";
  }
  HttpResponse r;
  r.content_type = "text/html";
  r.body =
      "<!doctype html><html><head><title>Alternative Route Planning "
      "Demo</title></head><body>"
      "<h1>Comparing Alternative Route Planning Techniques</h1>"
      "<p>Pick a source and target inside the study area, then call "
      "<code>/route?slat=&amp;slng=&amp;tlat=&amp;tlng=</code> (add "
      "<code>&amp;city=</code> when several cities are served). Four route "
      "sets labelled A&ndash;D are returned; the identities of the "
      "approaches are masked to avoid bias. Rate each approach from 1 "
      "(worst) to 5 (best) via <code>/rate?a=&amp;b=&amp;c=&amp;d=&amp;"
      "resident=</code>.</p>"
      "<p>Served cities:</p><ul>" +
      cities_html + "</ul></body></html>";
  return r;
}

}  // namespace altroute
