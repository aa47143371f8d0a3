#include "server/query_processor.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <exception>
#include <optional>

#include "core/path.h"
#include "geo/polyline.h"
#include "obs/metrics.h"
#include "server/json.h"
#include "util/fault_injector.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {

namespace {

/// The query-path metric families, registered once and cached (registration
/// takes the registry mutex; observations are wait-free).
struct QueryMetrics {
  obs::CounterFamily& queries;
  obs::CounterFamily& query_errors;
  obs::HistogramFamily& latency;
  obs::CounterFamily& nodes_settled;
  obs::CounterFamily& edges_relaxed;
  obs::CounterFamily& heap_pushes;
  obs::CounterFamily& heap_pops;
  obs::CounterFamily& paths_generated;
  obs::CounterFamily& paths_rejected;
  obs::CounterFamily& deadline_exceeded;
  obs::CounterFamily& degraded_responses;
  obs::CounterFamily& engine_exceptions;
  obs::HistogramFamily& budget_remaining;

  static QueryMetrics& Get() {
    static QueryMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return new QueryMetrics{
          reg.GetCounterFamily("altroute_queries_total",
                               "Route queries processed successfully.",
                               {"city"}),
          reg.GetCounterFamily("altroute_query_errors_total",
                               "Route queries that returned an error.",
                               {"city"}),
          reg.GetHistogramFamily(
              "altroute_query_latency_seconds",
              "Wall time of one engine's lap in a route query: its "
              "alternative-route generation and the checks around it.",
              {"approach", "city"},
              // 0.1 ms .. ~13 s in geometric steps of 2.
              obs::ExponentialBuckets(1e-4, 2.0, 18)),
          reg.GetCounterFamily("altroute_search_nodes_settled_total",
                               "Nodes settled by the routing kernels.",
                               {"approach", "city"}),
          reg.GetCounterFamily("altroute_search_edges_relaxed_total",
                               "Edges relaxed by the routing kernels.",
                               {"approach", "city"}),
          reg.GetCounterFamily("altroute_search_heap_pushes_total",
                               "Priority-queue pushes by the routing kernels.",
                               {"approach", "city"}),
          reg.GetCounterFamily("altroute_search_heap_pops_total",
                               "Priority-queue pops by the routing kernels.",
                               {"approach", "city"}),
          reg.GetCounterFamily("altroute_paths_generated_total",
                               "Candidate paths produced by the generators.",
                               {"approach", "city"}),
          reg.GetCounterFamily(
              "altroute_paths_rejected_total",
              "Candidate paths dropped, by rejection reason.",
              {"approach", "city", "reason"}),
          reg.GetCounterFamily(
              "altroute_deadline_exceeded_total",
              "Engine runs cut short by a deadline, by engine.",
              {"engine", "city"}),
          reg.GetCounterFamily(
              "altroute_degraded_responses_total",
              "Responses served with at least one failed or truncated engine.",
              {"city"}),
          reg.GetCounterFamily(
              "altroute_engine_exceptions_total",
              "Exceptions thrown by an engine and converted to a degraded "
              "response, by engine.",
              {"engine"}),
          reg.GetHistogramFamily(
              "altroute_engine_budget_remaining_seconds",
              "Request-deadline budget remaining when each engine started.",
              {"approach", "city"},
              // 1 ms .. ~16 s in geometric steps of 2.
              obs::ExponentialBuckets(1e-3, 2.0, 15)),
      };
    }();
    return *m;
  }
};

/// `*slot`: the series of `family` labelled `labels`, looked up (which
/// builds the label vector and takes the family's mutex) only while `*slot`
/// is null.
template <typename T, typename Family, typename... Labels>
T& Series(T*& slot, Family& family, const Labels&... labels) {
  if (slot == nullptr) slot = &family.WithLabels({std::string(labels)...});
  return *slot;
}

/// Lap names other than the engines'. Laps keep views of their names, so
/// these are literals.
constexpr std::string_view kSnapLap = "snap";
constexpr std::string_view kRenderLap = "render";
constexpr std::string_view kSerializeLap = "serialize";

std::array<std::string, kNumApproaches> EngineLaps(EngineSuite& suite) {
  std::array<std::string, kNumApproaches> laps;
  for (size_t i = 0; i < laps.size(); ++i) {
    laps[i] = "engine:" + suite.engine(kAllApproaches[i]).name();
  }
  return laps;
}

/// "DeadlineExceeded" -> "deadline_exceeded" for the per-approach JSON
/// status field.
std::string SnakeCase(std::string_view code_name) {
  std::string out;
  out.reserve(code_name.size() + 4);
  for (char c : code_name) {
    if (std::isupper(static_cast<unsigned char>(c))) {
      if (!out.empty()) out.push_back('_');
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

QueryProcessor::QueryProcessor(EngineSuite suite)
    : suite_(std::move(suite)),
      engine_laps_(EngineLaps(suite_)),
      index_(std::make_shared<const SpatialIndex>(suite_.network().coords())) {}

QueryProcessor::QueryProcessor(EngineSuite suite,
                               std::shared_ptr<const SpatialIndex> index)
    : suite_(std::move(suite)),
      engine_laps_(EngineLaps(suite_)),
      index_(std::move(index)) {
  ALT_CHECK(index_ != nullptr) << "null spatial index";
  ALT_CHECK(index_->size() == suite_.network().num_nodes())
      << "spatial index does not match the network";
}

void QueryProcessor::RecordEngineRun(size_t engine_index,
                                     const obs::SearchStats& s,
                                     double elapsed_s) {
  static constexpr const char* kReasons[] = {"stretch", "similarity",
                                             "filter"};
  QueryMetrics& m = QueryMetrics::Get();
  EngineSeries& series = engine_series_[engine_index];
  const std::string& approach =
      suite_.engine(kAllApproaches[engine_index]).name();
  const std::string& city = suite_.network().name();
  Series(series.latency, m.latency, approach, city).Observe(elapsed_s);
  Series(series.nodes_settled, m.nodes_settled, approach, city)
      .Increment(s.nodes_settled);
  Series(series.edges_relaxed, m.edges_relaxed, approach, city)
      .Increment(s.edges_relaxed);
  Series(series.heap_pushes, m.heap_pushes, approach, city)
      .Increment(s.heap_pushes);
  Series(series.heap_pops, m.heap_pops, approach, city).Increment(s.heap_pops);
  Series(series.paths_generated, m.paths_generated, approach, city)
      .Increment(s.paths_generated);
  const uint64_t rejected[] = {s.paths_rejected_stretch,
                               s.paths_rejected_similarity,
                               s.paths_rejected_filter};
  for (size_t r = 0; r < series.paths_rejected.size(); ++r) {
    if (rejected[r] == 0) continue;
    Series(series.paths_rejected[r], m.paths_rejected, approach, city,
           kReasons[r])
        .Increment(rejected[r]);
  }
}

namespace {
struct Snapped {
  NodeId source;
  NodeId target;
  double source_dist_m;
  double target_dist_m;
};
}  // namespace

/// Shared geo-coordinate matching for all endpoints.
static Result<Snapped> Snap(const SpatialIndex& index, const RoadNetwork& net,
                            const LatLng& source, const LatLng& target) {
  if (!source.IsValid() || !target.IsValid()) {
    return Status::InvalidArgument("coordinates out of range");
  }
  Snapped out;
  ALTROUTE_ASSIGN_OR_RETURN(out.source, index.Nearest(source));
  ALTROUTE_ASSIGN_OR_RETURN(out.target, index.Nearest(target));
  out.source_dist_m = HaversineMeters(source, net.coord(out.source));
  out.target_dist_m = HaversineMeters(target, net.coord(out.target));
  if (out.source_dist_m > QueryProcessor::kMaxSnapDistanceM ||
      out.target_dist_m > QueryProcessor::kMaxSnapDistanceM) {
    return Status::InvalidArgument(
        "clicked location is outside the study area");
  }
  if (out.source == out.target) {
    return Status::InvalidArgument("source and target snap to the same vertex");
  }
  return out;
}

Result<QueryResponse> QueryProcessor::Process(const LatLng& source,
                                              const LatLng& target,
                                              std::nullptr_t,
                                              Deadline deadline,
                                              obs::RequestProfile* profile) {
  std::optional<obs::RequestProfile> own;
  obs::RequestProfile& laps = profile != nullptr ? *profile : own.emplace();
  Result<QueryResponse> response = Run(source, target, deadline, laps);
  laps.Stop();
  return response;
}

Result<QueryResponse> QueryProcessor::Run(const LatLng& source,
                                          const LatLng& target,
                                          Deadline deadline,
                                          obs::RequestProfile& laps) {
  // The snap lap starts with the request's setup (the first call creates
  // the metric handles), so it begins where the caller's last lap ended.
  laps.Lap(kSnapLap);
  const std::string& city = suite_.network().name();
  QueryMetrics& metrics = QueryMetrics::Get();
  Status snap_fault = FaultInjector::Global().Check("snap");
  auto snapped_or = snap_fault.ok()
                        ? Snap(*index_, suite_.network(), source, target)
                        : Result<Snapped>(snap_fault);
  if (!snapped_or.ok()) {
    metrics.query_errors.WithLabels({city}).Increment();
    ALTROUTE_LOG(Warning) << "snap failed: " << snapped_or.status().ToString();
    return snapped_or.status();
  }
  const Snapped snapped = snapped_or.ValueOrDie();

  QueryResponse response;
  const NodeId s = snapped.source;
  const NodeId t = snapped.target;
  response.snapped_source = s;
  response.snapped_target = t;
  response.snap_distance_source_m = snapped.source_dist_m;
  response.snap_distance_target_m = snapped.target_dist_m;

  const std::vector<double>& display = suite_.display_weights();
  // A new request: Plateaus, Dissimilarity and Penalty share one tree pair,
  // built by whichever of them runs first (an open breaker or a failed
  // build passes the job on to the next).
  suite_.display_trees().Reset();
  const size_t num_engines = kAllApproaches.size();
  size_t engines_done = 0;
  size_t engines_failed = 0;
  Status first_failure = Status::OK();
  for (size_t engine_index = 0; engine_index < num_engines; ++engine_index) {
    const Approach a = kAllApproaches[engine_index];
    AlternativeRouteGenerator& engine = suite_.engine(a);
    const std::string& engine_lap = engine_laps_[engine_index];
    // The engine's lap runs from here to its render lap, so its deadline,
    // breaker and fault checks count into it with its Generate call.
    laps.Lap(engine_lap);

    // A spent request deadline means nothing more can be computed: fail the
    // whole request (the HTTP layer answers 504) rather than shipping an
    // all-degraded body late.
    const double remaining_s = deadline.RemainingSeconds();
    if (deadline.Expired()) {
      metrics.query_errors.WithLabels({city}).Increment();
      metrics.deadline_exceeded.WithLabels({engine.name(), city}).Increment();
      return Status::DeadlineExceeded("request deadline exhausted after " +
                                      std::to_string(engines_done) +
                                      " of " + std::to_string(num_engines) +
                                      " engines");
    }

    // Failure containment: an open circuit breaker skips the engine
    // immediately — the persistently failing engine must not burn its
    // budget slice on every request — and the approach ships with status
    // "breaker_open". Every admitted run reports its outcome back below.
    CircuitBreaker* breaker = nullptr;
    if (breakers_ != nullptr) {
      breaker = &breakers_->ForEngine(engine.name());
      if (!breaker->Allow()) {
        ++engines_done;
        ++engines_failed;
        if (first_failure.ok()) {
          first_failure = Status::FailedPrecondition(
              engine.name() + std::string(": circuit breaker open"));
        }
        response.degraded = true;
        ApproachDisplay skipped;
        skipped.label = ApproachLabel(a);
        skipped.engine_name = engine.name();
        skipped.status = "breaker_open";
        skipped.message = "circuit breaker open; engine skipped";
        response.approaches.push_back(std::move(skipped));
        continue;
      }
    }

    // Slice the remaining budget evenly across the engines still expected
    // to run: this engine plus every later one whose breaker is not open.
    // A skipped engine's slice is thereby redistributed to the survivors.
    Deadline engine_deadline = deadline;
    if (!deadline.is_infinite()) {
      Series(engine_series_[engine_index].budget_remaining,
             metrics.budget_remaining, engine.name(), city)
          .Observe(remaining_s);
      size_t runnable = 1;
      for (size_t j = engine_index + 1; j < num_engines; ++j) {
        if (breakers_ == nullptr ||
            breakers_->ForEngine(suite_.engine(kAllApproaches[j]).name())
                    .state() != BreakerState::kOpen) {
          ++runnable;
        }
      }
      engine_deadline =
          Deadline::AfterSeconds(remaining_s / static_cast<double>(runnable));
    }
    CancellationToken token(engine_deadline);

    obs::SearchStats search_stats;
    // Injected latency is checked after the token is created so a simulated
    // slow engine burns its own budget, exactly like a real one.
    Result<AlternativeSet> set_or = [&]() -> Result<AlternativeSet> {
      Status fault = FaultInjector::Global().Check(engine_lap);
      if (!fault.ok()) return fault;
      if (token.StopNow()) {
        return Status::DeadlineExceeded("engine budget exhausted");
      }
      try {
        return engine.Generate(s, t, &search_stats, &token);
      } catch (const std::exception& e) {
        // Isolation barrier: one engine's bug degrades its lane only. The
        // exception is logged with its message and counted per engine so a
        // throwing engine is visible on /metrics, never silently absorbed.
        metrics.engine_exceptions.WithLabels({engine.name()}).Increment();
        ALTROUTE_LOG(Error) << engine.name() << " threw: " << e.what();
        return Status::Internal(engine.name() + std::string(" threw: ") +
                                e.what());
      } catch (...) {  // allowlisted in altroute_lint (bare-catch): last-resort
                       // barrier for non-std::exception throws; logged and
                       // counted above all the same, nothing is swallowed.
        metrics.engine_exceptions.WithLabels({engine.name()}).Increment();
        ALTROUTE_LOG(Error) << engine.name() << " threw a non-exception object";
        return Status::Internal(engine.name() + " threw a non-exception");
      }
    }();
    if (breaker != nullptr) {
      // Every admitted run reports exactly one outcome. A partial result's
      // completion status is judged the same way as an outright failure.
      const Status& outcome =
          set_or.ok() ? set_or.ValueOrDie().completion : set_or.status();
      if (EngineBreakerSet::CountsAsFailure(outcome)) {
        breaker->RecordFailure();
      } else {
        breaker->RecordSuccess();
      }
    }
    ++engines_done;

    // The engine's lap ends here. Turning its result into the approach the
    // participant sees is the render lap, one phase across the engines.
    const double engine_s = laps.Lap(kRenderLap);
    RecordEngineRun(engine_index, search_stats, engine_s);
    ApproachDisplay ad;
    ad.label = ApproachLabel(a);
    ad.engine_name = engine.name();
    ad.elapsed_ms = engine_s * 1e3;
    ad.stats = search_stats;
    if (!set_or.ok()) {
      // Fault isolation: this engine ships empty, the others still run.
      ++engines_failed;
      if (first_failure.ok()) first_failure = set_or.status();
      response.degraded = true;
      ad.status = SnakeCase(StatusCodeToString(set_or.status().code()));
      ad.message = set_or.status().message();
      if (set_or.status().IsDeadlineExceeded()) {
        metrics.deadline_exceeded.WithLabels({engine.name(), city}).Increment();
      }
      ALTROUTE_LOG(Warning) << engine.name()
                            << " degraded: " << set_or.status().ToString();
      response.approaches.push_back(std::move(ad));
      continue;
    }
    const AlternativeSet set = std::move(set_or).ValueOrDie();
    if (!set.completion.ok()) {
      // Partial result: the routes found before the budget ran out still
      // ship, but the approach (and response) are marked degraded.
      response.degraded = true;
      ad.status = SnakeCase(StatusCodeToString(set.completion.code()));
      ad.message = set.completion.message();
      if (set.completion.IsDeadlineExceeded()) {
        metrics.deadline_exceeded.WithLabels({engine.name(), city}).Increment();
      }
    }

    Status render_fault = FaultInjector::Global().Check("render");
    if (!render_fault.ok()) {
      // The routes were computed but cannot be turned into display geometry:
      // the approach ships empty and degraded. Not an engine failure — the
      // breaker already recorded the generation outcome above.
      response.degraded = true;
      if (ad.status == "ok") {
        ad.status = SnakeCase(StatusCodeToString(render_fault.code()));
      }
      ad.message = render_fault.message();
      ALTROUTE_LOG(Warning) << engine.name()
                            << " render degraded: " << render_fault.ToString();
    } else {
      for (const Path& p : set.routes) {
        DisplayedRoute route;
        // The demo computes every approach's displayed travel time from the
        // OSM data and rounds to minutes (paper Sec. 3).
        route.travel_time_min =
            static_cast<int>(std::lround(CostUnder(p, display) / 60.0));
        route.length_km = p.length_m / 1000.0;
        route.polyline = EncodePolyline(PathCoords(suite_.network(), p));
        ad.routes.push_back(std::move(route));
      }
    }
    response.approaches.push_back(std::move(ad));
  }
  if (engines_failed == num_engines) {
    // Nothing survived; surface the first failure so e.g. an unreachable
    // pair still answers NotFound rather than a hollow 200.
    metrics.query_errors.WithLabels({city}).Increment();
    return first_failure;
  }
  Series(queries_, metrics.queries, city).Increment();
  if (response.degraded) {
    metrics.degraded_responses.WithLabels({city}).Increment();
  }
  return response;
}

Result<AlternativeSet> QueryProcessor::GenerateFor(const LatLng& source,
                                                   const LatLng& target,
                                                   Approach approach,
                                                   obs::SearchStats* stats,
                                                   Deadline deadline) {
  ALTROUTE_ASSIGN_OR_RETURN(
      Snapped snapped, Snap(*index_, suite_.network(), source, target));
  CancellationToken token(deadline);
  suite_.display_trees().Reset();  // a request of its own
  return suite_.engine(approach).Generate(snapped.source, snapped.target,
                                          stats, &token);
}

std::string QueryProcessor::ToJson(const QueryResponse& response,
                                   const obs::RequestProfile* trace,
                                   obs::RequestProfile* profile,
                                   std::string_view request_id) const {
  if (profile != nullptr) profile->Lap(kSerializeLap);
  JsonWriter w;
  w.BeginObject();
  if (!request_id.empty()) w.Key("request_id").String(request_id);
  w.Key("snapped_source").Int(static_cast<int64_t>(response.snapped_source));
  w.Key("snapped_target").Int(static_cast<int64_t>(response.snapped_target));
  w.Key("degraded").Bool(response.degraded);
  w.Key("approaches").BeginArray();
  for (const ApproachDisplay& ad : response.approaches) {
    w.BeginObject();
    w.Key("label").String(std::string(1, ad.label));
    w.Key("status").String(ad.status);
    if (!ad.message.empty()) w.Key("message").String(ad.message);
    w.Key("routes").BeginArray();
    for (const DisplayedRoute& r : ad.routes) {
      w.BeginObject();
      w.Key("travel_time_min").Int(r.travel_time_min);
      w.Key("length_km").Number(r.length_km);
      w.Key("polyline").String(r.polyline);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  // Serialization ends here, so the laps a trace renders are final.
  if (profile != nullptr) profile->Stop();
  if (trace != nullptr) {
    // Every lap in order. Engine laps and approaches come in the same
    // order, so the k-th engine lap carries the k-th approach's details.
    w.Key("trace").BeginArray();
    size_t engine = 0;
    for (const obs::RequestProfile::LapTime& lap : trace->laps()) {
      w.BeginObject();
      w.Key("name").String(lap.name);
      w.Key("start_ms").Number(lap.start_s * 1e3);
      w.Key("duration_ms").Number(lap.seconds * 1e3);
      if (engine < response.approaches.size() &&
          std::find(engine_laps_.begin(), engine_laps_.end(), lap.name) !=
              engine_laps_.end()) {
        const ApproachDisplay& ad = response.approaches[engine++];
        w.Key("label").String(std::string(1, ad.label));
        w.Key("status").String(ad.status);
        w.Key("routes").Int(static_cast<int64_t>(ad.routes.size()));
        w.Key("stats");
        WriteSearchStats(w, ad.stats);
      }
      w.EndObject();
    }
    w.EndArray();
    // The laps summed by name plus the time in none: they sum to total_ms.
    w.Key("phases").BeginObject();
    w.Key("total_ms").Number(trace->TotalSeconds() * 1e3);
    w.Key("phases").BeginArray();
    for (const obs::RequestProfile::Phase& phase : trace->phases()) {
      w.BeginObject();
      w.Key("name").String(phase.name);
      w.Key("ms").Number(phase.seconds * 1e3);
      w.EndObject();
    }
    w.BeginObject();
    w.Key("name").String(obs::RequestProfile::kUnattributed);
    w.Key("ms").Number(trace->UnattributedSeconds() * 1e3);
    w.EndObject();
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  return w.TakeString();
}

}  // namespace altroute
