// The demo backend's Query Processor (paper Sec. 3): geo-coordinate matching
// (snap clicks to the nearest network vertex), alternative-route computation
// with all four approaches, travel-time display under the OSM data for every
// approach, and identity-masked (A-D) JSON responses for the web UI.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_registry.h"
#include "geo/spatial_index.h"
#include "obs/phase_timer.h"
#include "obs/search_stats.h"
#include "server/engine_breakers.h"
#include "util/deadline.h"

namespace altroute {

namespace obs {
class Counter;
class Histogram;
}  // namespace obs

/// A single displayed route.
struct DisplayedRoute {
  /// Travel time under the OSM display weights, rounded to whole minutes
  /// exactly as the demo shows it (paper Sec. 3).
  int travel_time_min = 0;
  double length_km = 0.0;
  /// Geometry as a Google encoded polyline (the wire format the demo's
  /// Google-Maps-API front end consumes).
  std::string polyline;
};

/// One approach's routes, identity-masked.
struct ApproachDisplay {
  char label = 'A';  // masked identity shown to the participant
  std::vector<DisplayedRoute> routes;
  /// "ok" when the engine completed; otherwise the snake_case status code of
  /// its failure or truncation ("deadline_exceeded", "internal", ...), or
  /// "breaker_open" when the engine's circuit breaker rejected the run
  /// before it started. A degraded approach may still carry routes (partial
  /// result).
  std::string status = "ok";
  /// Human-readable detail when status != "ok".
  std::string message;

  // Forensics fields, filled by Process() for slow-query records and
  // /debug endpoints. NOT serialized into the participant-facing JSON:
  // engine_name would unmask the A-D identity blinding.
  std::string engine_name;
  /// The engine's lap: from the start of its turn in Process() to the start
  /// of its render lap, so its Generate call plus its deadline, breaker and
  /// fault checks. 0 for an engine its breaker skipped.
  double elapsed_ms = 0.0;
  obs::SearchStats stats;
};

/// The full response for a query.
struct QueryResponse {
  NodeId snapped_source = kInvalidNode;
  NodeId snapped_target = kInvalidNode;
  double snap_distance_source_m = 0.0;
  double snap_distance_target_m = 0.0;
  std::vector<ApproachDisplay> approaches;  // in masked order A-D
  /// True when at least one approach timed out or failed: the response is
  /// still served, with the surviving approaches intact.
  bool degraded = false;
};

/// Stateful processor over one city network. Not thread-safe: the engines
/// hold mutable search state, so concurrent serving uses one processor per
/// worker (see QueryProcessorPool) over the shared immutable network.
class QueryProcessor {
 public:
  /// Maximum distance a click may be from the nearest vertex (meters);
  /// farther clicks are outside the study area.
  static constexpr double kMaxSnapDistanceM = 2000.0;

  /// Takes ownership of the suite and builds the snapping index.
  explicit QueryProcessor(EngineSuite suite);

  /// Shares a prebuilt snapping index (immutable after construction, safe
  /// to share across processors) instead of rebuilding it. `index` must
  /// index the suite's network coordinates.
  QueryProcessor(EngineSuite suite, std::shared_ptr<const SpatialIndex> index);

  /// Processes a query given raw clicked coordinates. Returns
  /// InvalidArgument for coordinates outside the study rectangle (plus a
  /// tolerance ring) and NotFound when no route exists. Global metrics
  /// (latency histograms and search counters, labeled by approach and city)
  /// record on every call.
  ///
  /// `deadline` bounds the whole request. The remaining budget is sliced
  /// evenly across the engines still to run; an engine that exhausts its
  /// slice (or errors) is reported degraded while the others still ship.
  /// Only when the *request* deadline is spent before an engine can start
  /// does the call fail with DeadlineExceeded (the server answers 504). All
  /// four engines failing returns the first failure's status.
  ///
  /// Laps tile the call from its first statement to its return: "snap",
  /// then per engine "engine:<name>" and "render". They go into `profile`,
  /// or into a profile of the call's own when it is null; either way the
  /// last lap has ended when the call returns.
  ///
  /// The third parameter is a placeholder: std::nullptr_t has one value, so
  /// it carries nothing. It is kept only so that perfbench_tool's call
  /// `Process(s, t, nullptr, deadline, &profile)` still compiles.
  Result<QueryResponse> Process(const LatLng& source, const LatLng& target,
                                std::nullptr_t = nullptr,
                                Deadline deadline = {},
                                obs::RequestProfile* profile = nullptr);

  /// Serialises a response to JSON for the web UI. A non-null `profile`
  /// times the serialization as its "serialize" lap and ends that lap before
  /// any trace is written. A non-null `trace` renders that recorder's laps
  /// as a "trace" member and their per-name sums, `unattributed` included,
  /// as a "phases" member (?trace=1); null gives an untraced body. A
  /// non-empty `request_id` is echoed as a top-level "request_id" member.
  std::string ToJson(const QueryResponse& response,
                     const obs::RequestProfile* trace = nullptr,
                     obs::RequestProfile* profile = nullptr,
                     std::string_view request_id = {}) const;

  /// Snaps the clicked coordinates and runs ONE approach, returning the raw
  /// route set (for directions/GeoJSON endpoints that need geometry).
  Result<AlternativeSet> GenerateFor(const LatLng& source, const LatLng& target,
                                     Approach approach,
                                     obs::SearchStats* stats = nullptr,
                                     Deadline deadline = {});

  const RoadNetwork& network() const { return suite_.network(); }

  /// Attaches per-engine circuit breakers (shared across all processors
  /// serving one city — engine health is per data plane, not per worker).
  /// Null (the default) disables breaker checks entirely: every engine runs
  /// on every request, as before. Process() consults the breaker before each
  /// engine: a rejected engine is skipped with status "breaker_open" and its
  /// budget slice is redistributed to the engines still admitted; each
  /// admitted run reports success or failure back (see
  /// EngineBreakerSet::CountsAsFailure for what trips it).
  void set_breakers(std::shared_ptr<EngineBreakerSet> breakers) {
    breakers_ = std::move(breakers);
  }
  const std::shared_ptr<EngineBreakerSet>& breakers() const {
    return breakers_;
  }

 private:
  /// One engine's metric series on this processor's city, labelled by the
  /// engine's name. Each is looked up at its first observation and kept:
  /// a series appears on /metrics once it has been observed, and a warm
  /// call looks up none.
  struct EngineSeries {
    obs::Histogram* latency = nullptr;
    obs::Histogram* budget_remaining = nullptr;
    obs::Counter* nodes_settled = nullptr;
    obs::Counter* edges_relaxed = nullptr;
    obs::Counter* heap_pushes = nullptr;
    obs::Counter* heap_pops = nullptr;
    obs::Counter* paths_generated = nullptr;
    /// By rejection reason: stretch, similarity, filter.
    std::array<obs::Counter*, 3> paths_rejected{};
  };

  /// Process() but for ending its last lap.
  Result<QueryResponse> Run(const LatLng& source, const LatLng& target,
                            Deadline deadline, obs::RequestProfile& profile);

  /// Records one run of the engine at `engine_index` (kAllApproaches order)
  /// into its series.
  void RecordEngineRun(size_t engine_index, const obs::SearchStats& stats,
                       double elapsed_s);

  EngineSuite suite_;
  /// "engine:<name>" per engine in kAllApproaches order, built once: each
  /// engine's lap name and fault-injection site. Laps hold views of them,
  /// so a profile's lap names last as long as this processor.
  std::array<std::string, kNumApproaches> engine_laps_;
  std::shared_ptr<const SpatialIndex> index_;
  std::shared_ptr<EngineBreakerSet> breakers_;
  /// Per engine in kAllApproaches order.
  std::array<EngineSeries, kNumApproaches> engine_series_;
  /// The city's altroute_queries_total, looked up at its first increment.
  obs::Counter* queries_ = nullptr;
};

}  // namespace altroute
