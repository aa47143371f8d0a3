// perfbench_tool: the native half of the repository benchmark (see
// perfbench/README.md). Two commands:
//
//   perfbench_tool plan --city dhaka --scale 1.0 --seed 7 --count 237
//       Prints the city's bounds and a seeded origin-destination (OD) list
//       of clicks, stratified into the paper's trip bins ((0,10], (10,25]
//       and (25,80] min, proportions 66:109:62 where the city has trips
//       that long). Each OD carries
//       its plain-Dijkstra optimum under the display weights in whole
//       minutes, which the response checker compares with route 0 of
//       approach B.
//
//   perfbench_tool replay --spec FILE --spans FILE
//       Replays a workload's request list in process, through the public
//       functions of each module, and writes the recorded spans at the end.
//       The spec format is documented at ParseSpec below.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numbers>
#include <string>
#include <string_view>
#include <vector>

#include "citygen/city_generator.h"
#include "citygen/city_spec.h"
#include "core/engine_registry.h"
#include "core/path.h"
#include "geo/polyline.h"
#include "geo/simplify.h"
#include "geo/spatial_index.h"
#include "graph/serialization.h"
#include "graph/validator.h"
#include "obs/phase_timer.h"
#include "obs/search_stats.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "server/network_manager.h"
#include "server/query_processor.h"
#include "server/rating_store.h"
#include "traffic/traffic_model.h"
#include "util/deadline.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace altroute {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// `--key value` flags after the command word.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback = "") {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

Result<citygen::CitySpec> ScaledSpec(const std::string& city, double scale) {
  citygen::CitySpec spec;
  if (city == "melbourne") {
    spec = citygen::MelbourneSpec();
  } else if (city == "dhaka") {
    spec = citygen::DhakaSpec();
  } else if (city == "copenhagen") {
    spec = citygen::CopenhagenSpec();
  } else {
    return Status::InvalidArgument("unknown city: " + city);
  }
  return citygen::Scaled(spec, scale);
}

/// FNV-1a: a seed component from the city name that is the same on every
/// platform (std::hash is not).
uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// ---------------------------------------------------------------- plan ---

/// The paper's trip bins, (lo, hi] minutes, and the responses each got.
struct TripBin {
  double lo_min;
  double hi_min;
  int weight;
};
constexpr TripBin kTripBins[] = {{0.0, 10.0, 66}, {10.0, 25.0, 109},
                                 {25.0, 80.0, 62}};
constexpr int kNumBins = 3;

int BinOf(double minutes) {
  for (int b = 0; b < kNumBins; ++b) {
    if (minutes > kTripBins[b].lo_min && minutes <= kTripBins[b].hi_min) {
      return b;
    }
  }
  return -1;
}

/// A click near `node`: up to `radius_m` of seeded jitter, printed with six
/// decimals and parsed back, so the snap below sees exactly the bytes the
/// server will parse.
LatLng Click(const RoadNetwork& net, NodeId node, Rng* rng, double radius_m) {
  const LatLng& c = net.coord(node);
  const double dlat = rng->Uniform(-1.0, 1.0) * radius_m / 111320.0;
  const double dlng = rng->Uniform(-1.0, 1.0) * radius_m /
                      (111320.0 * std::cos(c.lat * std::numbers::pi / 180.0));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", c.lat + dlat);
  const double lat = ParseDouble(buf).ValueOr(c.lat);
  std::snprintf(buf, sizeof(buf), "%.6f", c.lng + dlng);
  const double lng = ParseDouble(buf).ValueOr(c.lng);
  return LatLng(lat, lng);
}

int CmdPlan(const std::map<std::string, std::string>& flags) {
  const std::string city = Flag(flags, "city");
  const double scale = ParseDouble(Flag(flags, "scale", "1.0")).ValueOr(-1.0);
  const auto seed = ParseInt64(Flag(flags, "seed", "1"));
  const auto count = ParseInt64(Flag(flags, "count", "237"));
  if (scale <= 0.0 || !seed.ok() || !count.ok() || *count <= 0) {
    std::fprintf(stderr, "plan: bad --scale, --seed or --count\n");
    return 2;
  }
  auto spec = ScaledSpec(city, scale);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 2;
  }
  auto net_or = citygen::BuildCityNetwork(*spec);
  if (!net_or.ok()) {
    std::fprintf(stderr, "%s\n", net_or.status().ToString().c_str());
    return 1;
  }
  const RoadNetwork& net = **net_or;
  const std::vector<double> weights = FreeFlowModel().Weights(net);
  const SpatialIndex index(net.coords());
  Dijkstra dijkstra(net);
  Rng rng(static_cast<uint64_t>(*seed) * 0x9E3779B97F4A7C15ULL ^ Fnv1a(city));
  const auto n = static_cast<uint64_t>(net.num_nodes());

  // Which bins does the city have trips for? Probe a few one-to-all trees.
  bool present[kNumBins] = {false, false, false};
  for (int probe = 0; probe < 24; ++probe) {
    auto tree = dijkstra.BuildTree(static_cast<NodeId>(rng.NextUint64(n)),
                                   weights, SearchDirection::kForward);
    if (!tree.ok()) continue;
    for (double d : tree->dist) {
      if (d < kInfCost && d > 0.0) {
        const int b = BinOf(d / 60.0);
        if (b >= 0) present[b] = true;
      }
    }
  }
  // Quotas in the paper's proportions over the bins present (largest
  // remainder, so they sum to exactly --count).
  int weight_sum = 0;
  for (int b = 0; b < kNumBins; ++b) {
    if (present[b]) weight_sum += kTripBins[b].weight;
  }
  if (weight_sum == 0) {
    std::fprintf(stderr, "plan: %s has no trips in the bins\n", city.c_str());
    return 1;
  }
  int64_t quota[kNumBins] = {0, 0, 0};
  double remainder[kNumBins] = {-1.0, -1.0, -1.0};
  int64_t assigned = 0;
  for (int b = 0; b < kNumBins; ++b) {
    if (!present[b]) continue;
    const double exact = static_cast<double>(*count) * kTripBins[b].weight /
                         static_cast<double>(weight_sum);
    quota[b] = static_cast<int64_t>(std::floor(exact));
    remainder[b] = exact - static_cast<double>(quota[b]);
    assigned += quota[b];
  }
  while (assigned < *count) {
    const int b = static_cast<int>(
        std::max_element(remainder, remainder + kNumBins) - remainder);
    ++quota[b];
    remainder[b] = -1.0;
    ++assigned;
  }

  struct Od {
    LatLng s, t;
    NodeId snap_s = kInvalidNode;
    NodeId snap_t = kInvalidNode;
    long minutes = 0;
    int bin = -1;
  };
  std::vector<Od> ods;
  int64_t filled[kNumBins] = {0, 0, 0};
  const int64_t max_sources = 400 * *count;
  for (int64_t attempt = 0; attempt < max_sources &&
                            static_cast<int64_t>(ods.size()) < *count;
       ++attempt) {
    const auto u = static_cast<NodeId>(rng.NextUint64(n));
    auto tree = dijkstra.BuildTree(u, weights, SearchDirection::kForward);
    if (!tree.ok()) continue;
    for (int b = 0; b < kNumBins; ++b) {
      if (filled[b] >= quota[b]) continue;
      std::vector<NodeId> candidates;
      for (NodeId v = 0; v < net.num_nodes(); ++v) {
        if (v != u && tree->Reached(v) && BinOf(tree->dist[v] / 60.0) == b) {
          candidates.push_back(v);
        }
      }
      if (candidates.empty()) continue;
      const NodeId v = candidates[rng.NextUint64(candidates.size())];
      Od od;
      od.s = Click(net, u, &rng, 20.0);
      od.t = Click(net, v, &rng, 20.0);
      auto snap_s = index.Nearest(od.s);
      auto snap_t = index.Nearest(od.t);
      if (!snap_s.ok() || !snap_t.ok() || *snap_s == *snap_t) continue;
      od.snap_s = *snap_s;
      od.snap_t = *snap_t;
      auto route = dijkstra.ShortestPath(od.snap_s, od.snap_t, weights);
      if (!route.ok() || !(route->cost < kInfCost)) continue;
      od.bin = BinOf(route->cost / 60.0);
      if (od.bin < 0 || filled[od.bin] >= quota[od.bin]) continue;
      od.minutes = std::lround(route->cost / 60.0);
      ++filled[od.bin];
      ods.push_back(od);
    }
  }
  if (static_cast<int64_t>(ods.size()) < *count) {
    std::fprintf(stderr, "plan: only %zu of %lld ODs found for %s\n",
                 ods.size(), static_cast<long long>(*count), city.c_str());
    return 1;
  }
  const BoundingBox& bb = net.bounds();
  std::printf("city\t%s\t%zu\t%zu\n", city.c_str(), net.num_nodes(),
              net.num_edges());
  std::printf("bounds\t%.7f\t%.7f\t%.7f\t%.7f\n", bb.min_lat, bb.min_lng,
              bb.max_lat, bb.max_lng);
  for (const Od& od : ods) {
    std::printf("od\t%.6f\t%.6f\t%.6f\t%.6f\t%ld\t%d\t%u\t%u\n", od.s.lat,
                od.s.lng, od.t.lat, od.t.lng, od.minutes, od.bin, od.snap_s,
                od.snap_t);
  }
  return 0;
}

// -------------------------------------------------------------- replay ---

/// Spans kept in memory and written out once the replay ends. A null
/// recorder records nothing, so the untraced passes pay no span cost.
class SpanRecorder {
 public:
  struct Span {
    int parent = -1;
    std::string pass;
    std::string request;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::string attrs;
  };

  /// Opens a span as a child of the innermost open one and closes it when
  /// it leaves scope.
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string_view name) : rec_(rec) {
      if (rec_ == nullptr) return;
      index_ = static_cast<int>(rec_->spans_.size());
      Span span;
      span.parent = rec_->open_.empty() ? -1 : rec_->open_.back();
      span.pass = rec_->pass_;
      span.request = rec_->request_;
      span.name = std::string(name);
      span.start_ns = rec_->Now();
      rec_->spans_.push_back(std::move(span));
      rec_->open_.push_back(index_);
    }
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void End() {
      if (rec_ == nullptr || ended_) return;
      ended_ = true;
      rec_->spans_[static_cast<size_t>(index_)].end_ns = rec_->Now();
      rec_->open_.pop_back();
    }
    void Attr(std::string_view key, uint64_t value) {
      if (rec_ == nullptr) return;
      std::string& attrs = rec_->spans_[static_cast<size_t>(index_)].attrs;
      if (!attrs.empty()) attrs += ',';
      attrs += std::string(key) + "=" + std::to_string(value);
    }

   private:
    SpanRecorder* rec_;
    int index_ = -1;
    bool ended_ = false;
  };

  void set_pass(std::string pass) { pass_ = std::move(pass); }
  void set_request(std::string request) { request_ = std::move(request); }

  void Write(std::ostream& out) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "span\t" << s.pass << '\t' << i << '\t' << s.parent << '\t'
          << s.request << '\t' << s.name << '\t' << s.start_ns << '\t'
          << s.end_ns << '\t' << (s.attrs.empty() ? "-" : s.attrs) << '\n';
    }
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::string pass_;
  std::string request_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct RouteOp {
  std::string request;
  std::string city;
  LatLng source;
  LatLng target;
};

struct ReplaySpec {
  double scale = 1.0;
  size_t contexts = 1;
  int setup_reps = 1;
  /// Cities the workload serves, built by citygen at `scale`.
  std::vector<std::string> cities;
  std::string ratings_file;
  std::string work_dir;
  std::string reload_city;
  int reloads = 0;
  /// Ops in schedule order: an index into `routes` (>= 0) or into `rates`
  /// encoded as -1 - index.
  std::vector<int> ops;
  std::vector<RouteOp> routes;
  std::vector<std::pair<std::string, RatingSubmission>> rates;
};

/// One directive per line, tab separated:
///   scale S | contexts N | setup_reps N
///   city CITY | ratings PATH | work_dir DIR
///   reload CITY COUNT
///   route ID CITY SLAT SLNG TLAT TLNG
///   rate ID A B C D RESIDENT
Result<ReplaySpec> ParseSpec(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open spec " + path);
  ReplaySpec spec;
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> f = Split(line, '\t');
    if (f.empty() || f[0].empty()) continue;
    const std::string& kind = f[0];
    auto num = [&](size_t i) -> Result<double> {
      if (i >= f.size()) return Status::InvalidArgument("short line: " + line);
      return ParseDouble(f[i]);
    };
    if (kind == "scale" && f.size() == 2) {
      ALTROUTE_ASSIGN_OR_RETURN(spec.scale, num(1));
    } else if (kind == "contexts" && f.size() == 2) {
      ALTROUTE_ASSIGN_OR_RETURN(double v, num(1));
      spec.contexts = static_cast<size_t>(v);
    } else if (kind == "setup_reps" && f.size() == 2) {
      ALTROUTE_ASSIGN_OR_RETURN(double v, num(1));
      spec.setup_reps = static_cast<int>(v);
    } else if (kind == "city" && f.size() == 2) {
      spec.cities.push_back(f[1]);
    } else if (kind == "ratings" && f.size() == 2) {
      spec.ratings_file = f[1];
    } else if (kind == "work_dir" && f.size() == 2) {
      spec.work_dir = f[1];
    } else if (kind == "reload" && f.size() == 3) {
      spec.reload_city = f[1];
      ALTROUTE_ASSIGN_OR_RETURN(double v, num(2));
      spec.reloads = static_cast<int>(v);
    } else if (kind == "route" && f.size() == 7) {
      RouteOp op;
      op.request = f[1];
      op.city = f[2];
      ALTROUTE_ASSIGN_OR_RETURN(op.source.lat, num(3));
      ALTROUTE_ASSIGN_OR_RETURN(op.source.lng, num(4));
      ALTROUTE_ASSIGN_OR_RETURN(op.target.lat, num(5));
      ALTROUTE_ASSIGN_OR_RETURN(op.target.lng, num(6));
      spec.ops.push_back(static_cast<int>(spec.routes.size()));
      spec.routes.push_back(std::move(op));
    } else if (kind == "rate" && f.size() == 7) {
      RatingSubmission sub;
      for (size_t i = 0; i < sub.ratings.size(); ++i) {
        ALTROUTE_ASSIGN_OR_RETURN(double v, num(2 + i));
        sub.ratings[i] = static_cast<int>(v);
      }
      sub.melbourne_resident = f[6] == "1";
      spec.ops.push_back(-1 - static_cast<int>(spec.rates.size()));
      spec.rates.emplace_back(f[1], sub);
    } else {
      return Status::InvalidArgument("bad spec line: " + line);
    }
  }
  if (spec.cities.empty() || spec.work_dir.empty()) {
    return Status::InvalidArgument("spec needs a city and a work_dir");
  }
  return spec;
}

/// The serving data plane exactly as `serve --ch` builds it.
NetworkManager::Options ServeOptions(size_t contexts) {
  NetworkManager::Options opts;
  opts.contexts_per_city = contexts;
  opts.build_ch = true;
  opts.enable_breakers = true;
  return opts;
}

NetworkManager::Loader CitygenLoader(const std::string& city, double scale) {
  return [city, scale]() -> Result<std::shared_ptr<RoadNetwork>> {
    ALTROUTE_ASSIGN_OR_RETURN(citygen::CitySpec spec, ScaledSpec(city, scale));
    return citygen::BuildCityNetwork(spec);
  };
}

/// Setup layers, one city: citygen build, file load, validation, CH build
/// and the whole NetworkManager::AddCity, each under its own span.
Status TraceSetup(const ReplaySpec& spec, const std::string& city,
                  SpanRecorder* rec) {
  ALTROUTE_ASSIGN_OR_RETURN(citygen::CitySpec city_spec,
                            ScaledSpec(city, spec.scale));
  const std::string file = spec.work_dir + "/setup_" + city + ".bin";
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    rec->set_request("setup:" + city + ":" + std::to_string(rep));
    SpanRecorder::Scope root(rec, "setup");
    std::shared_ptr<RoadNetwork> built;
    {
      SpanRecorder::Scope span(rec, "citygen.build_city_network");
      ALTROUTE_ASSIGN_OR_RETURN(built, citygen::BuildCityNetwork(city_spec));
    }
    ALTROUTE_RETURN_NOT_OK(NetworkSerializer::SaveToFile(*built, file));
    std::shared_ptr<RoadNetwork> loaded;
    {
      SpanRecorder::Scope span(rec, "graph.load_from_file");
      ALTROUTE_ASSIGN_OR_RETURN(loaded, NetworkSerializer::LoadFromFile(file));
    }
    {
      SpanRecorder::Scope span(rec, "graph.validate");
      const ValidationReport report = GraphValidator().Validate(*loaded);
      if (!report.ok()) return report.ToStatus();
    }
    const std::vector<double> weights = FreeFlowModel().Weights(*loaded);
    {
      SpanRecorder::Scope span(rec, "routing.ch_build");
      ALTROUTE_ASSIGN_OR_RETURN(auto ch,
                                ContractionHierarchy::Build(loaded, weights));
      span.Attr("shortcuts", ch->num_shortcuts());
    }
    {
      NetworkManager manager(ServeOptions(spec.contexts));
      SpanRecorder::Scope span(rec, "network_manager.add_city");
      ALTROUTE_RETURN_NOT_OK(
          manager.AddCity(city, CitygenLoader(city, spec.scale)));
    }
  }
  return Status::OK();
}

/// The same public calls `DemoService::HandleRoute` makes, one span each.
Status ServeRoute(NetworkManager& manager, const RouteOp& op,
                  SpanRecorder* rec) {
  SpanRecorder::Scope root(rec, "serve");
  Result<std::shared_ptr<const NetworkSnapshot>> snapshot =
      Status::Internal("unset");
  {
    SpanRecorder::Scope span(rec, "network_manager.get_snapshot");
    snapshot = manager.GetSnapshot(op.city);
  }
  if (!snapshot.ok()) return snapshot.status();
  obs::RequestProfile profile;
  std::unique_ptr<QueryProcessorPool::Lease> lease;
  {
    SpanRecorder::Scope span(rec, "query_processor_pool.acquire");
    lease = std::make_unique<QueryProcessorPool::Lease>(
        (*snapshot)->pool->Acquire());
  }
  Result<QueryResponse> response = Status::Internal("unset");
  {
    SpanRecorder::Scope span(rec, "query_processor.process");
    response = (*lease)->Process(op.source, op.target, nullptr,
                                  Deadline::AfterSeconds(10.0), &profile);
    span.End();
    // The phases Process() timed itself in this same call; what the span
    // holds beyond them is its unattributed remainder.
    uint64_t phases_ns = 0;
    for (const obs::RequestProfile::Phase& phase : profile.phases()) {
      phases_ns += static_cast<uint64_t>(std::llround(phase.seconds * 1e9));
    }
    span.Attr("phases_ns", phases_ns);
  }
  if (!response.ok()) return response.status();
  std::string body;
  {
    SpanRecorder::Scope span(rec, "query_processor.to_json");
    body = (*lease)->ToJson(*response, nullptr, &profile, op.request);
  }
  if (body.empty()) return Status::Internal("empty body");
  return Status::OK();
}

/// Per-city objects for the decomposed ("layers") pass: the engines of
/// EngineSuite::MakePaperSuite over the snapshot's hierarchy, a snapping
/// index and the display weights, rebuilt whenever the snapshot changes.
struct LayerContext {
  std::shared_ptr<const NetworkSnapshot> snapshot;
  std::shared_ptr<const std::vector<double>> display;
  std::unique_ptr<SpatialIndex> index;
  std::unique_ptr<EngineSuite> suite;
};

Status RefreshLayers(const NetworkManager& manager, const std::string& city,
                     LayerContext* ctx) {
  ALTROUTE_ASSIGN_OR_RETURN(auto snapshot, manager.GetSnapshot(city));
  if (ctx->snapshot == snapshot) return Status::OK();
  ctx->snapshot = snapshot;
  // Aliasing pointer: the network lives as long as the snapshot does.
  std::shared_ptr<const RoadNetwork> net(snapshot, &snapshot->network());
  ctx->display = std::make_shared<const std::vector<double>>(
      FreeFlowModel().Weights(*net));
  ctx->index = std::make_unique<SpatialIndex>(net->coords());
  ALTROUTE_ASSIGN_OR_RETURN(
      EngineSuite suite, EngineSuite::MakePaperSuite(net, AlternativeOptions{},
                                                     3, ctx->display,
                                                     snapshot->ch));
  ctx->suite = std::make_unique<EngineSuite>(std::move(suite));
  return Status::OK();
}

/// What QueryProcessor::Process does, split into the public calls it is made
/// of: snap (SpatialIndex::Nearest), each engine's Generate, and render
/// (PathCoords, SimplifyPolyline, EncodePolyline).
Status LayerRoute(LayerContext& ctx, const RouteOp& op, SpanRecorder* rec) {
  SpanRecorder::Scope root(rec, "layers");
  const RoadNetwork& net = ctx.suite->network();
  NodeId s = kInvalidNode;
  NodeId t = kInvalidNode;
  {
    SpanRecorder::Scope snap(rec, "query_processor.snap");
    {
      SpanRecorder::Scope span(rec, "spatial_index.nearest");
      ALTROUTE_ASSIGN_OR_RETURN(s, ctx.index->Nearest(op.source));
    }
    {
      SpanRecorder::Scope span(rec, "spatial_index.nearest");
      ALTROUTE_ASSIGN_OR_RETURN(t, ctx.index->Nearest(op.target));
    }
    // The default QueryProcessor::max_snap_distance_m().
    if (HaversineMeters(op.source, net.coord(s)) > 2000.0 ||
        HaversineMeters(op.target, net.coord(t)) > 2000.0) {
      return Status::InvalidArgument("click outside the study area");
    }
  }
  for (Approach a : kAllApproaches) {
    AlternativeRouteGenerator& engine = ctx.suite->engine(a);
    obs::SearchStats stats;
    CancellationToken token(Deadline::AfterSeconds(10.0));
    Result<AlternativeSet> set = Status::Internal("unset");
    {
      SpanRecorder::Scope span(rec, "core." + engine.name() + ".generate");
      set = engine.Generate(s, t, &stats, &token);
      span.Attr("approach", static_cast<uint64_t>(a));
      span.Attr("nodes_settled", stats.nodes_settled);
      span.Attr("edges_relaxed", stats.edges_relaxed);
      span.Attr("paths_generated", stats.paths_generated);
      span.Attr("paths_rejected", stats.paths_rejected_total());
      span.Attr("routes", set.ok() ? set->routes.size() : 0);
    }
    if (!set.ok()) return set.status();
    SpanRecorder::Scope render(rec, "query_processor.render");
    for (const Path& p : set->routes) {
      const long minutes = std::lround(CostUnder(p, *ctx.display) / 60.0);
      std::vector<LatLng> coords;
      {
        SpanRecorder::Scope span(rec, "core.path_coords");
        coords = PathCoords(net, p);
      }
      std::vector<LatLng> simplified;
      {
        SpanRecorder::Scope span(rec, "geo.simplify_polyline");
        simplified = SimplifyPolyline(coords, 0.0);
      }
      std::string polyline;
      {
        SpanRecorder::Scope span(rec, "geo.encode_polyline");
        polyline = EncodePolyline(simplified);
      }
      if (minutes < 0 || polyline.empty()) {
        return Status::Internal("bad rendered route");
      }
    }
  }
  return Status::OK();
}

int CmdReplay(const std::map<std::string, std::string>& flags) {
  auto spec_or = ParseSpec(Flag(flags, "spec"));
  if (!spec_or.ok()) {
    std::fprintf(stderr, "%s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const ReplaySpec& spec = *spec_or;
  std::ofstream out(Flag(flags, "spans"));
  if (!out) {
    std::fprintf(stderr, "cannot write --spans\n");
    return 2;
  }
  auto fail = [](const std::string& what, const Status& st) {
    std::fprintf(stderr, "replay: %s: %s\n", what.c_str(),
                 st.ToString().c_str());
    return 1;
  };
  SpanRecorder rec;

  // Setup layers for all three cities at the workload's scale, so every
  // workload reports the same per-city set.
  rec.set_pass("setup");
  for (const char* city : {"melbourne", "dhaka", "copenhagen"}) {
    const Status st = TraceSetup(spec, city, &rec);
    if (!st.ok()) return fail(std::string("setup ") + city, st);
  }

  NetworkManager manager(ServeOptions(spec.contexts));
  for (const std::string& city : spec.cities) {
    const Status st = manager.AddCity(city, CitygenLoader(city, spec.scale));
    if (!st.ok()) return fail("add " + city, st);
  }

  // The serve pass: every route twice, without spans and with them, in
  // alternating order so both see the same cache state on average. The
  // difference between the two totals is the tracing overhead.
  int64_t total_ns[2] = {0, 0};
  for (size_t i = 0; i < spec.routes.size(); ++i) {
    const RouteOp& op = spec.routes[i];
    rec.set_request(op.request);
    for (size_t k = 0; k < 2; ++k) {
      const size_t traced = (i + k) % 2;
      rec.set_pass(traced ? "serve_on" : "serve_off");
      const auto begin = Clock::now();
      const Status st = ServeRoute(manager, op, traced ? &rec : nullptr);
      total_ns[traced] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - begin)
                              .count();
      if (!st.ok()) return fail("route " + op.request, st);
    }
  }
  for (size_t traced = 0; traced < 2; ++traced) {
    out << "passtime\t" << (traced ? "serve_on" : "serve_off") << '\t'
        << total_ns[traced] << '\t' << spec.routes.size() << '\n';
  }

  // The traced layers pass: every op in schedule order.
  rec.set_pass("layers");
  RatingStore ratings;
  if (!spec.ratings_file.empty()) {
    const Status st = ratings.AttachFile(spec.ratings_file);
    if (!st.ok()) return fail("ratings", st);
  }
  std::map<std::string, LayerContext> layers;
  for (int op : spec.ops) {
    if (op < 0) {
      const auto& [request, submission] =
          spec.rates[static_cast<size_t>(-1 - op)];
      rec.set_request(request);
      SpanRecorder::Scope root(&rec, "rate");
      SpanRecorder::Scope span(&rec, "rating_store.add");
      const Status st = ratings.Add(submission);
      if (!st.ok()) return fail("rate " + request, st);
      continue;
    }
    // The serve path and its decomposition run back to back, in alternating
    // order, so neither always finds the caches warmed by the other.
    const RouteOp& route = spec.routes[static_cast<size_t>(op)];
    rec.set_request(route.request);
    LayerContext& ctx = layers[route.city];
    Status st = RefreshLayers(manager, route.city, &ctx);
    if (!st.ok()) return fail("layers " + route.city, st);
    for (size_t k = 0; k < 2; ++k) {
      st = (static_cast<size_t>(op) + k) % 2 == 0
               ? ServeRoute(manager, route, &rec)
               : LayerRoute(ctx, route, &rec);
      if (!st.ok()) return fail("route " + route.request, st);
    }
  }

  rec.set_pass("reload");
  for (int i = 0; i < spec.reloads; ++i) {
    rec.set_request("reload:" + std::to_string(i));
    SpanRecorder::Scope root(&rec, "reload");
    SpanRecorder::Scope span(&rec, "network_manager.reload");
    const Status st = manager.Reload(spec.reload_city);
    if (!st.ok()) return fail("reload " + spec.reload_city, st);
  }

  rec.Write(out);
  out.flush();
  return out ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace altroute

int main(int argc, char** argv) {
  using namespace altroute::perfbench;
  altroute::SetLogLevel(altroute::LogLevel::kWarning);
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool plan|replay --flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (command == "plan") return CmdPlan(flags);
  if (command == "replay") return CmdReplay(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
