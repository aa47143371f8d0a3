// Equivalence suite for the SSVP-D+ via scan. DissimilarityGenerator and
// CommercialBaseline must return, route for route and bit for bit, what the
// straightforward scan returns: materialise every via path with MakePath,
// then test it with IsLoopless and DissimilarityToSet. That scan is kept
// below as the oracle; no production code path reaches it.
//
// The suite's shared tree pair is held to the same standard: on the study
// cities its Plateaus, Dissimilarity and Penalty return what generators with
// private pairs return, and where PHAST-derived parents may break ties
// another way (the grid multigraph) the paper's contracts hold. The
// commercial PHAST pair, over a second hierarchy, is compared with a
// Dijkstra pair set by set, and its sets are held to the contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "../testutil.h"
#include "citygen/city_generator.h"
#include "core/commercial.h"
#include "core/dissimilarity.h"
#include "core/engine_registry.h"
#include "core/filters.h"
#include "core/penalty.h"
#include "core/plateau.h"
#include "core/similarity.h"
#include "core/turn_aware_alternatives.h"
#include "routing/contraction_hierarchy.h"
#include "traffic/traffic_model.h"
#include "userstudy/participant.h"
#include "util/check.h"

namespace altroute {
namespace {

/// The reference SSVP-D+ scan: one full path and two hash-set tests per
/// via node, in ascending via-cost order.
Result<AlternativeSet> ReferenceDissimilarity(
    const RoadNetwork& net, std::span<const double> weights,
    const AlternativeOptions& options, SimilarityMeasure measure,
    NodeId source, NodeId target, obs::SearchStats* stats = nullptr,
    CancellationToken* cancel = nullptr) {
  Dijkstra dijkstra(net);
  ALTROUTE_ASSIGN_OR_RETURN(
      ShortestPathTree fwd,
      dijkstra.BuildTree(source, weights, SearchDirection::kForward,
                         kInfCost, stats, cancel));
  size_t settled = dijkstra.last_settled_count();
  ALTROUTE_ASSIGN_OR_RETURN(
      ShortestPathTree bwd,
      dijkstra.BuildTree(target, weights, SearchDirection::kBackward,
                         kInfCost, stats, cancel));
  settled += dijkstra.last_settled_count();

  if (!fwd.Reached(target)) {
    return Status::NotFound("target unreachable from source");
  }

  AlternativeSet out;
  out.work_settled_nodes = settled;
  out.optimal_cost = fwd.dist[target];
  const double cost_limit = options.stretch_bound * out.optimal_cost;

  // The fastest path seeds the result set P.
  ALTROUTE_ASSIGN_OR_RETURN(std::vector<EdgeId> sp_edges,
                            fwd.PathTo(net, target));
  ALTROUTE_ASSIGN_OR_RETURN(
      Path shortest,
      MakePath(net, source, target, std::move(sp_edges), weights));
  out.routes.push_back(std::move(shortest));
  if (stats != nullptr) ++stats->paths_generated;

  // Candidate via nodes in ascending via-path length, bounded by the
  // stretch limit. Nodes unreached in either tree are excluded.
  std::vector<NodeId> candidates;
  candidates.reserve(net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!fwd.Reached(v) || !bwd.Reached(v)) continue;
    const double via = fwd.dist[v] + bwd.dist[v];
    if (via <= cost_limit + 1e-9) candidates.push_back(v);
  }
  std::sort(candidates.begin(), candidates.end(), [&](NodeId a, NodeId b) {
    const double va = fwd.dist[a] + bwd.dist[a];
    const double vb = fwd.dist[b] + bwd.dist[b];
    if (va != vb) return va < vb;
    return a < b;  // deterministic ties
  });

  for (NodeId v : candidates) {
    if (static_cast<int>(out.routes.size()) >= options.max_routes) break;
    if (cancel != nullptr && cancel->ShouldStop()) {
      out.completion =
          Status::DeadlineExceeded("via-candidate scan cut short");
      break;  // shortest path already reported; ship what we have
    }

    auto prefix_or = fwd.PathTo(net, v);
    auto suffix_or = bwd.PathTo(net, v);
    if (!prefix_or.ok() || !suffix_or.ok()) continue;
    std::vector<EdgeId> edges = std::move(prefix_or).ValueOrDie();
    const std::vector<EdgeId> suffix = std::move(suffix_or).ValueOrDie();
    edges.insert(edges.end(), suffix.begin(), suffix.end());

    auto path_or = MakePath(net, source, target, std::move(edges), weights);
    if (!path_or.ok()) continue;
    Path path = std::move(path_or).ValueOrDie();
    if (stats != nullptr) ++stats->paths_generated;

    // Via-paths whose halves share nodes contain loops; such candidates are
    // not valid simple alternatives.
    if (!IsLoopless(net, path)) {
      if (stats != nullptr) ++stats->paths_rejected_filter;
      continue;
    }

    // The defining acceptance test: dis(p, P) > theta.
    if (DissimilarityToSet(net, path, out.routes, measure) <=
        options.dissimilarity_threshold) {
      if (stats != nullptr) ++stats->paths_rejected_similarity;
      continue;
    }
    out.routes.push_back(std::move(path));
  }
  return out;
}

/// The reference Google-Maps stand-in: a PlateauGenerator and the reference
/// scan, each with its own tree pair, then the filters.h chain.
Result<AlternativeSet> ReferenceCommercial(
    const std::shared_ptr<const RoadNetwork>& net,
    const std::vector<double>& weights, const AlternativeOptions& options,
    NodeId source, NodeId target, obs::SearchStats* stats = nullptr) {
  AlternativeOptions wide = options;
  wide.max_routes = std::max(8, options.max_routes * 3);
  wide.stretch_bound = options.stretch_bound * 1.1;
  PlateauGenerator plateau(net, weights, wide);
  AlternativeOptions via_opts = wide;
  via_opts.dissimilarity_threshold =
      std::min(0.9, options.dissimilarity_threshold * 0.8);

  ALTROUTE_ASSIGN_OR_RETURN(AlternativeSet plat,
                            plateau.Generate(source, target, stats));
  AlternativeSet via;
  auto via_or = ReferenceDissimilarity(*net, weights, via_opts,
                                       SimilarityMeasure::kOverlapOverCandidate,
                                       source, target, stats);
  if (via_or.ok()) {
    via = std::move(via_or).ValueOrDie();
  } else if (!via_or.status().IsDeadlineExceeded()) {
    return via_or.status();
  }

  AlternativeSet out;
  out.optimal_cost = plat.optimal_cost;
  out.work_settled_nodes = plat.work_settled_nodes + via.work_settled_nodes;
  if (!plat.completion.ok()) {
    out.completion = plat.completion;
  } else if (!via_or.ok()) {
    out.completion = via_or.status();
  } else if (!via.completion.ok()) {
    out.completion = via.completion;
  }

  std::vector<Path> pool = std::move(plat.routes);
  for (Path& p : via.routes) {
    const bool duplicate = std::any_of(
        pool.begin(), pool.end(), [&](const Path& q) { return SameEdges(p, q); });
    if (duplicate) {
      if (stats != nullptr) ++stats->paths_rejected_similarity;
      continue;
    }
    pool.push_back(std::move(p));
  }

  const size_t before_stretch = pool.size();
  pool = PruneByStretch(pool, out.optimal_cost, options.stretch_bound, weights);
  const size_t before_similarity = pool.size();
  pool = RankPerceptually(*net, pool, out.optimal_cost, weights);
  pool = PruneBySimilarity(*net, pool, /*max_similarity=*/0.6);
  if (stats != nullptr) {
    stats->paths_rejected_stretch += before_stretch - before_similarity;
    stats->paths_rejected_similarity += before_similarity - pool.size();
  }

  if (pool.empty()) return Status::NotFound("no route found");
  if (static_cast<int>(pool.size()) > options.max_routes) {
    pool.resize(static_cast<size_t>(options.max_routes));
  }
  out.routes = std::move(pool);
  return out;
}

bool SameRoute(const Path& a, const Path& b) {
  // Exact comparisons on purpose: the sums must match bit for bit.
  return a.source == b.source && a.target == b.target && a.edges == b.edges &&
         a.cost == b.cost && a.length_m == b.length_m &&
         a.travel_time_s == b.travel_time_s;
}

/// Route-level tally over a whole suite.
struct Tally {
  int sets = 0;
  int routes = 0;
  int differing = 0;
  uint64_t generated = 0;            // paths_generated, production
  uint64_t reference_generated = 0;  // paths_generated, reference scan
};

/// `optimum_tolerance` bounds |got - want| of the optimal costs: 0 asks for
/// the same bits; trees built by PHAST sum their labels along shortcuts, so
/// their optimum may differ from Dijkstra's in the last bits.
void ExpectSameSet(const Result<AlternativeSet>& got,
                   const Result<AlternativeSet>& want,
                   const std::string& where, Tally* tally,
                   double optimum_tolerance = 0.0) {
  ++tally->sets;
  if (got.ok() != want.ok()) {
    ++tally->differing;
    ADD_FAILURE() << where << ": " << got.status() << " vs " << want.status();
    return;
  }
  if (!got.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << where;
    return;
  }
  EXPECT_NEAR(got->optimal_cost, want->optimal_cost, optimum_tolerance)
      << where;
  EXPECT_EQ(got->completion.ToString(), want->completion.ToString()) << where;
  EXPECT_EQ(got->routes.size(), want->routes.size()) << where;
  const size_t n = std::max(got->routes.size(), want->routes.size());
  for (size_t i = 0; i < n; ++i) {
    ++tally->routes;
    const bool same = i < got->routes.size() && i < want->routes.size() &&
                      SameRoute(got->routes[i], want->routes[i]);
    if (!same) ++tally->differing;
    EXPECT_TRUE(same) << where << " route " << i;
  }
}

void Report(const char* suite, const Tally& tally) {
  std::printf("%s: %d sets, %d routes compared, %d differing; "
              "paths_generated %llu vs %llu by the reference scan\n",
              suite, tally.sets, tally.routes, tally.differing,
              static_cast<unsigned long long>(tally.generated),
              static_cast<unsigned long long>(tally.reference_generated));
}

struct Od {
  NodeId s;
  NodeId t;
};

/// Seeded ODs covering the paper's three trip bins ((0,10], (10,25] and
/// (25,80] fastest minutes on the display weights), `per_bin` each. On a
/// city built at `scale` the bins shrink with it, so each keeps its share of
/// the city's extent.
std::vector<Od> BinnedOds(const RoadNetwork& net, double scale, uint64_t seed,
                          int per_bin) {
  Dijkstra dijkstra(net);
  Rng rng(seed);
  int filled[3] = {0, 0, 0};
  std::vector<Od> ods;
  const auto wanted = static_cast<size_t>(3 * per_bin);
  for (int attempt = 0; attempt < 4000 && ods.size() < wanted; ++attempt) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net.num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net.num_nodes()));
    if (s == t) continue;
    auto sp = dijkstra.ShortestPath(s, t, net.travel_times());
    if (!sp.ok()) continue;
    const int bin = BucketOf(sp->cost / 60.0 / scale);
    if (bin < 0 || filled[bin] >= per_bin) continue;
    ++filled[bin];
    ods.push_back({s, t});
  }
  for (int bin = 0; bin < 3; ++bin) {
    EXPECT_EQ(filled[bin], per_bin) << net.name() << " trip bin " << bin;
  }
  return ods;
}

constexpr double kCityScale = 0.2;

std::shared_ptr<RoadNetwork> StudyCity(const std::string& city) {
  citygen::CitySpec spec = citygen::CopenhagenSpec();
  if (city == "melbourne") spec = citygen::MelbourneSpec();
  if (city == "dhaka") spec = citygen::DhakaSpec();
  auto net = citygen::BuildCityNetwork(citygen::Scaled(spec, kCityScale));
  ALT_CHECK(net.ok()) << net.status();
  return std::move(net).ValueOrDie();
}

constexpr double kThetas[] = {0.1, 0.4, 0.5, 0.9};
constexpr int kMaxRoutes[] = {3, 9};
constexpr SimilarityMeasure kMeasures[] = {
    SimilarityMeasure::kOverlapOverShorter, SimilarityMeasure::kJaccardByLength,
    SimilarityMeasure::kOverlapOverCandidate};

/// Every (weights, theta, measure, max_routes) combination on every OD:
/// DissimilarityGenerator against the reference scan.
void CompareDissimilarity(const std::shared_ptr<RoadNetwork>& net,
                          const std::vector<Od>& ods,
                          const std::vector<std::vector<double>>& weight_sets,
                          Tally* tally) {
  for (size_t w = 0; w < weight_sets.size(); ++w) {
    for (double theta : kThetas) {
      for (SimilarityMeasure measure : kMeasures) {
        for (int max_routes : kMaxRoutes) {
          AlternativeOptions options;
          options.dissimilarity_threshold = theta;
          options.max_routes = max_routes;
          DissimilarityGenerator gen(net, weight_sets[w], options, measure);
          for (const Od& od : ods) {
            obs::SearchStats stats, ref_stats;
            const auto got = gen.Generate(od.s, od.t, &stats);
            const auto want =
                ReferenceDissimilarity(*net, weight_sets[w], options, measure,
                                       od.s, od.t, &ref_stats);
            const std::string where =
                net->name() + " weights " + std::to_string(w) + " theta " +
                std::to_string(theta) + " measure " +
                std::to_string(static_cast<int>(measure)) + " k " +
                std::to_string(max_routes) + " od " + std::to_string(od.s) +
                "->" + std::to_string(od.t);
            ExpectSameSet(got, want, where, tally);
            // Skipped plateau-mates are never counted, so the scan can only
            // generate fewer candidates than the reference.
            EXPECT_LE(stats.paths_generated, ref_stats.paths_generated) << where;
            tally->generated += stats.paths_generated;
            tally->reference_generated += ref_stats.paths_generated;
          }
        }
      }
    }
  }
}

/// CommercialBaseline against its reference, over every (weights, theta,
/// max_routes) combination on every OD.
void CompareCommercial(const std::shared_ptr<RoadNetwork>& net,
                       const std::vector<Od>& ods,
                       const std::vector<std::vector<double>>& weight_sets,
                       Tally* tally) {
  for (size_t w = 0; w < weight_sets.size(); ++w) {
    for (double theta : kThetas) {
      for (int max_routes : kMaxRoutes) {
        AlternativeOptions options;
        options.dissimilarity_threshold = theta;
        options.max_routes = max_routes;
        CommercialBaseline gen(net, weight_sets[w], options);
        for (const Od& od : ods) {
          obs::SearchStats stats, ref_stats;
          const auto got = gen.Generate(od.s, od.t, &stats);
          const auto want = ReferenceCommercial(net, weight_sets[w], options,
                                                od.s, od.t, &ref_stats);
          const std::string where =
              net->name() + " weights " + std::to_string(w) + " theta " +
              std::to_string(theta) + " k " + std::to_string(max_routes) +
              " od " + std::to_string(od.s) + "->" + std::to_string(od.t);
          ExpectSameSet(got, want, where, tally);
          // One tree pair instead of two.
          EXPECT_EQ(2 * stats.nodes_settled, ref_stats.nodes_settled) << where;
          EXPECT_EQ(2 * stats.edges_relaxed, ref_stats.edges_relaxed) << where;
          if (got.ok() && want.ok()) {
            EXPECT_EQ(2 * got->work_settled_nodes, want->work_settled_nodes)
                << where;
          }
          tally->generated += stats.paths_generated;
          tally->reference_generated += ref_stats.paths_generated;
        }
      }
    }
  }
}

class StudyCityEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StudyCityEquivalenceTest, DissimilarityMatchesReferenceScan) {
  auto net = StudyCity(GetParam());
  const auto ods = BinnedOds(*net, kCityScale, /*seed=*/2022, /*per_bin=*/2);
  const std::vector<std::vector<double>> weight_sets = {
      testutil::Weights(*net), CommercialTrafficModel(3).Weights(*net)};
  Tally tally;
  CompareDissimilarity(net, ods, weight_sets, &tally);
  Report(("dissimilarity " + GetParam()).c_str(), tally);
  EXPECT_EQ(tally.differing, 0);
  // Plateau-mates are common on road networks: the skip must be in effect.
  EXPECT_LT(tally.generated, tally.reference_generated);
}

TEST_P(StudyCityEquivalenceTest, CommercialMatchesReferenceChain) {
  auto net = StudyCity(GetParam());
  const auto ods = BinnedOds(*net, kCityScale, /*seed=*/2022, /*per_bin=*/2);
  const std::vector<std::vector<double>> weight_sets = {
      testutil::Weights(*net), CommercialTrafficModel(3).Weights(*net)};
  Tally tally;
  CompareCommercial(net, ods, weight_sets, &tally);
  Report(("commercial " + GetParam()).c_str(), tally);
  EXPECT_EQ(tally.differing, 0);
}

/// The paper suite over a hierarchy, as `serve --ch` builds it.
struct ChSuite {
  std::shared_ptr<const std::vector<double>> display;
  std::shared_ptr<const ContractionHierarchy> ch;
  std::unique_ptr<EngineSuite> suite;
};

ChSuite MakeChSuite(const std::shared_ptr<RoadNetwork>& net,
                    std::vector<double> display) {
  ChSuite out;
  out.display = std::make_shared<const std::vector<double>>(std::move(display));
  auto ch = ContractionHierarchy::Build(net, *out.display);
  ALT_CHECK(ch.ok()) << ch.status();
  out.ch = std::move(ch).ValueOrDie();
  auto suite = EngineSuite::MakePaperSuite(net, {}, 3, out.display, out.ch);
  ALT_CHECK(suite.ok()) << suite.status();
  out.suite = std::make_unique<EngineSuite>(std::move(suite).ValueOrDie());
  return out;
}

TEST_P(StudyCityEquivalenceTest, SharedTreePairMatchesPrivatePairs) {
  auto net = StudyCity(GetParam());
  const auto ods = BinnedOds(*net, kCityScale, /*seed=*/2022, /*per_bin=*/6);
  ChSuite shared = MakeChSuite(net, FreeFlowModel().Weights(*net));
  const std::vector<double>& display = *shared.display;
  // Private pairs: PHAST for plateau_ch and penalty_ch, Dijkstra trees for
  // the CH-less Dissimilarity.
  PlateauGenerator plateau(net, display, shared.ch);
  DissimilarityGenerator dissimilarity(net, display);
  PenaltyGenerator penalty(net, display, shared.ch);
  const std::pair<Approach, AlternativeRouteGenerator*> lanes[] = {
      {Approach::kPlateaus, &plateau},
      {Approach::kDissimilarity, &dissimilarity},
      {Approach::kPenalty, &penalty}};
  Tally tally;
  for (const Od& od : ods) {
    // One request's order: Plateaus builds the pair, the others read it.
    for (const auto& [approach, reference] : lanes) {
      obs::SearchStats stats, ref_stats;
      const auto got =
          shared.suite->engine(approach).Generate(od.s, od.t, &stats);
      const auto want = reference->Generate(od.s, od.t, &ref_stats);
      const std::string where = net->name() + " " +
                                std::string(ApproachName(approach)) + " od " +
                                std::to_string(od.s) + "->" +
                                std::to_string(od.t);
      ExpectSameSet(got, want, where, &tally,
                    /*optimum_tolerance=*/1e-9 * std::max(1.0, want.ok()
                                                     ? want->optimal_cost
                                                     : 1.0));
      // Over identical trees the candidates match too. Dijkstra's trees may
      // tie-break elsewhere than PHAST's, which can move the scan's count
      // of plateau-mates without changing a route.
      if (approach != Approach::kDissimilarity) {
        EXPECT_EQ(stats.paths_generated, ref_stats.paths_generated) << where;
      }
      tally.generated += stats.paths_generated;
      tally.reference_generated += ref_stats.paths_generated;
    }
  }
  Report(("shared tree pair " + GetParam()).c_str(), tally);
  EXPECT_EQ(tally.differing, 0);
  // Penalty's potential is the raw backward labels, and no label lost its
  // parent on the way.
  EXPECT_EQ(shared.suite->display_trees().demotions(), 0u);
}

/// The paper's contracts on one commercial set over `weights`: route 0 is
/// the optimum, every route is within the stretch bound, loopless and
/// contiguous, and no two routes are near-duplicates.
void ExpectCommercialContracts(const RoadNetwork& net,
                               const std::vector<double>& weights,
                               const AlternativeSet& set, double optimum,
                               const AlternativeOptions& options,
                               const std::string& where) {
  ASSERT_FALSE(set.routes.empty()) << where;
  EXPECT_LE(set.routes.size(), static_cast<size_t>(options.max_routes)) << where;
  const double tolerance = 1e-9 * std::max(1.0, optimum);
  EXPECT_NEAR(set.optimal_cost, optimum, tolerance) << where;
  EXPECT_NEAR(set.routes[0].cost, optimum, tolerance) << where;
  for (size_t i = 0; i < set.routes.size(); ++i) {
    const Path& p = set.routes[i];
    const std::string route = where + " route " + std::to_string(i);
    EXPECT_LE(p.cost, options.stretch_bound * optimum + 1e-6) << route;
    EXPECT_TRUE(IsLoopless(net, p)) << route;
    EXPECT_TRUE(MakePath(net, p.source, p.target, p.edges, weights).ok())
        << route << " is not contiguous";
    for (size_t j = 0; j < i; ++j) {
      EXPECT_LE(Similarity(net, p, set.routes[j],
                           SimilarityMeasure::kOverlapOverShorter),
                0.6 + 1e-9)
          << route << " vs " << j;
    }
  }
}

// The served Commercial reads a PHAST pair over the commercial weights
// contracted in the display hierarchy's order. PHAST-derived parents may
// break exact-cost ties another way than Dijkstra's, so the final sets are
// compared with those over a Dijkstra pair and the differing ones counted,
// and every set is held to the paper's contracts.
TEST_P(StudyCityEquivalenceTest, CommercialPhastPairMatchesDijkstraPair) {
  auto net = StudyCity(GetParam());
  const auto ods = BinnedOds(*net, kCityScale, /*seed=*/2022, /*per_bin=*/10);
  ChSuite shared = MakeChSuite(net, FreeFlowModel().Weights(*net));
  const std::vector<double> commercial = CommercialTrafficModel(3).Weights(*net);
  Dijkstra dijkstra(*net);
  int sets = 0;
  int differing = 0;
  for (double theta : kThetas) {
    for (int max_routes : kMaxRoutes) {
      AlternativeOptions options;
      options.dissimilarity_threshold = theta;
      options.max_routes = max_routes;
      auto suite = EngineSuite::MakePaperSuite(net, options, 3, shared.display,
                                               shared.ch);
      ASSERT_TRUE(suite.ok()) << suite.status();
      ASSERT_TRUE(suite->commercial_trees().has_hierarchy());
      ASSERT_EQ(suite->commercial_trees().weights(), commercial);
      AlternativeRouteGenerator& served = suite->engine(Approach::kGoogleMaps);
      CommercialBaseline reference(net, commercial, options);
      for (const Od& od : ods) {
        const std::string where = net->name() + " theta " +
                                  std::to_string(theta) + " k " +
                                  std::to_string(max_routes) + " od " +
                                  std::to_string(od.s) + "->" +
                                  std::to_string(od.t);
        obs::SearchStats stats, ref_stats;
        const auto got = served.Generate(od.s, od.t, &stats);
        const auto want = reference.Generate(od.s, od.t, &ref_stats);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status();
        ASSERT_TRUE(want.ok()) << where << ": " << want.status();
        auto optimum = dijkstra.ShortestPath(od.s, od.t, commercial);
        ASSERT_TRUE(optimum.ok()) << where;
        ExpectCommercialContracts(*net, commercial, *got, optimum->cost,
                                  options, where);
        // Two sweeps whose upward searches settle a small part of what the
        // two Dijkstra trees settle.
        EXPECT_EQ(stats.trees_built, 2u) << where;
        EXPECT_LT(2 * stats.nodes_settled, ref_stats.nodes_settled) << where;
        ++sets;
        const bool same =
            got->routes.size() == want->routes.size() &&
            std::equal(got->routes.begin(), got->routes.end(),
                       want->routes.begin(),
                       [](const Path& a, const Path& b) {
                         return a.edges == b.edges;
                       });
        if (!same) ++differing;
      }
      EXPECT_EQ(suite->commercial_trees().demotions(), 0u);
    }
  }
  std::printf("commercial PHAST pair %s: %d of %d final sets differ from "
              "the Dijkstra pair's\n",
              GetParam().c_str(), differing, sets);
  // Ties are rare on the study cities: a tie-break, not a broken tree.
  EXPECT_LE(20 * differing, sets);
}

INSTANTIATE_TEST_SUITE_P(Cities, StudyCityEquivalenceTest,
                         ::testing::Values("melbourne", "dhaka", "copenhagen"));

/// A multigraph on which a street's length depends on which of its edges a
/// path takes: a grid (full of equal-cost ties) whose two directions of a
/// street differ in length, and where a third of the streets get a parallel
/// twin in each direction, as fast as the original or faster, of yet another
/// length.
std::shared_ptr<RoadNetwork> ParallelTwinGrid(int rows, int cols, uint64_t seed) {
  GraphBuilder builder("parallel-twin-grid");
  builder.set_keep_parallel_edges(true);
  Rng rng(seed);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      builder.AddNode(LatLng(0.004 * r, 0.004 * c));
    }
  }
  const auto length = [&] { return 380.0 + 40.0 * rng.Uniform(0.0, 1.0); };
  const auto street = [&](NodeId a, NodeId b) {
    builder.AddEdge(a, b, length(), 60.0);
    builder.AddEdge(b, a, length(), 60.0);
    if (rng.NextUint64(3) == 0) {
      const double twin_s = rng.NextUint64(2) == 0 ? 60.0 : 57.0;
      builder.AddEdge(a, b, length(), twin_s);
      builder.AddEdge(b, a, length(), twin_s);
    }
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const auto v = static_cast<NodeId>(r * cols + c);
      if (c + 1 < cols) street(v, v + 1);
      if (r + 1 < rows) street(v, static_cast<NodeId>(v + cols));
    }
  }
  auto net = builder.Build();
  ALT_CHECK(net.ok()) << net.status();
  return std::move(net).ValueOrDie();
}

TEST(DissimilarityEquivalenceTest, MultigraphMatchesReference) {
  auto net = ParallelTwinGrid(9, 9, /*seed=*/5);
  ASSERT_GT(net->num_edges(), 4u * 8u * 9u);  // twins were kept
  std::vector<Od> ods;
  Rng rng(17);
  while (ods.size() < 12) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s != t) ods.push_back({s, t});
  }
  const std::vector<std::vector<double>> weight_sets = {
      testutil::Weights(*net), CommercialTrafficModel(3).Weights(*net)};
  Tally tally;
  CompareDissimilarity(net, ods, weight_sets, &tally);
  CompareCommercial(net, ods, weight_sets, &tally);
  Report("multigraph", tally);
  EXPECT_EQ(tally.differing, 0);
}

// On a grid full of equal-cost ties, PHAST-derived parents may pick another
// of two equally short paths than Dijkstra does, so the shared pair's routes
// are held to the paper's contracts rather than to the Dijkstra trees' sets.
TEST(DissimilarityEquivalenceTest, MultigraphSharedTreePairKeepsContracts) {
  auto net = ParallelTwinGrid(9, 9, /*seed=*/5);
  ChSuite shared = MakeChSuite(net, testutil::Weights(*net));
  const std::vector<double>& display = *shared.display;
  const AlternativeOptions options;
  Dijkstra dijkstra(*net);
  Rng rng(17);
  int sets = 0;
  while (sets < 12) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s == t) continue;
    ++sets;
    auto optimum = dijkstra.ShortestPath(s, t, display);
    ASSERT_TRUE(optimum.ok());
    for (Approach a : {Approach::kPlateaus, Approach::kDissimilarity,
                       Approach::kPenalty}) {
      const std::string where = std::string(ApproachName(a)) + " od " +
                                std::to_string(s) + "->" + std::to_string(t);
      auto set = shared.suite->engine(a).Generate(s, t);
      ASSERT_TRUE(set.ok()) << where << ": " << set.status();
      ASSERT_FALSE(set->routes.empty()) << where;
      EXPECT_NEAR(set->routes[0].cost, optimum->cost, 1e-6) << where;
      for (size_t i = 0; i < set->routes.size(); ++i) {
        const Path& p = set->routes[i];
        EXPECT_LE(p.cost, options.stretch_bound * optimum->cost + 1e-6)
            << where << " route " << i;
        EXPECT_TRUE(IsLoopless(*net, p)) << where << " route " << i;
        EXPECT_TRUE(MakePath(*net, s, t, p.edges, display).ok())
            << where << " route " << i << " is not contiguous";
        if (a == Approach::kDissimilarity && i > 0) {
          const std::span<const Path> before(set->routes.data(), i);
          EXPECT_GT(DissimilarityToSet(*net, p, before),
                    options.dissimilarity_threshold)
              << where << " route " << i;
        }
      }
    }
  }
  EXPECT_EQ(shared.suite->display_trees().demotions(), 0u);
}

TEST(DissimilarityEquivalenceTest, TurnExpandedNetworkMatchesReference) {
  // The network TurnAwareAlternatives runs its inner generator on: gateway
  // nodes, one state node per original edge and epsilon arrival arcs.
  auto city = citygen::BuildCityNetwork(
      citygen::Scaled(citygen::CopenhagenSpec(), 0.1));
  ASSERT_TRUE(city.ok());
  auto expansion = TurnExpandedNetwork::Build(**city);
  ASSERT_TRUE(expansion.ok());
  const auto& net = expansion->expanded;
  std::vector<Od> ods;
  Rng rng(23);
  while (ods.size() < 6) {
    const auto s = static_cast<NodeId>(rng.NextUint64((*city)->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64((*city)->num_nodes()));
    if (s != t) ods.push_back({expansion->out_gateway[s], expansion->in_gateway[t]});
  }
  const std::vector<std::vector<double>> weight_sets = {testutil::Weights(*net)};
  Tally tally;
  CompareDissimilarity(net, ods, weight_sets, &tally);
  CompareCommercial(net, ods, weight_sets, &tally);
  Report("turn-expanded", tally);
  EXPECT_EQ(tally.differing, 0);
}

}  // namespace
}  // namespace altroute
