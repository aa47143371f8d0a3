// Equivalence suite for the SSVP-D+ via scan. DissimilarityGenerator and
// CommercialBaseline must return, route for route and bit for bit, what the
// straightforward scan returns: materialise every via path with MakePath,
// then test it with IsLoopless and DissimilarityToSet. That scan is kept
// below as the oracle; no production code path reaches it.
//
// On the study cities the oracle reads Dijkstra trees, so the generators'
// PHAST-built trees are held to the same routes as well. Inputs full of
// exact ties or last-bit via costs, where the two tree builders may break a
// tie differently, hand the oracle the generator's own trees instead: there
// the suite pins the scan, not the trees. The suite's shared tree pair is
// held to the same standard: on the study cities its Plateaus,
// Dissimilarity and Penalty return what generators with private pairs
// return, and on the grid multigraph the paper's contracts hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "../testutil.h"
#include "core/commercial.h"
#include "core/dissimilarity.h"
#include "core/engine_registry.h"
#include "core/filters.h"
#include "core/penalty.h"
#include "core/plateau.h"
#include "core/similarity.h"
#include "core/turn_aware_alternatives.h"
#include "routing/contraction_hierarchy.h"
#include "study_ods.h"
#include "traffic/traffic_model.h"
#include "util/check.h"

namespace altroute {
namespace {

using testutil::Od;

/// The forward tree from s and the backward tree to t the oracle reads.
struct TreesRead {
  ShortestPathTree fwd;
  ShortestPathTree bwd;
};

/// Two Dijkstra trees for s -> t, counted in `stats` as two trees built.
Result<TreesRead> DijkstraTrees(const RoadNetwork& net,
                                std::span<const double> weights, NodeId source,
                                NodeId target, obs::SearchStats* stats) {
  Dijkstra dijkstra(net);
  TreesRead trees;
  ALTROUTE_ASSIGN_OR_RETURN(
      trees.fwd, dijkstra.BuildTree(source, weights, SearchDirection::kForward,
                                    kInfCost, stats));
  ALTROUTE_ASSIGN_OR_RETURN(
      trees.bwd, dijkstra.BuildTree(target, weights, SearchDirection::kBackward,
                                    kInfCost, stats));
  if (stats != nullptr) stats->trees_built += 2;
  return trees;
}

/// The reference SSVP-D+ scan over `trees`: one full path and two hash-set
/// tests per via node, in ascending via-cost order.
Result<AlternativeSet> ReferenceDissimilarity(
    const RoadNetwork& net, std::span<const double> weights,
    const TreesRead& trees, const AlternativeOptions& options,
    SimilarityMeasure measure, obs::SearchStats* stats = nullptr) {
  const ShortestPathTree& fwd = trees.fwd;
  const ShortestPathTree& bwd = trees.bwd;
  const NodeId source = fwd.root;
  const NodeId target = bwd.root;
  if (!fwd.Reached(target)) {
    return Status::NotFound("target unreachable from source");
  }

  AlternativeSet out;
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

/// The reference Google-Maps stand-in: PlateauScan and the reference scan,
/// each over trees of its own, then the filters.h chain. `via_trees` gives
/// the via stage's trees; it is called only once the plateau stage has
/// found a route.
Result<AlternativeSet> ReferenceCommercial(
    const RoadNetwork& net, const std::vector<double>& weights,
    const AlternativeOptions& options, const TreesRead& plateau_trees,
    const std::function<Result<TreesRead>()>& via_trees,
    obs::SearchStats* stats = nullptr) {
  AlternativeOptions wide = options;
  wide.max_routes = std::max(8, options.max_routes * 3);
  wide.stretch_bound = options.stretch_bound * 1.1;
  AlternativeOptions via_opts = wide;
  via_opts.dissimilarity_threshold =
      std::min(0.9, options.dissimilarity_threshold * 0.8);

  PlateauScan plateau;
  ALTROUTE_ASSIGN_OR_RETURN(
      AlternativeSet plat, plateau.Run(net, weights, plateau_trees.fwd,
                                       plateau_trees.bwd, wide, stats));
  ALTROUTE_ASSIGN_OR_RETURN(TreesRead via_read, via_trees());
  ALTROUTE_ASSIGN_OR_RETURN(
      AlternativeSet via,
      ReferenceDissimilarity(net, weights, via_read, via_opts,
                             SimilarityMeasure::kOverlapOverCandidate, stats));

  AlternativeSet out;
  out.optimal_cost = plat.optimal_cost;

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
  pool = RankPerceptually(net, pool, out.optimal_cost, weights);
  pool = PruneBySimilarity(net, pool, /*max_similarity=*/0.6);
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

constexpr double kCityScale = 0.2;

constexpr double kThetas[] = {0.1, 0.4, 0.5, 0.9};
constexpr int kMaxRoutes[] = {3, 9};
constexpr SimilarityMeasure kMeasures[] = {
    SimilarityMeasure::kOverlapOverShorter, SimilarityMeasure::kJaccardByLength,
    SimilarityMeasure::kOverlapOverCandidate};

/// Which trees the oracle reads.
enum class Oracle {
  /// Its own, built by Dijkstra: the generator's trees are held to the same
  /// routes too.
  kDijkstraTrees,
  /// The generator's, as its tree pair holds them after Generate: only the
  /// scan is compared.
  kGeneratorTrees,
};

/// The trees the oracle reads for `od`; Dijkstra trees count into `stats`.
Result<TreesRead> ReadTrees(Oracle oracle, const RoadNetwork& net,
                            std::span<const double> weights,
                            const TreePair& trees, const Od& od,
                            obs::SearchStats* stats) {
  if (oracle == Oracle::kGeneratorTrees) {
    return TreesRead{trees.forward(), trees.backward()};
  }
  return DijkstraTrees(net, weights, od.s, od.t, stats);
}

/// The optimum tolerance for ExpectSameSet: the generator's own trees give
/// the same bits; Dijkstra's optimum may differ from PHAST's labels, summed
/// along shortcuts, in the last bits.
double OptimumTolerance(Oracle oracle, const Result<AlternativeSet>& want) {
  if (oracle == Oracle::kGeneratorTrees || !want.ok()) return 0.0;
  return 1e-9 * std::max(1.0, want->optimal_cost);
}

std::string Where(const RoadNetwork& net, size_t w, const AlternativeOptions& o,
                  const Od& od) {
  return net.name() + " weights " + std::to_string(w) + " theta " +
         std::to_string(o.dissimilarity_threshold) + " k " +
         std::to_string(o.max_routes) + " od " + std::to_string(od.s) + "->" +
         std::to_string(od.t);
}

/// Every (weights, theta, measure, max_routes) combination on every OD:
/// DissimilarityGenerator against the reference scan.
void CompareDissimilarity(const std::shared_ptr<RoadNetwork>& net,
                          const std::vector<Od>& ods,
                          const std::vector<std::vector<double>>& weight_sets,
                          Oracle oracle, Tally* tally) {
  for (size_t w = 0; w < weight_sets.size(); ++w) {
    const auto ch = testutil::Hierarchy(net, weight_sets[w]);
    for (double theta : kThetas) {
      for (SimilarityMeasure measure : kMeasures) {
        for (int max_routes : kMaxRoutes) {
          AlternativeOptions options;
          options.dissimilarity_threshold = theta;
          options.max_routes = max_routes;
          const auto trees = std::make_shared<TreePair>(ch);
          DissimilarityGenerator gen(trees, options, measure);
          for (const Od& od : ods) {
            obs::SearchStats stats, ref_stats;
            const auto got = gen.Generate(od.s, od.t, &stats);
            const auto read =
                ReadTrees(oracle, *net, weight_sets[w], *trees, od, &ref_stats);
            const Result<AlternativeSet> want =
                read.ok() ? ReferenceDissimilarity(*net, weight_sets[w], *read,
                                                   options, measure, &ref_stats)
                          : read.status();
            const std::string where =
                Where(*net, w, options, od) + " measure " +
                std::to_string(static_cast<int>(measure));
            ExpectSameSet(got, want, where, tally,
                          OptimumTolerance(oracle, want));
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
                       Oracle oracle, Tally* tally) {
  for (size_t w = 0; w < weight_sets.size(); ++w) {
    const auto ch = testutil::Hierarchy(net, weight_sets[w]);
    for (double theta : kThetas) {
      for (int max_routes : kMaxRoutes) {
        AlternativeOptions options;
        options.dissimilarity_threshold = theta;
        options.max_routes = max_routes;
        const auto trees = std::make_shared<TreePair>(ch);
        CommercialBaseline gen(trees, options);
        for (const Od& od : ods) {
          obs::SearchStats stats, ref_stats;
          const auto got = gen.Generate(od.s, od.t, &stats);
          const auto read = [&] {
            return ReadTrees(oracle, *net, weight_sets[w], *trees, od,
                             &ref_stats);
          };
          const auto plateau_trees = read();
          const Result<AlternativeSet> want =
              plateau_trees.ok()
                  ? ReferenceCommercial(*net, weight_sets[w], options,
                                        *plateau_trees, read, &ref_stats)
                  : plateau_trees.status();
          const std::string where = Where(*net, w, options, od);
          ExpectSameSet(got, want, where, tally, OptimumTolerance(oracle, want));
          // One tree pair instead of two. An unreachable target stops the
          // reference at its plateau stage, on its first pair, as it stops
          // the generator.
          EXPECT_EQ(stats.trees_built, 2u) << where;
          if (oracle == Oracle::kDijkstraTrees) {
            EXPECT_EQ(ref_stats.trees_built,
                      want.status().IsNotFound() ? 2u : 4u)
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
  auto net = testutil::StudyCity(GetParam(), kCityScale);
  const auto ods =
      testutil::BinnedOds(*net, kCityScale, /*seed=*/2022, /*per_bin=*/2);
  const std::vector<std::vector<double>> weight_sets = {
      testutil::Weights(*net), CommercialTrafficModel(3).Weights(*net)};
  Tally tally;
  CompareDissimilarity(net, ods, weight_sets, Oracle::kDijkstraTrees, &tally);
  Report(("dissimilarity " + GetParam()).c_str(), tally);
  EXPECT_EQ(tally.differing, 0);
  // Plateau-mates are common on road networks: the skip must be in effect.
  EXPECT_LT(tally.generated, tally.reference_generated);
}

TEST_P(StudyCityEquivalenceTest, CommercialMatchesReferenceChain) {
  auto net = testutil::StudyCity(GetParam(), kCityScale);
  const auto ods =
      testutil::BinnedOds(*net, kCityScale, /*seed=*/2022, /*per_bin=*/2);
  const std::vector<std::vector<double>> weight_sets = {
      testutil::Weights(*net), CommercialTrafficModel(3).Weights(*net)};
  Tally tally;
  CompareCommercial(net, ods, weight_sets, Oracle::kDijkstraTrees, &tally);
  Report(("commercial " + GetParam()).c_str(), tally);
  EXPECT_EQ(tally.differing, 0);
}

/// The paper suite over a hierarchy, as a served snapshot builds it.
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
  auto net = testutil::StudyCity(GetParam(), kCityScale);
  const auto ods =
      testutil::BinnedOds(*net, kCityScale, /*seed=*/2022, /*per_bin=*/6);
  ChSuite shared = MakeChSuite(net, FreeFlowModel().Weights(*net));
  // Private pairs over the same hierarchy.
  PlateauGenerator plateau(std::make_shared<TreePair>(shared.ch));
  DissimilarityGenerator dissimilarity(std::make_shared<TreePair>(shared.ch));
  PenaltyGenerator penalty(std::make_shared<TreePair>(shared.ch));
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
      ExpectSameSet(got, want, where, &tally);
      // Over identical trees the candidates match too.
      EXPECT_EQ(stats.paths_generated, ref_stats.paths_generated) << where;
      tally.generated += stats.paths_generated;
      tally.reference_generated += ref_stats.paths_generated;
    }
    // The shared pair the three read is a pair of shortest-path trees.
    const TreePair& trees = shared.suite->display_trees();
    const std::string where = net->name() + " od " + std::to_string(od.s) +
                              "->" + std::to_string(od.t);
    testutil::ExpectConsistentParents(*net, trees.weights(), trees.forward(),
                                      where);
    testutil::ExpectConsistentParents(*net, trees.weights(), trees.backward(),
                                      where);
  }
  Report(("shared tree pair " + GetParam()).c_str(), tally);
  EXPECT_EQ(tally.differing, 0);
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
// contracted in the display hierarchy's order. PHAST trees may break
// exact-cost ties another way than Dijkstra's, so the final sets are
// compared with the reference chain's over Dijkstra pairs and the differing
// ones counted, and every set is held to the paper's contracts.
TEST_P(StudyCityEquivalenceTest, CommercialPhastPairMatchesDijkstraPair) {
  auto net = testutil::StudyCity(GetParam(), kCityScale);
  const auto ods =
      testutil::BinnedOds(*net, kCityScale, /*seed=*/2022, /*per_bin=*/10);
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
      ASSERT_EQ(suite->commercial_trees().weights(), commercial);
      AlternativeRouteGenerator& served = suite->engine(Approach::kGoogleMaps);
      for (const Od& od : ods) {
        const std::string where = net->name() + " theta " +
                                  std::to_string(theta) + " k " +
                                  std::to_string(max_routes) + " od " +
                                  std::to_string(od.s) + "->" +
                                  std::to_string(od.t);
        obs::SearchStats stats, ref_stats;
        const auto got = served.Generate(od.s, od.t, &stats);
        const auto read = [&] {
          return DijkstraTrees(*net, commercial, od.s, od.t, &ref_stats);
        };
        const auto plateau_trees = read();
        ASSERT_TRUE(plateau_trees.ok()) << where;
        const auto want = ReferenceCommercial(*net, commercial, options,
                                              *plateau_trees, read, &ref_stats);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status();
        ASSERT_TRUE(want.ok()) << where << ": " << want.status();
        auto optimum = dijkstra.ShortestPath(od.s, od.t, commercial);
        ASSERT_TRUE(optimum.ok()) << where;
        ExpectCommercialContracts(*net, commercial, *got, optimum->cost,
                                  options, where);
        // One pair of sweeps, shortest-path trees both; the reference
        // builds two Dijkstra pairs.
        EXPECT_EQ(stats.trees_built, 2u) << where;
        EXPECT_EQ(ref_stats.trees_built, 4u) << where;
        const TreePair& trees = suite->commercial_trees();
        testutil::ExpectConsistentParents(*net, commercial, trees.forward(),
                                          where);
        testutil::ExpectConsistentParents(*net, commercial, trees.backward(),
                                          where);
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
    }
  }
  std::printf("commercial PHAST pair %s: %d of %d final sets differ from "
              "the Dijkstra pairs'\n",
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
  CompareDissimilarity(net, ods, weight_sets, Oracle::kGeneratorTrees, &tally);
  CompareCommercial(net, ods, weight_sets, Oracle::kGeneratorTrees, &tally);
  Report("multigraph", tally);
  EXPECT_EQ(tally.differing, 0);
}

// On a grid full of equal-cost ties, PHAST trees may pick another of two
// equally short paths than Dijkstra does, so the shared pair's routes
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
    const TreePair& trees = shared.suite->display_trees();
    const std::string where =
        "od " + std::to_string(s) + "->" + std::to_string(t);
    testutil::ExpectConsistentParents(*net, display, trees.forward(), where);
    testutil::ExpectConsistentParents(*net, display, trees.backward(), where);
  }
}

/// `corridors` disjoint two-hop routes s -> m_i -> t (s = 0, t = 1) whose
/// hops cost first_s(i) and second_s(i).
std::shared_ptr<RoadNetwork> CorridorNetwork(
    int corridors, const std::function<double(int)>& first_s,
    const std::function<double(int)>& second_s) {
  GraphBuilder builder("corridors");
  builder.AddNode(LatLng(0.0, 0.0));
  builder.AddNode(LatLng(0.0, 0.02));
  for (int i = 0; i < corridors; ++i) {
    const NodeId m = builder.AddNode(LatLng(0.001 * (i + 1), 0.01));
    builder.AddEdge(0, m, 500.0, first_s(i));
    builder.AddEdge(m, 1, 500.0, second_s(i));
  }
  auto net = builder.Build();
  ALT_CHECK(net.ok()) << net.status();
  return std::move(net).ValueOrDie();
}

/// Least and greatest via cost over the nodes SSVP-D+ scans from s to t.
std::pair<double, double> ViaCostRange(const RoadNetwork& net, NodeId s,
                                       NodeId t) {
  Dijkstra dijkstra(net);
  auto fwd = dijkstra.BuildTree(s, net.travel_times(), SearchDirection::kForward);
  auto bwd =
      dijkstra.BuildTree(t, net.travel_times(), SearchDirection::kBackward);
  ALT_CHECK(fwd.ok() && bwd.ok());
  double lo = kInfCost;
  double hi = 0.0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    if (!fwd->Reached(v) || !bwd->Reached(v)) continue;
    lo = std::min(lo, fwd->dist[v] + bwd->dist[v]);
    hi = std::max(hi, fwd->dist[v] + bwd->dist[v]);
  }
  return {lo, hi};
}

TEST(ViaOrderEdgeCaseTest, EveryViaCostTies) {
  // Two equal six-hop corridors from 0 to 1: all 12 candidates cost 360 s
  // exactly, so the scan reads one bucket ordered by id alone, where 12
  // candidates would otherwise make three.
  GraphBuilder builder("tied-corridors");
  builder.AddNode(LatLng(0.0, 0.0));
  builder.AddNode(LatLng(0.0, 0.06));
  for (int corridor = 0; corridor < 2; ++corridor) {
    NodeId prev = 0;
    for (int hop = 1; hop < 6; ++hop) {
      const NodeId next =
          builder.AddNode(LatLng(0.01 * (corridor + 1), 0.01 * hop));
      builder.AddEdge(prev, next, 500.0, 60.0);
      prev = next;
    }
    builder.AddEdge(prev, 1, 500.0, 60.0);
  }
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status();
  std::shared_ptr<RoadNetwork> net = std::move(built).ValueOrDie();
  const auto [lo, hi] = ViaCostRange(*net, 0, 1);
  ASSERT_EQ(lo, hi);
  const std::vector<Od> ods = {{0, 1}};
  Tally tally;
  CompareDissimilarity(net, ods, {testutil::Weights(*net)},
                       Oracle::kGeneratorTrees, &tally);
  CompareCommercial(net, ods, {testutil::Weights(*net)},
                    Oracle::kGeneratorTrees, &tally);
  Report("tied via costs", tally);
  EXPECT_EQ(tally.differing, 0);
}

TEST(ViaOrderEdgeCaseTest, ViaCostsDifferingInTheirLastBits) {
  // Corridor i costs 0.3 (i + 1) / 37 + 0.3 (36 - i) / 37 s, which rounds
  // to one of three doubles an ulp apart. 38 candidates make 9 buckets, so
  // the bucket key's scale is about 1e17, and the greatest via cost reaches
  // the clamp.
  auto net = CorridorNetwork(
      36, [](int i) { return 0.3 * (i + 1) / 37.0; },
      [](int i) { return 0.3 * (36 - i) / 37.0; });
  const auto [lo, hi] = ViaCostRange(*net, 0, 1);
  ASSERT_GT(hi, lo);
  ASSERT_LT(hi - lo, 1e-12 * hi);
  // The corridors are one-way, so {1, 0} has no route.
  const std::vector<Od> ods = {{0, 1}, {0, 2}, {2, 1}, {1, 0}};
  Tally tally;
  CompareDissimilarity(net, ods, {testutil::Weights(*net)},
                       Oracle::kGeneratorTrees, &tally);
  CompareCommercial(net, ods, {testutil::Weights(*net)},
                    Oracle::kGeneratorTrees, &tally);
  Report("via costs differing in their last bits", tally);
  EXPECT_EQ(tally.differing, 0);
}

TEST(ViaOrderEdgeCaseTest, SourceEqualsTarget) {
  auto net = testutil::GridNetwork(5, 5);
  const std::vector<Od> ods = {{0, 0}, {12, 12}, {24, 24}};
  Tally tally;
  CompareDissimilarity(net, ods, {testutil::Weights(*net)},
                       Oracle::kGeneratorTrees, &tally);
  CompareCommercial(net, ods, {testutil::Weights(*net)},
                    Oracle::kGeneratorTrees, &tally);
  Report("source equals target", tally);
  EXPECT_EQ(tally.differing, 0);
}

TEST(ViaOrderEdgeCaseTest, EveryCandidateOnTheShortestPath) {
  // A line walked end to end: each candidate lies on the shortest path.
  // Uneven hops spread the via costs over several buckets.
  auto net = testutil::LineNetwork(40);
  std::vector<double> uneven(net->num_edges());
  Rng rng(29);
  for (double& w : uneven) w = rng.Uniform(10.0, 100.0);
  const std::vector<Od> ods = {{0, 39}, {39, 0}};
  Tally tally;
  CompareDissimilarity(net, ods, {testutil::Weights(*net), uneven},
                       Oracle::kGeneratorTrees, &tally);
  CompareCommercial(net, ods, {testutil::Weights(*net), uneven},
                    Oracle::kGeneratorTrees, &tally);
  Report("candidates on the shortest path", tally);
  EXPECT_EQ(tally.differing, 0);
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
  CompareDissimilarity(net, ods, weight_sets, Oracle::kGeneratorTrees, &tally);
  CompareCommercial(net, ods, weight_sets, Oracle::kGeneratorTrees, &tally);
  Report("turn-expanded", tally);
  EXPECT_EQ(tally.differing, 0);
}

}  // namespace
}  // namespace altroute
