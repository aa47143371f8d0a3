// Parameter ablation (paper Sec. 3, "Parameter Details"): the authors state
// they tried several values for the penalty factor, the stretch upper bound
// and the dissimilarity threshold to confirm that 1.4 / 1.4 / 0.5 are
// appropriate. This bench regenerates that sweep: for each parameter value
// it reports route-set metrics (number of alternatives, diversity, stretch)
// and the behavioural model's perceived-quality score.
#include "bench_util.h"
#include "core/dissimilarity.h"
#include "core/penalty.h"
#include "core/plateau.h"
#include "core/quality.h"
#include "userstudy/rating_model.h"
#include "util/random.h"

using namespace altroute;
using namespace altroute::bench;

namespace {

struct SweepStats {
  double mean_routes = 0.0;
  double mean_stretch = 0.0;
  double mean_max_similarity = 0.0;
  double mean_quality = 0.0;
};

/// Evaluates one engine configuration over a fixed query workload.
template <typename MakeEngine>
SweepStats Evaluate(const std::shared_ptr<RoadNetwork>& net,
                    const std::vector<std::pair<NodeId, NodeId>>& queries,
                    MakeEngine make_engine) {
  auto engine = make_engine();
  Participant average_user;
  average_user.familiarity = 0.7;
  SweepStats stats;
  int n = 0;
  for (const auto& [s, t] : queries) {
    auto set = engine->Generate(s, t);
    if (!set.ok()) continue;
    ++n;
    const RouteSetQuality q =
        ComputeRouteSetQuality(*net, set->routes, set->optimal_cost,
                               net->travel_times());
    stats.mean_routes += q.num_routes;
    stats.mean_stretch += q.mean_stretch;
    stats.mean_max_similarity += q.max_pairwise_similarity;
    stats.mean_quality += PerceivedQuality(*net, *set, net->travel_times(),
                                           set->optimal_cost, average_user);
  }
  if (n > 0) {
    stats.mean_routes /= n;
    stats.mean_stretch /= n;
    stats.mean_max_similarity /= n;
    stats.mean_quality /= n;
  }
  return stats;
}

void PrintHeader(const char* param) {
  std::printf("%-8s | routes | stretch | max-sim | perceived quality\n", param);
  std::printf("---------+--------+---------+---------+------------------\n");
}

void PrintRow(double value, const SweepStats& s, bool is_paper_choice) {
  std::printf("%-8.2f | %6.2f | %7.3f | %7.3f | %7.3f%s\n", value,
              s.mean_routes, s.mean_stretch, s.mean_max_similarity,
              s.mean_quality, is_paper_choice ? "   <- paper's choice" : "");
}

}  // namespace

int main() {
  std::printf("=== Parameter ablation (Sec. 3 'Parameter Details') ===\n\n");
  auto net = City("melbourne", 0.6);
  // Every configuration's generator gets a tree pair over this hierarchy.
  const auto ch = Hierarchy(net, net->travel_times());

  Rng rng(20220707);
  std::vector<std::pair<NodeId, NodeId>> queries;
  while (queries.size() < 40) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s != t && HaversineMeters(net->coord(s), net->coord(t)) > 4000.0) {
      queries.emplace_back(s, t);
    }
  }

  std::printf("Penalty factor sweep (Penalty approach):\n");
  PrintHeader("factor");
  for (double factor : {1.1, 1.2, 1.3, 1.4, 1.6, 1.8, 2.0}) {
    AlternativeOptions options;
    options.penalty_factor = factor;
    const auto stats = Evaluate(net, queries, [&] {
      return std::make_unique<PenaltyGenerator>(std::make_shared<TreePair>(ch),
                                                options);
    });
    PrintRow(factor, stats, factor == 1.4);
  }

  std::printf("\nStretch upper-bound sweep (Plateaus approach):\n");
  PrintHeader("UB");
  for (double ub : {1.2, 1.3, 1.4, 1.6, 1.8, 2.0}) {
    AlternativeOptions options;
    options.stretch_bound = ub;
    const auto stats = Evaluate(net, queries, [&] {
      return std::make_unique<PlateauGenerator>(std::make_shared<TreePair>(ch),
                                                options);
    });
    PrintRow(ub, stats, ub == 1.4);
  }

  std::printf("\nDissimilarity threshold sweep (Dissimilarity approach):\n");
  PrintHeader("theta");
  for (double theta : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    AlternativeOptions options;
    options.dissimilarity_threshold = theta;
    const auto stats = Evaluate(net, queries, [&] {
      return std::make_unique<DissimilarityGenerator>(
          std::make_shared<TreePair>(ch), options);
    });
    PrintRow(theta, stats, theta == 0.5);
  }

  std::printf("\nReading: the paper's choices sit where diversity is high "
              "(low max-sim), the route count stays near 3, and perceived "
              "quality peaks or plateaus.\n");
  return 0;
}
