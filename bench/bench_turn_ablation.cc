// Turn-model ablation (extension): quantifies what the paper's Sec. 4.2
// perceptual complaints ("less zig-zag is better") translate to when the
// routing objective itself becomes turn-aware. Compares node-based route
// sets with turn-aware ones across turn-penalty levels: turns per km drop
// while fastest travel time rises slightly — making the smoothness/time
// tradeoff behind the 'fewer turns' criterion explicit.
#include "bench_util.h"
#include "core/plateau.h"
#include "core/quality.h"
#include "core/turn_aware_alternatives.h"
#include "userstudy/rating_model.h"
#include "util/random.h"
#include "util/check.h"

using namespace altroute;
using namespace altroute::bench;

int main() {
  std::printf("=== Turn-aware routing ablation ===\n\n");
  auto net = City("melbourne", 0.45);

  Rng rng(20221111);
  std::vector<std::pair<NodeId, NodeId>> queries;
  while (queries.size() < 25) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s != t && HaversineMeters(net->coord(s), net->coord(t)) > 4000.0) {
      queries.emplace_back(s, t);
    }
  }

  Participant average_user;
  average_user.familiarity = 0.7;

  auto evaluate = [&](AlternativeRouteGenerator* generator) {
    double turns = 0, time_min = 0, quality = 0;
    int n = 0;
    for (const auto& [s, t] : queries) {
      auto set = generator->Generate(s, t);
      if (!set.ok()) continue;
      ++n;
      const RouteSetQuality q = ComputeRouteSetQuality(
          *net, set->routes, set->routes[0].travel_time_s,
          net->travel_times());
      turns += q.mean_turns_per_km;
      time_min += set->routes[0].travel_time_s / 60.0;
      quality += PerceivedQuality(*net, *set, net->travel_times(),
                                  set->routes[0].travel_time_s, average_user);
    }
    std::printf(" turns/km %5.2f | fastest %6.2f min | perceived %5.3f  "
                "(over %d queries)\n",
                turns / n, time_min / n, quality / n, n);
  };

  std::printf("%-34s:", "node-based Plateaus (paper setup)");
  PlateauGenerator node_based(
      std::make_shared<TreePair>(Hierarchy(net, net->travel_times())));
  evaluate(&node_based);

  for (double penalty : {4.0, 12.0, 30.0}) {
    TurnCostModel model;
    model.turn_penalty_s = penalty;
    model.sharp_turn_penalty_s = penalty * 2;
    auto turn_aware = TurnAwareAlternatives::Create(
        net, TurnAwareBase::kPlateaus, model);
    ALT_CHECK(turn_aware.ok());
    char label[64];
    std::snprintf(label, sizeof(label), "turn-aware Plateaus (%.0fs/turn)",
                  penalty);
    std::printf("%-34s:", label);
    evaluate(turn_aware->get());
  }

  std::printf("\nReading: pricing turns lowers turns/km of the whole route "
              "set at a small fastest-time cost. Perceived quality under the "
              "study's displayed-time-anchored rating model stays flat or "
              "dips slightly: raters who anchor on the minutes shown do not "
              "reward smoothness — consistent with the paper finding the "
              "four approaches statistically indistinguishable despite "
              "their different route shapes.\n");
  return 0;
}
