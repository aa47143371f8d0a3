#include "core/penalty.h"

#include <algorithm>

#include "core/similarity.h"
#include "util/check.h"

namespace altroute {

PenaltyGenerator::PenaltyGenerator(std::shared_ptr<TreePair> trees,
                                   const AlternativeOptions& options)
    : trees_(std::move(trees)),
      options_(options),
      dijkstra_(trees_->network()) {
  // The method is only correct for a non-shrinking re-weighting: a factor
  // below 1 would make penalized edges MORE attractive each round and the
  // iteration would re-discover the same path forever (paper uses 1.4).
  ALT_CHECK_GE(options_.penalty_factor, 1.0)
      << "penalty factor must not shrink edge weights";
}

void PenaltyGenerator::PenalizeStreet(EdgeId e) {
  const RoadNetwork& net = trees_->network();
  const NodeId u = net.tail(e);
  const NodeId v = net.head(e);
  for (EdgeId same : net.OutEdges(u)) {
    if (net.head(same) == v) penalized_[same] *= options_.penalty_factor;
  }
  for (EdgeId twin : net.OutEdges(v)) {
    if (net.head(twin) == u) penalized_[twin] *= options_.penalty_factor;
  }
  // Re-weighting monotonicity: a penalized weight never drops below the
  // true weight, so real path costs stay a lower bound of search costs.
  ALT_DCHECK_GE(penalized_[e], trees_->weights()[e]);
}

Result<AlternativeSet> PenaltyGenerator::Generate(NodeId source, NodeId target,
                                                  obs::SearchStats* stats,
                                                  CancellationToken* cancel) {
  const RoadNetwork& net = trees_->network();
  const std::vector<double>& weights = trees_->weights();

  // The backward tree's distances to the target are the exact potential
  // every iteration's A* reuses. In a request, Plateaus has usually built
  // them already.
  AlternativeSet out;
  ALTROUTE_ASSIGN_OR_RETURN(
      out.work_settled_nodes,
      trees_->Acquire(source, target, TreePair::Need::kBackwardDistances,
                      &reader_, stats, cancel));
  const std::span<const double> potential = trees_->backward().dist;
  const auto search = [&] {
    return dijkstra_.ShortestPathWithPotential(source, target, penalized_,
                                               potential, stats, cancel);
  };
  penalized_.assign(weights.begin(), weights.end());

  // Iteration 1 yields the true shortest path (no penalties applied yet).
  auto first = search();
  if (!first.ok()) return first.status();
  out.work_settled_nodes += dijkstra_.last_settled_count();
  if (stats != nullptr) {
    ++stats->iterations;
    ++stats->paths_generated;
  }

  ALTROUTE_ASSIGN_OR_RETURN(
      Path shortest,
      MakePath(net, source, target, std::move(first->edges), weights));
  out.optimal_cost = shortest.cost;
  const double cost_limit = options_.stretch_bound * out.optimal_cost;
  out.routes.push_back(std::move(shortest));

  int iterations = 1;
  while (static_cast<int>(out.routes.size()) < options_.max_routes &&
         iterations < options_.max_iterations) {
    if (cancel != nullptr && cancel->StopNow()) {
      out.completion = Status::DeadlineExceeded("penalty iterations cut short");
      break;  // shortest path already reported; ship what we have
    }
    ++iterations;
    // Penalize every edge of the most recent path's streets — all parallel
    // edges between the endpoints and all reverse twins, so the search can
    // sidestep the penalty neither by driving the opposite carriageway nor
    // by hopping onto a parallel twin of the same direction.
    for (EdgeId e : out.routes.back().edges) PenalizeStreet(e);

    auto next = search();
    if (!next.ok()) {
      // Penalties cannot disconnect the graph, but stay defensive; a
      // cancelled search additionally marks the set as cut short.
      if (next.status().IsDeadlineExceeded()) out.completion = next.status();
      break;
    }
    out.work_settled_nodes += dijkstra_.last_settled_count();
    if (stats != nullptr) {
      ++stats->iterations;
      ++stats->paths_generated;
    }

    auto path_or =
        MakePath(net, source, target, std::move(next->edges), weights);
    if (!path_or.ok()) return path_or.status();
    Path path = std::move(path_or).ValueOrDie();

    // Real (unpenalized) cost must respect the stretch bound; once the
    // cheapest new path exceeds it, later iterations only get worse in
    // penalized cost but can oscillate in real cost, so keep iterating
    // until the iteration cap — but never accept an over-bound path.
    if (path.cost > cost_limit + 1e-9) {
      if (stats != nullptr) ++stats->paths_rejected_stretch;
      continue;
    }

    // Reject exact duplicates of already accepted paths.
    const bool duplicate =
        std::any_of(out.routes.begin(), out.routes.end(),
                    [&](const Path& p) { return SameEdges(p, path); });
    if (duplicate) {
      if (stats != nullptr) ++stats->paths_rejected_similarity;
      continue;
    }

    out.routes.push_back(std::move(path));
  }
  return out;
}

}  // namespace altroute
