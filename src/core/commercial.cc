#include "core/commercial.h"

#include <algorithm>

#include "util/check.h"

namespace altroute {

CommercialBaseline::CommercialBaseline(std::shared_ptr<TreePair> trees,
                                       const AlternativeOptions& options)
    : trees_(std::move(trees)),
      options_(options),
      via_scan_(trees_->network()) {
  plateau_options_ = options_;
  plateau_options_.max_routes = std::max(8, options_.max_routes * 3);
  plateau_options_.stretch_bound = options_.stretch_bound * 1.1;
  via_options_ = plateau_options_;
  // The via scan visits candidates in ascending length, so the ones that
  // PruneByStretch drops later cannot change which shorter ones it accepts:
  // it stops at the same limit.
  via_options_.stretch_bound = options_.stretch_bound;
  via_options_.dissimilarity_threshold =
      std::min(0.9, options_.dissimilarity_threshold * 0.8);
  ALT_CHECK(via_options_.dissimilarity_threshold >= 0.0 &&
            via_options_.dissimilarity_threshold < 1.0)
      << "dissimilarity threshold out of [0,1)";
}

Result<AlternativeSet> CommercialBaseline::Generate(NodeId source,
                                                    NodeId target,
                                                    obs::SearchStats* stats,
                                                    CancellationToken* cancel) {
  // Candidate pool: plateau routes + via-node routes on commercial data,
  // both read off one tree pair. If the trees or the plateau stage's
  // shortest path are cut short we have nothing to ship (the error
  // propagates); a cancelled via stage just shrinks the candidate pool.
  const RoadNetwork& net = trees_->network();
  const std::vector<double>& weights = trees_->weights();
  ALTROUTE_ASSIGN_OR_RETURN(
      const size_t settled,
      trees_->Acquire(source, target, TreePair::Need::kBothTrees, &reader_,
                      stats, cancel));
  const ShortestPathTree& fwd = trees_->forward();
  const ShortestPathTree& bwd = trees_->backward();

  ALTROUTE_ASSIGN_OR_RETURN(
      AlternativeSet plat,
      plateau_scan_.Run(net, weights, fwd, bwd, plateau_options_, stats,
                        cancel));
  AlternativeSet via;
  auto via_or =
      via_scan_.Run(fwd, bwd, weights, via_options_,
                    SimilarityMeasure::kOverlapOverCandidate, stats, cancel);
  if (via_or.ok()) {
    via = std::move(via_or).ValueOrDie();
  } else if (!via_or.status().IsDeadlineExceeded()) {
    return via_or.status();
  }

  AlternativeSet out;
  out.optimal_cost = plat.optimal_cost;
  out.work_settled_nodes = settled;
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

  // Proprietary-style refinement: enforce the hard stretch bound on the
  // commercial data, rank by perceptual score, prune near-duplicates.
  const size_t before_stretch = pool.size();
  pool = PruneByStretch(pool, out.optimal_cost, options_.stretch_bound, weights);
  const size_t before_similarity = pool.size();
  pool = RankPerceptually(net, pool, out.optimal_cost, weights);
  pool = PruneBySimilarity(net, pool, /*max_similarity=*/0.6);
  if (stats != nullptr) {
    stats->paths_rejected_stretch += before_stretch - before_similarity;
    stats->paths_rejected_similarity += before_similarity - pool.size();
  }

  if (pool.empty()) return Status::NotFound("no route found");
  if (static_cast<int>(pool.size()) > options_.max_routes) {
    pool.resize(static_cast<size_t>(options_.max_routes));
  }
  out.routes = std::move(pool);
  return out;
}

}  // namespace altroute
