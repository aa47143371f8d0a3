#include "core/plateau.h"

#include <algorithm>

#include "util/check.h"

namespace altroute {

PlateauGenerator::PlateauGenerator(std::shared_ptr<TreePair> trees,
                                   const AlternativeOptions& options)
    : trees_(std::move(trees)), options_(options) {
  ALT_CHECK(trees_ != nullptr) << "null tree pair";
}

namespace {

/// Appends a plateau's edges from `first` to `end`: each edge after the
/// first is the backward-tree parent of the previous edge's head.
void AppendPlateauEdges(const RoadNetwork& net, const ShortestPathTree& bwd,
                        EdgeId first, NodeId end, std::vector<EdgeId>* edges) {
  for (EdgeId e = first;; e = bwd.parent_edge[net.head(e)]) {
    edges->push_back(e);
    if (net.head(e) == end) return;
  }
}

}  // namespace

void PlateauScan::FindPlateaus(const RoadNetwork& net,
                               std::span<const double> weights,
                               const ShortestPathTree& fwd,
                               const ShortestPathTree& bwd) {
  // An edge e = (u, v) is a plateau edge iff it is the forward-tree parent
  // of v AND the backward-tree parent of u: both trees route through e.
  const auto is_plateau = [&](EdgeId e) {
    return e != kInvalidEdge && fwd.parent_edge[net.head(e)] == e &&
           bwd.parent_edge[net.tail(e)] == e;
  };

  // Chain maximal runs. A run starts at edge e when the forward parent of
  // tail(e) is not itself a plateau edge. The length sums the run's weights
  // from start to end.
  records_.clear();
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const EdgeId first = fwd.parent_edge[v];
    if (!is_plateau(first)) continue;
    const NodeId u = net.tail(first);
    if (is_plateau(fwd.parent_edge[u])) continue;  // not a run start

    Record pl{0.0, 0.0, u, kInvalidNode, first};
    for (EdgeId e = first;;) {
      pl.length += weights[e];
      pl.end = net.head(e);
      const EdgeId next = bwd.parent_edge[pl.end];
      if (!is_plateau(next)) break;
      e = next;
    }
    // Both run endpoints are on their respective trees by construction, so
    // the via cost through the plateau is well defined and can never beat
    // the optimal s-t cost.
    ALT_DCHECK(fwd.Reached(pl.start) && bwd.Reached(pl.end))
        << "plateau endpoints not contained in both trees";
    pl.route_cost = fwd.dist[pl.start] + pl.length + bwd.dist[pl.end];
    records_.push_back(pl);
  }

  std::sort(records_.begin(), records_.end(),
            [](const Record& a, const Record& b) {
              if (a.length != b.length) return a.length > b.length;
              return a.route_cost < b.route_cost;  // deterministic ties
            });
}

std::vector<Plateau> PlateauScan::All(const RoadNetwork& net,
                                      std::span<const double> weights,
                                      const ShortestPathTree& fwd,
                                      const ShortestPathTree& bwd) {
  FindPlateaus(net, weights, fwd, bwd);
  std::vector<Plateau> plateaus(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& pl = records_[i];
    plateaus[i].start = pl.start;
    plateaus[i].end = pl.end;
    plateaus[i].length = pl.length;
    plateaus[i].route_cost = pl.route_cost;
    AppendPlateauEdges(net, bwd, pl.first, pl.end, &plateaus[i].edges);
  }
  return plateaus;
}

Result<std::vector<Plateau>> PlateauGenerator::ComputePlateaus(NodeId source,
                                                               NodeId target) {
  ALTROUTE_RETURN_NOT_OK(trees_
                             ->Acquire(source, target,
                                       TreePair::Need::kBothTrees, &reader_)
                             .status());
  if (!trees_->forward().Reached(target)) {
    return Status::NotFound("target unreachable from source");
  }
  return scan_.All(trees_->network(), trees_->weights(), trees_->forward(),
                   trees_->backward());
}

Result<AlternativeSet> PlateauScan::Run(const RoadNetwork& net,
                                        std::span<const double> weights,
                                        const ShortestPathTree& fwd,
                                        const ShortestPathTree& bwd,
                                        const AlternativeOptions& options,
                                        obs::SearchStats* stats,
                                        CancellationToken* cancel) {
  const NodeId source = fwd.root;
  const NodeId target = bwd.root;
  if (!fwd.Reached(target)) {
    return Status::NotFound("target unreachable from source");
  }

  AlternativeSet out;
  out.optimal_cost = fwd.dist[target];
  const double cost_limit = options.stretch_bound * out.optimal_cost;

  // The fastest path is reported first (it is itself the plateau that spans
  // the whole optimal route, but we extract it directly from the tree).
  edges_.clear();
  ALTROUTE_RETURN_NOT_OK(fwd.AppendPathTo(net, target, &edges_));
  ALTROUTE_ASSIGN_OR_RETURN(Path shortest,
                            MakePath(net, source, target, edges_, weights));
  out.routes.push_back(std::move(shortest));
  if (stats != nullptr) ++stats->paths_generated;

  FindPlateaus(net, weights, fwd, bwd);
  for (const Record& pl : records_) {
    // A plateau route walks tree branches end to end; its cost is bounded
    // below by the optimal cost (equality for the run spanning the shortest
    // path itself). Small epsilon absorbs re-summation error.
    ALT_DCHECK_GE(pl.route_cost, out.optimal_cost - 1e-6);
    if (static_cast<int>(out.routes.size()) >= options.max_routes) break;
    if (cancel != nullptr && cancel->StopNow()) {
      out.completion = Status::DeadlineExceeded("plateau ranking cut short");
      break;  // shortest path already reported; ship what we have
    }
    if (pl.route_cost > cost_limit + 1e-9) {
      if (stats != nullptr) ++stats->paths_rejected_stretch;
      continue;
    }

    // sp(s, start) + the plateau + sp(end, t).
    edges_.clear();
    if (!fwd.AppendPathTo(net, pl.start, &edges_).ok()) continue;
    AppendPlateauEdges(net, bwd, pl.first, pl.end, &edges_);
    if (!bwd.AppendPathTo(net, pl.end, &edges_).ok()) continue;

    // A route equal to a kept one is a valid s-t path, so MakePath would
    // accept it: it is counted as generated and rejected without a copy.
    const bool duplicate =
        std::any_of(out.routes.begin(), out.routes.end(),
                    [&](const Path& p) { return p.edges == edges_; });
    if (duplicate) {
      if (stats != nullptr) {
        ++stats->paths_generated;
        ++stats->paths_rejected_similarity;
      }
      continue;
    }
    auto path_or = MakePath(net, source, target, edges_, weights);
    if (!path_or.ok()) {  // defensive: malformed joins are dropped
      if (stats != nullptr) ++stats->paths_rejected_filter;
      continue;
    }
    Path path = std::move(path_or).ValueOrDie();
    if (stats != nullptr) ++stats->paths_generated;
    if (!IsLoopless(net, path)) {  // tree joins can rarely loop
      if (stats != nullptr) ++stats->paths_rejected_filter;
      continue;
    }

    out.routes.push_back(std::move(path));
  }
  return out;
}

Result<AlternativeSet> PlateauGenerator::Generate(NodeId source, NodeId target,
                                                  obs::SearchStats* stats,
                                                  CancellationToken* cancel) {
  // Tree construction dominates the cost, exactly as the paper notes; the
  // pair is built by whichever generator of the request asks first.
  // Cancellation mid-tree means not even the shortest path is known yet, so
  // the DeadlineExceeded from Acquire propagates as the call's error.
  ALTROUTE_ASSIGN_OR_RETURN(
      const size_t settled,
      trees_->Acquire(source, target, TreePair::Need::kBothTrees, &reader_,
                      stats, cancel));
  ALTROUTE_ASSIGN_OR_RETURN(
      AlternativeSet out,
      scan_.Run(trees_->network(), trees_->weights(), trees_->forward(),
                trees_->backward(), options_, stats, cancel));
  out.work_settled_nodes = settled;
  return out;
}

}  // namespace altroute
