#include "core/plateau.h"

#include <algorithm>

#include "util/check.h"

namespace altroute {

PlateauGenerator::PlateauGenerator(std::shared_ptr<const RoadNetwork> net,
                                   std::vector<double> weights,
                                   const AlternativeOptions& options)
    : PlateauGenerator(std::move(net), std::move(weights), /*ch=*/nullptr,
                       options) {}

PlateauGenerator::PlateauGenerator(std::shared_ptr<const RoadNetwork> net,
                                   std::vector<double> weights,
                                   std::shared_ptr<const ContractionHierarchy> ch,
                                   const AlternativeOptions& options)
    : PlateauGenerator(
          std::make_shared<TreePair>(
              std::move(net),
              std::make_shared<const std::vector<double>>(std::move(weights)),
              std::move(ch)),
          options) {}

PlateauGenerator::PlateauGenerator(std::shared_ptr<TreePair> trees,
                                   const AlternativeOptions& options)
    : trees_(std::move(trees)), options_(options) {
  ALT_CHECK(trees_ != nullptr) << "null tree pair";
  name_ = trees_->has_hierarchy() ? "plateau_ch" : "plateau";
}

namespace {

/// All plateaus of a tree pair (forward tree from the source, backward tree
/// to the target, both over `weights`) in descending length order, with no
/// stretch filtering and no k cap.
std::vector<Plateau> PlateausFromTrees(const RoadNetwork& net,
                                       std::span<const double> weights,
                                       const ShortestPathTree& fwd,
                                       const ShortestPathTree& bwd) {
  // An edge e = (u, v) is a plateau edge iff it is the forward-tree parent
  // of v AND the backward-tree parent of u: both trees route through e.
  std::vector<bool> is_plateau(net.num_edges(), false);
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const EdgeId e = fwd.parent_edge[v];
    if (e == kInvalidEdge) continue;
    const NodeId u = net.tail(e);
    if (bwd.parent_edge[u] == e) is_plateau[e] = true;
  }

  // Chain maximal runs. A run starts at edge e when the forward parent of
  // tail(e) is not itself a plateau edge.
  std::vector<Plateau> plateaus;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const EdgeId first = fwd.parent_edge[v];
    if (first == kInvalidEdge || !is_plateau[first]) continue;
    const NodeId u = net.tail(first);
    const EdgeId pred = fwd.parent_edge[u];
    if (pred != kInvalidEdge && is_plateau[pred]) continue;  // not a run start

    Plateau pl;
    pl.start = u;
    EdgeId e = first;
    for (;;) {
      // Tree-join containment: every edge of the chained run must itself be
      // a plateau edge, i.e. lie on BOTH shortest-path trees. Joining a
      // non-plateau edge would splice a detour into the middle of the run.
      ALT_DCHECK(is_plateau[e]) << "non-plateau edge chained into run";
      pl.edges.push_back(e);
      pl.length += weights[e];
      const NodeId head = net.head(e);
      pl.end = head;
      const EdgeId next = bwd.parent_edge[head];
      if (next == kInvalidEdge || !is_plateau[next]) break;
      e = next;
    }
    // Both run endpoints are on their respective trees by construction, so
    // the via cost through the plateau is well defined and can never beat
    // the optimal s-t cost.
    ALT_DCHECK(fwd.Reached(pl.start) && bwd.Reached(pl.end))
        << "plateau endpoints not contained in both trees";
    pl.route_cost = fwd.dist[pl.start] + pl.length + bwd.dist[pl.end];
    plateaus.push_back(std::move(pl));
  }

  std::sort(plateaus.begin(), plateaus.end(),
            [](const Plateau& a, const Plateau& b) {
              if (a.length != b.length) return a.length > b.length;
              return a.route_cost < b.route_cost;  // deterministic ties
            });
  return plateaus;
}

}  // namespace

Result<std::vector<Plateau>> PlateauGenerator::ComputePlateaus(NodeId source,
                                                               NodeId target) {
  ALTROUTE_RETURN_NOT_OK(trees_
                             ->Acquire(source, target,
                                       TreePair::Need::kBothTrees, &reader_)
                             .status());
  if (!trees_->forward().Reached(target)) {
    return Status::NotFound("target unreachable from source");
  }
  return PlateausFromTrees(trees_->network(), trees_->weights(),
                           trees_->forward(), trees_->backward());
}

Result<AlternativeSet> PlateauAlternativesFromTrees(
    const RoadNetwork& net, std::span<const double> weights,
    const ShortestPathTree& fwd, const ShortestPathTree& bwd,
    const AlternativeOptions& options, obs::SearchStats* stats,
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
  ALTROUTE_ASSIGN_OR_RETURN(std::vector<EdgeId> sp_edges,
                            fwd.PathTo(net, target));
  ALTROUTE_ASSIGN_OR_RETURN(
      Path shortest, MakePath(net, source, target, std::move(sp_edges), weights));
  out.routes.push_back(std::move(shortest));
  if (stats != nullptr) ++stats->paths_generated;

  const std::vector<Plateau> plateaus = PlateausFromTrees(net, weights, fwd, bwd);
  for (const Plateau& pl : plateaus) {
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

    auto prefix_or = fwd.PathTo(net, pl.start);
    auto suffix_or = bwd.PathTo(net, pl.end);
    if (!prefix_or.ok() || !suffix_or.ok()) continue;
    std::vector<EdgeId> edges = std::move(prefix_or).ValueOrDie();
    edges.insert(edges.end(), pl.edges.begin(), pl.edges.end());
    const std::vector<EdgeId> suffix = std::move(suffix_or).ValueOrDie();
    edges.insert(edges.end(), suffix.begin(), suffix.end());

    auto path_or = MakePath(net, source, target, std::move(edges), weights);
    if (!path_or.ok()) {  // defensive: malformed joins are dropped
      if (stats != nullptr) ++stats->paths_rejected_filter;
      continue;
    }
    Path path = std::move(path_or).ValueOrDie();
    if (stats != nullptr) ++stats->paths_generated;

    const bool duplicate =
        std::any_of(out.routes.begin(), out.routes.end(),
                    [&](const Path& p) { return SameEdges(p, path); });
    if (duplicate) {
      if (stats != nullptr) ++stats->paths_rejected_similarity;
      continue;
    }
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
      PlateauAlternativesFromTrees(trees_->network(), trees_->weights(),
                                   trees_->forward(), trees_->backward(),
                                   options_, stats, cancel));
  out.work_settled_nodes = settled;
  return out;
}

}  // namespace altroute
