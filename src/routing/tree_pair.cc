#include "routing/tree_pair.h"

#include <algorithm>

#include "util/check.h"

namespace altroute {

TreePair::TreePair(std::shared_ptr<const ContractionHierarchy> ch)
    : phast_(std::move(ch)) {}

void TreePair::StartPair(NodeId source, NodeId target) {
  ++pair_;
  source_ = source;
  target_ = target;
  has_forward_ = false;
  has_backward_ = false;
  has_backward_parents_ = false;
}

void TreePair::Reset() { StartPair(kInvalidNode, kInvalidNode); }

Result<size_t> TreePair::Acquire(NodeId source, NodeId target, Need need,
                                 Reader* reader, obs::SearchStats* stats,
                                 CancellationToken* cancel) {
  const size_t n = network().num_nodes();
  if (source >= n) return Status::InvalidArgument("source node out of range");
  if (target >= n) return Status::InvalidArgument("target node out of range");
  if (reader->pair_ == pair_ || source != source_ || target != target_) {
    StartPair(source, target);
  }

  const bool both = need == Need::kBothTrees;
  obs::SearchStats local;
  Status status = Status::OK();
  if (both && !has_forward_) status = BuildForward(&local, cancel);
  if (status.ok()) status = BuildBackward(both, &local, cancel);
  if (stats != nullptr) stats->MergeFrom(local);
  if (!status.ok()) {
    Reset();  // never keep a half-built pair
    return status;
  }
  reader->pair_ = pair_;
  return static_cast<size_t>(local.nodes_settled);
}

Status TreePair::BuildForward(obs::SearchStats* stats,
                              CancellationToken* cancel) {
  fwd_.root = source_;
  fwd_.direction = SearchDirection::kForward;
  fwd_.dist.resize(network().num_nodes());
  ALTROUTE_RETURN_NOT_OK(phast_.DistancesInto(
      source_, SearchDirection::kForward, fwd_.dist, stats, cancel));
  DeriveParents(&fwd_);
  ++stats->trees_built;
  has_forward_ = true;
  return Status::OK();
}

Status TreePair::BuildBackward(bool parents, obs::SearchStats* stats,
                               CancellationToken* cancel) {
  if (!has_backward_) {
    bwd_.root = target_;
    bwd_.direction = SearchDirection::kBackward;
    bwd_.dist.resize(network().num_nodes());
    ALTROUTE_RETURN_NOT_OK(phast_.DistancesInto(
        target_, SearchDirection::kBackward, bwd_.dist, stats, cancel));
    ++stats->trees_built;
    has_backward_ = true;
  }
  if (parents && !has_backward_parents_) {
    DeriveParents(&bwd_);
    has_backward_parents_ = true;
  }
  return Status::OK();
}

void TreePair::DeriveParents(ShortestPathTree* tree) {
  const RoadNetwork& net = network();
  const std::vector<double>& weights = this->weights();
  const bool forward = tree->direction == SearchDirection::kForward;
  tree->parent_edge.assign(net.num_nodes(), kInvalidEdge);
  uint64_t demoted = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    const double dv = tree->dist[v];
    if (v == tree->root || dv == kInfCost) continue;
    // PHAST labels are sums along shortcut arcs, so an original tree edge
    // matches only up to re-association noise. The strict `<` on the
    // neighbour label guarantees acyclicity (weights are positive).
    const double tol = 1e-9 * std::max(1.0, dv);
    const auto edges = forward ? net.InEdges(v) : net.OutEdges(v);
    for (EdgeId e : edges) {
      const NodeId u = forward ? net.tail(e) : net.head(e);
      const double du = tree->dist[u];
      if (du < dv && du + weights[e] <= dv + tol) {
        tree->parent_edge[v] = e;
        break;
      }
    }
    // No matching edge (possible only if accumulated shortcut error exceeds
    // the tolerance): v keeps its label, which Penalty's potential reads,
    // but gets no parent, so the joins skip it as a broken chain.
    if (tree->parent_edge[v] == kInvalidEdge) ++demoted;
  }
  tree->demoted = demoted;
  demotions_ += demoted;
  ALT_DCHECK_EQ(demoted, 0u) << "PHAST labels no original edge realises";
}

}  // namespace altroute
