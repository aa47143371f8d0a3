#include "routing/tree_pair.h"

namespace altroute {

TreePair::TreePair(std::shared_ptr<const ContractionHierarchy> ch)
    : phast_(std::move(ch)) {}

void TreePair::StartPair(NodeId source, NodeId target) {
  ++pair_;
  source_ = source;
  target_ = target;
  has_forward_ = false;
  has_backward_ = false;
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
  if (both && !has_forward_) {
    status = Build(SearchDirection::kForward, &local, cancel);
  }
  if (status.ok() && !has_backward_) {
    status = Build(SearchDirection::kBackward, &local, cancel);
  }
  if (stats != nullptr) stats->MergeFrom(local);
  if (!status.ok()) {
    Reset();  // never keep a half-built pair
    return status;
  }
  reader->pair_ = pair_;
  return static_cast<size_t>(local.nodes_settled);
}

Status TreePair::Build(SearchDirection direction, obs::SearchStats* stats,
                       CancellationToken* cancel) {
  const bool forward = direction == SearchDirection::kForward;
  ALTROUTE_RETURN_NOT_OK(phast_.TreeInto(forward ? source_ : target_,
                                         direction, forward ? &fwd_ : &bwd_,
                                         stats, cancel));
  ++stats->trees_built;
  (forward ? has_forward_ : has_backward_) = true;
  return Status::OK();
}

}  // namespace altroute
