// The two shortest-path trees the Plateaus and Dissimilarity techniques read
// their routes off (paper Sec. 2.2-2.3; Dees et al.): a forward tree from s
// and a backward tree to t over one weight vector. The backward tree's
// distances are also Penalty's exact A* potential. Plateaus, Dissimilarity
// and Penalty share one TreePair over the display weights, so a /route
// builds these trees once, not once per engine; Commercial reads its own
// pair over the commercial weights.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "routing/contraction_hierarchy.h"
#include "routing/phast.h"

namespace altroute {

/// A forward tree from a source and a backward tree to a target over the
/// weight vector a hierarchy was built over, kept in buffers reused across
/// builds. Each tree is one PHAST run over the hierarchy that records each
/// node's tree edge as it sets the node's label (Phast::TreeInto). Several
/// consumers may share one pair: the first to ask for a query builds what
/// it needs (and is charged for it in its SearchStats), the others read it.
/// Not thread-safe.
///
/// A pair lives for one request. Reset() starts the next one, and a consumer
/// asking again for a pair it has already read starts a new pair too, so
/// direct per-engine calls charge work exactly as a request does.
class TreePair {
 public:
  /// What a consumer reads off the pair.
  enum class Need {
    /// The backward tree's distances only (Penalty's A* potential): one
    /// backward sweep and no forward one.
    kBackwardDistances,
    /// Both trees with their parent edges (Plateaus, SSVP-D+).
    kBothTrees,
  };

  /// A consumer's read position: which pair it read last.
  class Reader {
   private:
    friend class TreePair;
    uint64_t pair_ = 0;  // 0: none yet
  };

  /// The pair's trees run over `ch`'s network and the weights it was built
  /// over.
  explicit TreePair(std::shared_ptr<const ContractionHierarchy> ch);

  TreePair(const TreePair&) = delete;
  TreePair& operator=(const TreePair&) = delete;

  /// Starts a new request: the next Acquire builds whatever it needs.
  void Reset();

  /// Makes what `need` asks for available for the query source -> target.
  /// The current pair is read when it is for this query and `reader` has not
  /// read it yet; otherwise a new pair is started. Only the missing trees
  /// are built; their work is accumulated into `stats`. Returns the nodes
  /// settled building (0 when everything was read). A failed or cancelled
  /// build leaves no pair behind: the next Acquire builds afresh.
  Result<size_t> Acquire(NodeId source, NodeId target, Need need,
                         Reader* reader, obs::SearchStats* stats = nullptr,
                         CancellationToken* cancel = nullptr);

  /// The forward tree from the source; valid after Acquire(kBothTrees).
  const ShortestPathTree& forward() const { return fwd_; }
  /// The backward tree to the target, with its parent edges; valid after
  /// any Acquire. Its distances are the raw search labels.
  const ShortestPathTree& backward() const { return bwd_; }

  const RoadNetwork& network() const { return phast_.hierarchy().network(); }
  const std::vector<double>& weights() const {
    return phast_.hierarchy().weights();
  }

 private:
  /// Forgets the current pair; readers of it will not find it again.
  void StartPair(NodeId source, NodeId target);

  /// Builds the tree in `direction`: forward from the source, backward to
  /// the target.
  Status Build(SearchDirection direction, obs::SearchStats* stats,
               CancellationToken* cancel);

  Phast phast_;

  ShortestPathTree fwd_;
  ShortestPathTree bwd_;
  uint64_t pair_ = 1;  // id of the current pair
  NodeId source_ = kInvalidNode;
  NodeId target_ = kInvalidNode;
  bool has_forward_ = false;
  bool has_backward_ = false;
};

}  // namespace altroute
