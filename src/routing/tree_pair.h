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
#include "routing/dijkstra.h"
#include "routing/phast.h"

namespace altroute {

/// A forward tree from a source and a backward tree to a target over one
/// weight vector, kept in buffers reused across builds. With a hierarchy
/// over that weight vector it builds by PHAST sweeps plus parents derived
/// from the distance labels; without one, by Dijkstra. Several consumers
/// may share one pair: the first to ask for a query builds what it needs
/// (and is charged for it in its SearchStats), the others read it. Not
/// thread-safe.
///
/// A pair lives for one request. Reset() starts the next one, and a consumer
/// asking again for a pair it has already read starts a new pair too, so
/// direct per-engine calls charge work exactly as a request does.
class TreePair {
 public:
  /// What a consumer reads off the pair.
  enum class Need {
    /// The backward tree's distances only (Penalty's A* potential): with a
    /// hierarchy, one backward sweep and no parents.
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

  /// `weights` has one entry per edge of `net`. With a non-null `ch`, which
  /// must be built over the same network and exactly these weights, the
  /// pair builds by PHAST sweeps; without one, by Dijkstra.
  TreePair(std::shared_ptr<const RoadNetwork> net,
           std::shared_ptr<const std::vector<double>> weights,
           std::shared_ptr<const ContractionHierarchy> ch = nullptr);

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
  /// The backward tree to the target. Its distances are valid after any
  /// Acquire; its parent edges only after Acquire(kBothTrees). The
  /// distances are the raw search labels: deriving parents never changes
  /// them.
  const ShortestPathTree& backward() const { return bwd_; }

  const RoadNetwork& network() const { return *net_; }
  const std::vector<double>& weights() const { return *weights_; }
  bool has_hierarchy() const { return phast_ != nullptr; }

  /// Reached nodes for which deriving parents found no incident edge that
  /// realises the node's label, over the pair's life. Such a node keeps its
  /// label but gets no parent, so walks through it see a broken chain and
  /// skip it. Only floating-point error beyond the tolerance can cause one;
  /// always 0 with Dijkstra.
  uint64_t demotions() const { return demotions_; }

 private:
  /// Forgets the current pair; readers of it will not find it again.
  void StartPair(NodeId source, NodeId target);

  Status BuildForward(obs::SearchStats* stats, CancellationToken* cancel);
  Status BuildBackward(bool parents, obs::SearchStats* stats,
                       CancellationToken* cancel);

  /// Fills parent_edge from the distance labels: the tree edge of v is an
  /// incident edge realising dist[v] (within re-association tolerance, since
  /// PHAST sums along shortcuts). Strictly decreasing labels keep the
  /// derived parents acyclic.
  void DeriveParents(ShortestPathTree* tree);

  std::shared_ptr<const RoadNetwork> net_;
  std::shared_ptr<const std::vector<double>> weights_;
  // Exactly one builder is set: PHAST sweeps or Dijkstra.
  std::unique_ptr<Phast> phast_;
  std::unique_ptr<Dijkstra> dijkstra_;

  ShortestPathTree fwd_;
  ShortestPathTree bwd_;
  uint64_t pair_ = 1;  // id of the current pair
  NodeId source_ = kInvalidNode;
  NodeId target_ = kInvalidNode;
  bool has_forward_ = false;
  bool has_backward_ = false;
  bool has_backward_parents_ = false;
  uint64_t demotions_ = 0;
};

}  // namespace altroute
