// The Plateaus technique (paper Sec. 2.2, Choice Routing [11], analysed in
// [2]): join the forward shortest-path tree rooted at s with the backward
// tree rooted at t; maximal branches common to both trees are "plateaus".
// Longer plateaus yield more meaningful alternatives, so the top-k plateaus
// by length are turned into routes sp(s,u) + plateau(u,v) + sp(v,t).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/alternative_generator.h"
#include "routing/tree_pair.h"

namespace altroute {

/// A maximal common branch of the two trees.
struct Plateau {
  NodeId start = kInvalidNode;  // end closer to the source
  NodeId end = kInvalidNode;    // end closer to the target
  std::vector<EdgeId> edges;    // chain from start to end
  double length = 0.0;          // total weight of the chain (search weights)
  /// Cost of the full alternative route through this plateau.
  double route_cost = 0.0;
};

/// The Plateaus technique over a prebuilt tree pair: everything
/// PlateauGenerator does after its trees, shared with CommercialBaseline.
///
/// Only the few routes a query ships need a plateau's edges, so the scan
/// records each plateau as its ends, its first edge and its two costs, and
/// walks its edges again only when the ranking reaches it. An edge (u, v) is
/// a plateau edge iff it is the forward-tree parent of v and the
/// backward-tree parent of u, which the scan reads off the two parent
/// arrays. The records are reused across calls, so a scan allocates only
/// the routes it builds. Not thread-safe.
class PlateauScan {
 public:
  /// Plateau routes from `fwd` (forward tree rooted at the source) and
  /// `bwd` (backward tree rooted at the target), both built over `weights`
  /// with their parent edges. routes[0] is the shortest path; plateau
  /// routes follow in descending plateau length. NotFound when the target
  /// is unreached. `work_settled_nodes` is left to the caller, which built
  /// the trees.
  Result<AlternativeSet> Run(const RoadNetwork& net,
                             std::span<const double> weights,
                             const ShortestPathTree& fwd,
                             const ShortestPathTree& bwd,
                             const AlternativeOptions& options,
                             obs::SearchStats* stats = nullptr,
                             CancellationToken* cancel = nullptr);

  /// All plateaus of the pair in descending length order, with no stretch
  /// filtering and no k cap.
  std::vector<Plateau> All(const RoadNetwork& net,
                           std::span<const double> weights,
                           const ShortestPathTree& fwd,
                           const ShortestPathTree& bwd);

 private:
  /// A plateau without its edges.
  struct Record {
    double length;      // as Plateau::length
    double route_cost;  // as Plateau::route_cost
    NodeId start;
    NodeId end;
    EdgeId first;  // the edge out of `start`
  };

  /// Fills records_ with every plateau of the pair in descending length
  /// order.
  void FindPlateaus(const RoadNetwork& net, std::span<const double> weights,
                    const ShortestPathTree& fwd, const ShortestPathTree& bwd);

  std::vector<Record> records_;
  std::vector<EdgeId> edges_;  // the route being assembled
};

class PlateauGenerator final : public AlternativeRouteGenerator {
 public:
  /// Reads its trees off `trees`, which other generators may share. The
  /// name "plateau_ch" marks trees built by PHAST sweeps over a hierarchy.
  explicit PlateauGenerator(std::shared_ptr<TreePair> trees,
                            const AlternativeOptions& options = {});

  const std::string& name() const override { return name_; }
  const std::vector<double>& weights() const override {
    return trees_->weights();
  }

  Result<AlternativeSet> Generate(NodeId source, NodeId target,
                                  obs::SearchStats* stats = nullptr,
                                  CancellationToken* cancel = nullptr) override;

  /// Exposed for tests and the Fig. 1 walkthrough: all plateaus of the query
  /// in descending length order (no stretch filtering, no k cap).
  Result<std::vector<Plateau>> ComputePlateaus(NodeId source, NodeId target);

 private:
  std::string name_ = "plateau_ch";
  std::shared_ptr<TreePair> trees_;
  TreePair::Reader reader_;
  AlternativeOptions options_;
  PlateauScan scan_;
};

}  // namespace altroute
