// The Plateaus technique (paper Sec. 2.2, Choice Routing [11], analysed in
// [2]): join the forward shortest-path tree rooted at s with the backward
// tree rooted at t; maximal branches common to both trees are "plateaus".
// Longer plateaus yield more meaningful alternatives, so the top-k plateaus
// by length are turned into routes sp(s,u) + plateau(u,v) + sp(v,t).
#pragma once

#include <memory>
#include <span>

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
/// routes[0] is the shortest path; plateau routes follow in descending
/// plateau length. NotFound when the target is unreached.
/// `work_settled_nodes` is left to the caller, which built the trees.
Result<AlternativeSet> PlateauAlternativesFromTrees(
    const RoadNetwork& net, std::span<const double> weights,
    const ShortestPathTree& fwd, const ShortestPathTree& bwd,
    const AlternativeOptions& options, obs::SearchStats* stats = nullptr,
    CancellationToken* cancel = nullptr);

class PlateauGenerator final : public AlternativeRouteGenerator {
 public:
  /// Plain variant ("plateau"): a private tree pair built by Dijkstra.
  PlateauGenerator(std::shared_ptr<const RoadNetwork> net,
                   std::vector<double> weights,
                   const AlternativeOptions& options = {});

  /// CH-backed variant ("plateau_ch"): a private tree pair built by PHAST
  /// sweeps over `ch` (built over the same network and `weights`), with
  /// tree parents derived from the distance labels. Plateau detection and
  /// route assembly are unchanged.
  PlateauGenerator(std::shared_ptr<const RoadNetwork> net,
                   std::vector<double> weights,
                   std::shared_ptr<const ContractionHierarchy> ch,
                   const AlternativeOptions& options = {});

  /// Reads its trees off `trees`, which other generators may share; named
  /// "plateau_ch" when the pair builds over a hierarchy.
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
  std::string name_;
  std::shared_ptr<TreePair> trees_;
  TreePair::Reader reader_;
  AlternativeOptions options_;
};

}  // namespace altroute
