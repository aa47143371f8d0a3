// The Penalty technique (paper Sec. 2.1, following [3, 7]): iteratively
// re-run the shortest-path search, multiplying the weights of edges used by
// the previous result by a penalty factor, until k sufficiently distinct
// paths within the stretch bound are collected.
#pragma once

#include <memory>

#include "core/alternative_generator.h"
#include "routing/dijkstra.h"
#include "routing/tree_pair.h"

namespace altroute {

/// Every inner search is goal-directed A* whose potential is the exact
/// distance to the target under the unpenalized weights: the backward
/// tree's distances of a TreePair. The potential stays admissible across
/// iterations because penalties only grow weights.
class PenaltyGenerator final : public AlternativeRouteGenerator {
 public:
  /// Reads its potential off `trees`, which other generators may share: one
  /// backward PHAST sweep, which the name "penalty_ch" marks. The penalty
  /// overlay never mutates the pair's weights or network.
  explicit PenaltyGenerator(std::shared_ptr<TreePair> trees,
                            const AlternativeOptions& options = {});

  const std::string& name() const override { return name_; }
  const std::vector<double>& weights() const override {
    return trees_->weights();
  }

  Result<AlternativeSet> Generate(NodeId source, NodeId target,
                                  obs::SearchStats* stats = nullptr,
                                  CancellationToken* cancel = nullptr) override;

 private:
  /// Multiplies the penalty factor into every edge between the endpoints of
  /// `e`, both directions. Parallel edges (dual carriageways digitized as
  /// multi-edges) must all be penalized, or the next search sidesteps the
  /// penalty through an untouched twin.
  void PenalizeStreet(EdgeId e);

  std::string name_ = "penalty_ch";
  std::shared_ptr<TreePair> trees_;
  TreePair::Reader reader_;
  AlternativeOptions options_;
  Dijkstra dijkstra_;
  std::vector<double> penalized_;  // workspace reused across queries
};

}  // namespace altroute
