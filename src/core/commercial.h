// CommercialBaseline: the stand-in for Google Maps (DESIGN.md Sec. 2). The
// paper treats Google Maps as a black box characterised by three properties:
// (1) it optimises travel time on its *own* (traffic-derived) data, (2) it
// applies additional proprietary filtering/ranking criteria (Sec. 4.2), and
// (3) it reports up to 3 routes. This engine reproduces exactly those
// properties: plateau+via-node candidate generation over a divergent
// commercial weight vector, followed by perceptual ranking and similarity
// pruning.
#pragma once

#include <memory>

#include "core/alternative_generator.h"
#include "core/dissimilarity.h"
#include "core/filters.h"
#include "core/plateau.h"
#include "routing/tree_pair.h"

namespace altroute {

class CommercialBaseline final : public AlternativeRouteGenerator {
 public:
  /// Reads its trees off `trees`, a pair over the commercial weights: those
  /// of a CommercialTrafficModel, so the engine "sees" different data than
  /// the OSM-based engines.
  explicit CommercialBaseline(std::shared_ptr<TreePair> trees,
                              const AlternativeOptions& options = {});

  const std::string& name() const override { return name_; }
  const std::vector<double>& weights() const override {
    return trees_->weights();
  }

  Result<AlternativeSet> Generate(NodeId source, NodeId target,
                                  obs::SearchStats* stats = nullptr,
                                  CancellationToken* cancel = nullptr) override;

 private:
  std::string name_ = "commercial";
  std::shared_ptr<TreePair> trees_;
  TreePair::Reader reader_;
  AlternativeOptions options_;
  // The two candidate stages keep more routes than are finally reported,
  // over one shared tree pair; the plateau stage also a looser bound.
  AlternativeOptions plateau_options_;
  AlternativeOptions via_options_;
  PlateauScan plateau_scan_;
  DissimilarityScan via_scan_;
};

}  // namespace altroute
