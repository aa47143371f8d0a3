#include "core/engine_registry.h"

#include "core/commercial.h"
#include "core/dissimilarity.h"
#include "core/penalty.h"
#include "core/plateau.h"
#include "traffic/traffic_model.h"
#include "util/check.h"

namespace altroute {

std::string_view ApproachName(Approach a) {
  switch (a) {
    case Approach::kGoogleMaps:
      return "Google Maps";
    case Approach::kPlateaus:
      return "Plateaus";
    case Approach::kDissimilarity:
      return "Dissimilarity";
    case Approach::kPenalty:
      return "Penalty";
  }
  ALT_UNREACHABLE() << "approach " << static_cast<int>(a);
}

char ApproachLabel(Approach a) {
  return static_cast<char>('A' + static_cast<int>(a));
}

Result<EngineSuite> EngineSuite::MakePaperSuite(
    std::shared_ptr<const RoadNetwork> net, const AlternativeOptions& options,
    int commercial_hour,
    std::shared_ptr<const std::vector<double>> display_weights,
    std::shared_ptr<const ContractionHierarchy> ch) {
  if (net == nullptr) return Status::InvalidArgument("null network");
  if (net->num_nodes() == 0) return Status::InvalidArgument("empty network");
  if (display_weights == nullptr) {
    display_weights = std::make_shared<const std::vector<double>>(
        FreeFlowModel().Weights(*net));
  } else if (display_weights->size() != net->num_edges()) {
    return Status::InvalidArgument(
        "display_weights size does not match the network's edge count");
  }
  if (ch != nullptr) {
    if (&ch->network() != net.get()) {
      return Status::InvalidArgument(
          "hierarchy was built over a different network");
    }
    // Three engines read routes off the hierarchy's labels; over other
    // weights no original edge would realise them and routes would be lost
    // without an error.
    if (!ch->BuiltOver(*display_weights)) {
      return Status::InvalidArgument(
          "hierarchy was built over other weights than the display weights");
    }
  }

  EngineSuite suite;
  suite.net_ = std::move(net);
  suite.display_weights_ = std::move(display_weights);
  suite.commercial_weights_ = std::make_shared<const std::vector<double>>(
      CommercialTrafficModel(commercial_hour).Weights(*suite.net_));
  if (ch != nullptr) {
    // The commercial weights scale the display weights per road class, so
    // the display order suits them and skips the priority queue.
    ALTROUTE_ASSIGN_OR_RETURN(
        suite.commercial_ch_,
        ContractionHierarchy::BuildInOrder(
            suite.net_, *suite.commercial_weights_, ch->ranks()));
  }
  suite.ch_ = std::move(ch);
  suite.options_ = options;
  suite.BuildEngines();
  return suite;
}

EngineSuite EngineSuite::Replicate() const {
  EngineSuite copy;
  copy.net_ = net_;
  copy.display_weights_ = display_weights_;
  copy.commercial_weights_ = commercial_weights_;
  copy.ch_ = ch_;
  copy.commercial_ch_ = commercial_ch_;
  copy.options_ = options_;
  copy.BuildEngines();
  return copy;
}

void EngineSuite::BuildEngines() {
  display_trees_ = std::make_shared<TreePair>(net_, display_weights_, ch_);
  commercial_trees_ =
      std::make_shared<TreePair>(net_, commercial_weights_, commercial_ch_);
  engines_[static_cast<size_t>(Approach::kGoogleMaps)] =
      std::make_unique<CommercialBaseline>(commercial_trees_, options_);
  engines_[static_cast<size_t>(Approach::kPlateaus)] =
      std::make_unique<PlateauGenerator>(display_trees_, options_);
  engines_[static_cast<size_t>(Approach::kDissimilarity)] =
      std::make_unique<DissimilarityGenerator>(display_trees_, options_);
  engines_[static_cast<size_t>(Approach::kPenalty)] =
      std::make_unique<PenaltyGenerator>(display_trees_, options_);
}

}  // namespace altroute
