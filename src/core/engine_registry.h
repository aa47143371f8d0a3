// The paper's four-approach suite with its A-D identity masking (Sec. 3:
// "A: Google Maps, B: Plateaus, C: Dissimilarity and D: Penalty").
#pragma once

#include <array>
#include <memory>
#include <string_view>
#include <vector>

#include "core/alternative_generator.h"
#include "routing/contraction_hierarchy.h"
#include "routing/tree_pair.h"
#include "util/result.h"

namespace altroute {

/// The four approaches compared in the user study, in the paper's masking
/// order (A-D).
enum class Approach : int {
  kGoogleMaps = 0,    // commercial baseline on divergent data
  kPlateaus = 1,
  kDissimilarity = 2,
  kPenalty = 3,
};

inline constexpr int kNumApproaches = 4;
inline constexpr std::array<Approach, kNumApproaches> kAllApproaches = {
    Approach::kGoogleMaps, Approach::kPlateaus, Approach::kDissimilarity,
    Approach::kPenalty};

/// Human name as used in the paper's tables.
std::string_view ApproachName(Approach a);

/// Masked label shown to study participants ('A'..'D').
char ApproachLabel(Approach a);

/// The full suite: one engine per approach over a single network. The three
/// OSM-based engines share the network's free-flow weights and one tree pair
/// over them; the commercial engine gets its own divergent weight vector and
/// its own tree pair. With a hierarchy both pairs build by PHAST, the
/// commercial one over a second hierarchy contracted in the first one's
/// order.
class EngineSuite {
 public:
  /// Builds the paper's configuration: Penalty/Plateaus/Dissimilarity on
  /// free-flow OSM weights, CommercialBaseline on CommercialTrafficModel
  /// weights at `commercial_hour` (paper queries Google at 3:00 am).
  /// `display_weights` lets several suites over the same network share one
  /// free-flow weight vector instead of each recomputing it; pass nullptr to
  /// compute it here. Its size must match the network's edge count.
  ///
  /// A non-null `ch` (a contraction hierarchy built over the SAME network
  /// and exactly the display weights; InvalidArgument otherwise) makes the
  /// shared tree pair build by PHAST sweeps ("plateau_ch", "penalty_ch").
  /// The commercial weights are then contracted in `ch`'s order
  /// (ContractionHierarchy::BuildInOrder), and the commercial pair builds by
  /// PHAST over that second hierarchy too. Without `ch` both pairs build by
  /// Dijkstra ("plateau", "penalty"). The hierarchies are immutable and
  /// shared across suites/workers.
  static Result<EngineSuite> MakePaperSuite(
      std::shared_ptr<const RoadNetwork> net,
      const AlternativeOptions& options = {}, int commercial_hour = 3,
      std::shared_ptr<const std::vector<double>> display_weights = nullptr,
      std::shared_ptr<const ContractionHierarchy> ch = nullptr);

  /// Another suite over the same network, weight vectors and hierarchies,
  /// with its own engines, tree pairs and search workspaces (what each
  /// server worker needs). Nothing immutable is copied.
  EngineSuite Replicate() const;

  AlternativeRouteGenerator& engine(Approach a) {
    return *engines_[static_cast<size_t>(a)];
  }
  const RoadNetwork& network() const { return *net_; }
  std::shared_ptr<const RoadNetwork> network_ptr() const { return net_; }

  /// Free-flow OSM weights (what the demo uses to *display* travel times for
  /// all four approaches, paper Sec. 3 "Query Processor").
  const std::vector<double>& display_weights() const {
    return *display_weights_;
  }
  /// The shared handle, for building further suites over the same network.
  std::shared_ptr<const std::vector<double>> display_weights_ptr() const {
    return display_weights_;
  }

  /// The tree pair over the display weights that Plateaus, Dissimilarity
  /// and Penalty share. It holds one request's trees: whichever of the
  /// three runs first builds them, the others read them. A caller serving
  /// a request resets it first (see QueryProcessor::Process).
  TreePair& display_trees() { return *display_trees_; }

  /// The commercial engine's private tree pair over the commercial weights.
  TreePair& commercial_trees() { return *commercial_trees_; }

  /// The display-weight hierarchy the suite was built with; null for the
  /// plain-Dijkstra configuration. Lets callers (bench, debug endpoints)
  /// detect which execution path is live and build further CH consumers.
  std::shared_ptr<const ContractionHierarchy> ch() const { return ch_; }

 private:
  EngineSuite() = default;

  /// Creates the engines and tree pairs over the suite's shared data.
  void BuildEngines();

  std::shared_ptr<const RoadNetwork> net_;
  std::shared_ptr<const std::vector<double>> display_weights_;
  std::shared_ptr<const std::vector<double>> commercial_weights_;
  std::shared_ptr<const ContractionHierarchy> ch_;
  // The commercial weights contracted in ch_'s order; null without ch_.
  std::shared_ptr<const ContractionHierarchy> commercial_ch_;
  AlternativeOptions options_;
  std::shared_ptr<TreePair> display_trees_;
  std::shared_ptr<TreePair> commercial_trees_;
  std::array<std::unique_ptr<AlternativeRouteGenerator>, kNumApproaches> engines_;
};

}  // namespace altroute
