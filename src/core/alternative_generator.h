// The common interface of all alternative-route generators and the shared
// option block. Parameter defaults are exactly the paper's (Sec. 3,
// "Parameter Details"): penalty factor 1.4, stretch upper bound 1.4,
// dissimilarity threshold 0.5, up to 3 routes displayed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/path.h"
#include "graph/road_network.h"
#include "obs/search_stats.h"
#include "util/deadline.h"
#include "util/result.h"

namespace altroute {

/// Shared knobs. Individual generators ignore parameters that do not apply
/// to them (e.g. Plateaus ignores penalty_factor).
struct AlternativeOptions {
  /// Maximum number of routes reported (paper: up to 3).
  int max_routes = 3;
  /// No reported route may cost more than this factor times the optimum
  /// (paper: 1.4, the "upper bound" of [2]).
  double stretch_bound = 1.4;
  /// Penalty method: multiply used edge weights by this factor per iteration
  /// (paper: 1.4, following [4]).
  double penalty_factor = 1.4;
  /// Dissimilarity method: candidate accepted iff its dissimilarity to every
  /// accepted path exceeds this threshold (paper: 0.5, following [9, 10]).
  double dissimilarity_threshold = 0.5;
  /// Safety valve for iterative methods (Penalty): hard cap on iterations.
  int max_iterations = 30;
};

/// A generated set of alternatives. routes[0] is always the fastest path
/// under the generator's weights; the rest are the alternatives in the
/// generator's own ranking order.
struct AlternativeSet {
  std::vector<Path> routes;
  /// Optimal (fastest-path) cost under the generator's search weights.
  double optimal_cost = 0.0;
  /// Instrumentation: settled nodes / iterations the generator spent.
  size_t work_settled_nodes = 0;
  /// OK when the generator ran to completion; DeadlineExceeded when it was
  /// cancelled after finding the shortest path, in which case `routes` holds
  /// whatever alternatives were ready (a partial but usable answer).
  Status completion = Status::OK();
};

/// Interface implemented by Penalty, Plateaus, Dissimilarity and the
/// commercial baseline. Implementations are constructed with a network and a
/// weight vector and answer repeated queries; they are not thread-safe.
class AlternativeRouteGenerator {
 public:
  virtual ~AlternativeRouteGenerator() = default;

  /// Technique name ("commercial", "plateau_ch", "dissimilarity",
  /// "penalty_ch", ...).
  virtual const std::string& name() const = 0;

  /// Computes alternatives from `source` to `target`. Returns NotFound when
  /// no s-t path exists, InvalidArgument on bad node ids. When `stats` is
  /// non-null, search counters (settled nodes, relaxed edges, generated and
  /// rejected candidates) are accumulated into it; passing nullptr (the
  /// default) disables collection at zero cost.
  ///
  /// When `cancel` is non-null the generator polls it cooperatively. If it
  /// fires before the shortest path is known the call fails with
  /// DeadlineExceeded; if it fires later the call succeeds with the routes
  /// found so far and `AlternativeSet::completion` set to DeadlineExceeded.
  virtual Result<AlternativeSet> Generate(NodeId source, NodeId target,
                                          obs::SearchStats* stats = nullptr,
                                          CancellationToken* cancel = nullptr) = 0;

  /// The weight vector the generator searches with (one entry per edge).
  virtual const std::vector<double>& weights() const = 0;
};

}  // namespace altroute
