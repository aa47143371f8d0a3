#include "core/turn_aware_alternatives.h"

#include <unordered_set>

#include "core/dissimilarity.h"
#include "core/penalty.h"
#include "core/plateau.h"
#include "graph/graph_builder.h"

namespace altroute {

namespace {

/// Cost of the virtual arrival arcs: must be positive (builder invariant)
/// yet negligible against any real travel time.
constexpr double kEpsilonArcSeconds = 1e-3;

uint64_t RestrictionKey(EdgeId from, EdgeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

}  // namespace

Result<TurnExpandedNetwork> TurnExpandedNetwork::Build(
    const RoadNetwork& net, const TurnCostModel& model,
    std::span<const TurnRestriction> restrictions) {
  std::unordered_set<uint64_t> banned;
  for (const TurnRestriction& r : restrictions) {
    if (r.from_edge >= net.num_edges() || r.to_edge >= net.num_edges()) {
      return Status::InvalidArgument("turn restriction edge out of range");
    }
    if (net.head(r.from_edge) != net.tail(r.to_edge)) {
      return Status::InvalidArgument(
          "turn restriction edges do not share a via node");
    }
    banned.insert(RestrictionKey(r.from_edge, r.to_edge));
  }

  TurnExpandedNetwork out;
  GraphBuilder builder(net.name() + "-turn-expanded");

  // Gateways.
  out.out_gateway.resize(net.num_nodes());
  out.in_gateway.resize(net.num_nodes());
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    out.out_gateway[v] = builder.AddNode(net.coord(v));
    out.in_gateway[v] = builder.AddNode(net.coord(v));
  }
  // Edge states at segment midpoints.
  std::vector<NodeId> state(net.num_edges());
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    const LatLng& a = net.coord(net.tail(e));
    const LatLng& b = net.coord(net.head(e));
    state[e] = builder.AddNode(
        LatLng((a.lat + b.lat) / 2.0, (a.lng + b.lng) / 2.0));
  }

  auto maneuver_penalty = [&](EdgeId from, EdgeId to) -> double {
    if (banned.count(RestrictionKey(from, to))) return kInfCost;
    const bool u_turn =
        net.tail(from) == net.head(to) && net.head(from) == net.tail(to);
    if (u_turn) {
      return model.ban_u_turns ? kInfCost : model.u_turn_penalty_s;
    }
    const double angle = TurnAngleDegrees(net.coord(net.tail(from)),
                                          net.coord(net.head(from)),
                                          net.coord(net.head(to)));
    if (angle > model.sharp_threshold_deg) return model.sharp_turn_penalty_s;
    if (angle > model.turn_threshold_deg) return model.turn_penalty_s;
    return 0.0;
  };

  // The builder assigns edge ids by (tail, head) CSR order, not insertion
  // order, so original_edge must be filled after Build() via lookups. Track
  // what each (expanded tail, expanded head) pair means.
  struct PendingMeaning {
    NodeId tail;
    NodeId head;
    EdgeId original;
  };
  std::vector<PendingMeaning> meanings;

  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    // Departure: gateway_out(tail) -> state(e).
    builder.AddEdge(out.out_gateway[net.tail(e)], state[e], net.length_m(e),
                    net.travel_time_s(e), net.road_class(e));
    meanings.push_back({out.out_gateway[net.tail(e)], state[e], e});
    // Arrival: state(e) -> gateway_in(head).
    builder.AddEdge(state[e], out.in_gateway[net.head(e)], 0.0,
                    kEpsilonArcSeconds, net.road_class(e));
    meanings.push_back({state[e], out.in_gateway[net.head(e)], kInvalidEdge});
    // Maneuvers.
    for (EdgeId next : net.OutEdges(net.head(e))) {
      const double penalty = maneuver_penalty(e, next);
      if (penalty >= kInfCost) continue;
      builder.AddEdge(state[e], state[next], net.length_m(next),
                      net.travel_time_s(next) + penalty,
                      net.road_class(next));
      meanings.push_back({state[e], state[next], next});
    }
  }

  ALTROUTE_ASSIGN_OR_RETURN(out.expanded, builder.Build());

  out.original_edge.assign(out.expanded->num_edges(), kInvalidEdge);
  for (const PendingMeaning& m : meanings) {
    const EdgeId expanded_edge = out.expanded->FindEdge(m.tail, m.head);
    if (expanded_edge == kInvalidEdge) {
      return Status::Internal("expanded edge vanished during build");
    }
    out.original_edge[expanded_edge] = m.original;
  }
  return out;
}

Result<std::unique_ptr<TurnAwareAlternatives>> TurnAwareAlternatives::Create(
    std::shared_ptr<const RoadNetwork> net, TurnAwareBase base,
    const TurnCostModel& model, std::span<const TurnRestriction> restrictions,
    const AlternativeOptions& options) {
  if (net == nullptr) return Status::InvalidArgument("null network");
  auto generator =
      std::unique_ptr<TurnAwareAlternatives>(new TurnAwareAlternatives());
  generator->net_ = net;
  ALTROUTE_ASSIGN_OR_RETURN(generator->expansion_,
                            TurnExpandedNetwork::Build(*net, model,
                                                       restrictions));
  const auto& expanded = generator->expansion_.expanded;
  // Every arc of the expansion costs more than zero (arrival arcs
  // kEpsilonArcSeconds), so it contracts like any road network.
  ALTROUTE_ASSIGN_OR_RETURN(
      auto ch, ContractionHierarchy::Build(expanded, expanded->travel_times()));
  auto trees = std::make_shared<TreePair>(std::move(ch));
  switch (base) {
    case TurnAwareBase::kPlateaus:
      generator->inner_ =
          std::make_unique<PlateauGenerator>(std::move(trees), options);
      generator->name_ = "turn-aware-plateau";
      break;
    case TurnAwareBase::kDissimilarity:
      generator->inner_ =
          std::make_unique<DissimilarityGenerator>(std::move(trees), options);
      generator->name_ = "turn-aware-dissimilarity";
      break;
    case TurnAwareBase::kPenalty:
      generator->inner_ =
          std::make_unique<PenaltyGenerator>(std::move(trees), options);
      generator->name_ = "turn-aware-penalty";
      break;
  }
  return generator;
}

const std::vector<double>& TurnAwareAlternatives::weights() const {
  return inner_->weights();
}

Result<AlternativeSet> TurnAwareAlternatives::Generate(NodeId source,
                                                       NodeId target,
                                                       obs::SearchStats* stats,
                                                       CancellationToken* cancel) {
  if (source >= net_->num_nodes() || target >= net_->num_nodes()) {
    return Status::InvalidArgument("endpoint out of range");
  }
  ALTROUTE_ASSIGN_OR_RETURN(
      AlternativeSet expanded_set,
      inner_->Generate(expansion_.out_gateway[source],
                       expansion_.in_gateway[target], stats, cancel));

  AlternativeSet out;
  out.optimal_cost = expanded_set.optimal_cost;
  out.work_settled_nodes = expanded_set.work_settled_nodes;
  out.completion = expanded_set.completion;
  for (const Path& expanded_path : expanded_set.routes) {
    Path path;
    path.source = source;
    path.target = target;
    path.cost = expanded_path.cost;  // includes maneuver penalties
    for (EdgeId expanded_edge : expanded_path.edges) {
      const EdgeId original = expansion_.original_edge[expanded_edge];
      if (original == kInvalidEdge) continue;  // virtual arrival arc
      path.edges.push_back(original);
      path.length_m += net_->length_m(original);
      path.travel_time_s += net_->travel_time_s(original);
    }
    // Sanity: mapped edges must form a contiguous original path.
    NodeId cur = source;
    bool valid = true;
    for (EdgeId e : path.edges) {
      if (net_->tail(e) != cur) {
        valid = false;
        break;
      }
      cur = net_->head(e);
    }
    if (!valid || cur != target) {
      return Status::Internal("expanded route did not map to a valid path");
    }
    out.routes.push_back(std::move(path));
  }
  return out;
}

}  // namespace altroute
