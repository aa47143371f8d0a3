#include "routing/contraction_hierarchy.h"

#include <algorithm>
#include <cmath>

#include "routing/indexed_heap.h"
#include "util/check.h"

namespace altroute {

namespace {

/// Live multigraph used during contraction: per-node arc-id lists that shrink
/// as neighbors get contracted and grow as shortcuts are added.
struct LiveGraph {
  std::vector<std::vector<uint32_t>> out;  // arc ids leaving node
  std::vector<std::vector<uint32_t>> in;   // arc ids entering node
};

/// Local Dijkstra for witness searches: bounded settle count and cost.
class WitnessSearch {
 public:
  explicit WitnessSearch(size_t n) : dist_(n, kInfCost), stamp_(n, 0), heap_(n) {}

  /// Shortest u->w distance avoiding `banned`, giving up (returning kInfCost
  /// conservatively may force a redundant shortcut but never breaks
  /// correctness) after `settle_limit` settles or when cost exceeds `bound`.
  /// `targets_left` lets the caller stop early once all targets are settled.
  void Run(const std::vector<ContractionHierarchy::Arc>& arcs,
           const LiveGraph& live, const std::vector<bool>& contracted,
           NodeId source, NodeId banned, double bound, size_t settle_limit) {
    ++stamp_now_;
    heap_.Clear();
    Relax(source, 0.0);
    size_t settled = 0;
    while (!heap_.Empty() && settled < settle_limit) {
      const auto [u, du] = heap_.PopMin();
      if (du > bound) break;
      ++settled;
      for (uint32_t aid : live.out[u]) {
        const auto& a = arcs[aid];
        if (a.to == banned || contracted[a.to]) continue;
        Relax(a.to, du + a.weight);
      }
    }
  }

  double DistanceTo(NodeId v) const {
    return stamp_[v] == stamp_now_ ? dist_[v] : kInfCost;
  }

 private:
  void Relax(NodeId v, double d) {
    if (stamp_[v] != stamp_now_ || d < dist_[v]) {
      stamp_[v] = stamp_now_;
      dist_[v] = d;
      heap_.PushOrDecrease(v, d);
    }
  }

  std::vector<double> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t stamp_now_ = 0;
  IndexedHeap<double> heap_;
};

}  // namespace

Result<std::shared_ptr<const ContractionHierarchy>> ContractionHierarchy::Build(
    std::shared_ptr<const RoadNetwork> net, std::span<const double> weights,
    const ChOptions& options) {
  if (net == nullptr) return Status::InvalidArgument("null network");
  if (weights.size() != net->num_edges()) {
    return Status::InvalidArgument("weight vector size mismatch");
  }
  for (double w : weights) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("CH weights must be positive and finite");
    }
  }

  const size_t n = net->num_nodes();
  auto ch = std::shared_ptr<ContractionHierarchy>(new ContractionHierarchy());
  ch->net_ = net;
  ch->rank_.assign(n, 0);

  // Seed arcs from the original edges.
  LiveGraph live;
  live.out.resize(n);
  live.in.resize(n);
  ch->arcs_.reserve(net->num_edges() * 2);
  for (EdgeId e = 0; e < net->num_edges(); ++e) {
    const uint32_t aid = static_cast<uint32_t>(ch->arcs_.size());
    ch->arcs_.push_back(
        {net->tail(e), net->head(e), weights[e], e, kNoChild, kNoChild});
    live.out[net->tail(e)].push_back(aid);
    live.in[net->head(e)].push_back(aid);
  }

  std::vector<bool> contracted(n, false);
  std::vector<uint32_t> deleted_neighbors(n, 0);
  WitnessSearch witness(n);

  // Simulates or performs the contraction of `v`. When `commit` is true the
  // shortcuts are added to the arc set and live graph; otherwise only the
  // shortcut count is computed (for priority evaluation).
  auto contract = [&](NodeId v, bool commit) -> int {
    int shortcuts = 0;
    int removed = 0;
    for (uint32_t in_aid : live.in[v]) {
      if (contracted[ch->arcs_[in_aid].from]) continue;
      ++removed;
    }
    for (uint32_t out_aid : live.out[v]) {
      if (contracted[ch->arcs_[out_aid].to]) continue;
      ++removed;
    }
    for (uint32_t in_aid : live.in[v]) {
      const Arc in_arc = ch->arcs_[in_aid];
      const NodeId u = in_arc.from;
      if (contracted[u] || u == v) continue;
      // Bound for witness search: longest potential shortcut via v from u.
      double max_via = 0.0;
      for (uint32_t out_aid : live.out[v]) {
        const Arc& out_arc = ch->arcs_[out_aid];
        if (contracted[out_arc.to] || out_arc.to == u) continue;
        max_via = std::max(max_via, in_arc.weight + out_arc.weight);
      }
      if (max_via == 0.0) continue;
      witness.Run(ch->arcs_, live, contracted, u, v, max_via,
                  options.witness_settle_limit);
      for (uint32_t out_aid : live.out[v]) {
        const Arc out_arc = ch->arcs_[out_aid];
        const NodeId w = out_arc.to;
        if (contracted[w] || w == u) continue;
        const double via = in_arc.weight + out_arc.weight;
        if (witness.DistanceTo(w) <= via) continue;  // witness found
        ++shortcuts;
        if (!commit) continue;
        // Collapse parallels: replace an existing u->w arc if heavier.
        bool replaced = false;
        for (uint32_t aid : live.out[u]) {
          Arc& a = ch->arcs_[aid];
          if (a.to == w && !contracted[w]) {
            if (via < a.weight) {
              a.weight = via;
              a.orig_edge = kInvalidEdge;
              a.child1 = in_aid;
              a.child2 = out_aid;
            }
            replaced = true;
            break;
          }
        }
        if (!replaced) {
          const uint32_t aid = static_cast<uint32_t>(ch->arcs_.size());
          ch->arcs_.push_back({u, w, via, kInvalidEdge, in_aid, out_aid});
          live.out[u].push_back(aid);
          live.in[w].push_back(aid);
          ++ch->num_shortcuts_;
        }
      }
    }
    return shortcuts - removed;  // edge difference
  };

  auto priority = [&](NodeId v) {
    const int edge_diff = contract(v, /*commit=*/false);
    return options.edge_difference_weight * edge_diff +
           options.deleted_neighbors_weight * deleted_neighbors[v];
  };

  IndexedHeap<double> order(n);
  for (NodeId v = 0; v < n; ++v) order.PushOrDecrease(v, priority(v));

  uint32_t next_rank = 0;
  while (!order.Empty()) {
    // Lazy update: recompute the top's priority; reinsert if it got worse.
    const auto [v, old_p] = order.PopMin();
    const double new_p = priority(v);
    if (!order.Empty() && new_p > order.Top().second) {
      order.PushOrDecrease(v, new_p);
      continue;
    }
    (void)old_p;
    contract(v, /*commit=*/true);
    contracted[v] = true;
    ch->rank_[v] = next_rank++;
    for (uint32_t aid : live.out[v]) {
      const NodeId w = ch->arcs_[aid].to;
      if (!contracted[w]) ++deleted_neighbors[w];
    }
    for (uint32_t aid : live.in[v]) {
      const NodeId u = ch->arcs_[aid].from;
      if (!contracted[u]) ++deleted_neighbors[u];
    }
  }

  // Freeze the search graphs: every arc goes either into the upward graph
  // (bucketed by tail) or the downward graph (bucketed by head). Redundant
  // parallel arcs are harmless for correctness — Dijkstra takes the minimum.
  std::vector<uint32_t> up_count(n + 1, 0), down_count(n + 1, 0);
  for (uint32_t aid = 0; aid < ch->arcs_.size(); ++aid) {
    const Arc& a = ch->arcs_[aid];
    if (ch->rank_[a.to] > ch->rank_[a.from]) {
      ++up_count[a.from + 1];
    } else {
      ++down_count[a.to + 1];
    }
  }
  for (size_t v = 1; v <= n; ++v) {
    up_count[v] += up_count[v - 1];
    down_count[v] += down_count[v - 1];
  }
  ch->up_first_ = up_count;
  ch->down_first_ = down_count;
  ch->up_arcs_.resize(up_count[n]);
  ch->down_arcs_.resize(down_count[n]);
  std::vector<uint32_t> up_cur(ch->up_first_.begin(), ch->up_first_.end() - 1);
  std::vector<uint32_t> down_cur(ch->down_first_.begin(),
                                 ch->down_first_.end() - 1);
  for (uint32_t aid = 0; aid < ch->arcs_.size(); ++aid) {
    const Arc& a = ch->arcs_[aid];
    if (ch->rank_[a.to] > ch->rank_[a.from]) {
      ch->up_arcs_[up_cur[a.from]++] = aid;
    } else {
      ch->down_arcs_[down_cur[a.to]++] = aid;
    }
  }

  // PHAST's sweep order. Forward: downward arcs relaxed tail -> head, in
  // descending tail rank. Backward: the reverse graph's downward arcs are
  // the upward arcs traversed head -> tail, so dist[a.from] is relaxed from
  // dist[a.to] in descending rank of a.to.
  const auto by_descending_from_rank = [&](const SweepArc& a,
                                           const SweepArc& b) {
    return ch->rank_[a.from] > ch->rank_[b.from];
  };
  ch->forward_sweep_.reserve(ch->down_arcs_.size());
  for (uint32_t aid : ch->down_arcs_) {
    const Arc& a = ch->arcs_[aid];
    ch->forward_sweep_.push_back({a.from, a.to, a.weight});
  }
  std::sort(ch->forward_sweep_.begin(), ch->forward_sweep_.end(),
            by_descending_from_rank);
  ch->backward_sweep_.reserve(ch->up_arcs_.size());
  for (uint32_t aid : ch->up_arcs_) {
    const Arc& a = ch->arcs_[aid];
    ch->backward_sweep_.push_back({a.to, a.from, a.weight});
  }
  std::sort(ch->backward_sweep_.begin(), ch->backward_sweep_.end(),
            by_descending_from_rank);
  return std::shared_ptr<const ContractionHierarchy>(std::move(ch));
}

bool ContractionHierarchy::BuiltOver(std::span<const double> weights) const {
  if (weights.size() != net_->num_edges()) return false;
  return std::all_of(arcs_.begin(), arcs_.end(), [&](const Arc& a) {
    return a.orig_edge == kInvalidEdge || a.weight == weights[a.orig_edge];
  });
}

void ContractionHierarchy::UnpackArc(uint32_t arc,
                                     std::vector<EdgeId>* out) const {
  const Arc& a = arcs_[arc];
  if (a.orig_edge != kInvalidEdge) {
    out->push_back(a.orig_edge);
    return;
  }
  ALT_CHECK(a.child1 != kNoChild && a.child2 != kNoChild)
      << "shortcut without children";
  UnpackArc(a.child1, out);
  UnpackArc(a.child2, out);
}

Result<RouteResult> ContractionHierarchy::ShortestPath(
    NodeId source, NodeId target, obs::SearchStats* stats,
    CancellationToken* cancel) const {
  Query query(*this);
  return query.ShortestPath(source, target, stats, cancel);
}

/// Per-instance search state. Label arrays are timestamped so a new run
/// costs O(touched) instead of O(n) to reset.
struct ContractionHierarchy::Query::Workspace {
  explicit Workspace(size_t n)
      : dist_f(n, kInfCost),
        dist_b(n, kInfCost),
        parent_f(n, kNoChild),
        parent_b(n, kNoChild),
        stamp_f(n, 0),
        stamp_b(n, 0),
        heap_f(n),
        heap_b(n) {}

  bool ForwardValid(NodeId v) const { return stamp_f[v] == stamp_now; }
  bool BackwardValid(NodeId v) const { return stamp_b[v] == stamp_now; }

  std::vector<double> dist_f, dist_b;
  std::vector<uint32_t> parent_f, parent_b;
  std::vector<uint32_t> stamp_f, stamp_b;
  uint32_t stamp_now = 0;
  IndexedHeap<double> heap_f, heap_b;
  std::vector<NodeId> reached_f;  // nodes labeled by the forward search
};

ContractionHierarchy::Query::Query(const ContractionHierarchy& ch)
    : ch_(&ch), ws_(std::make_unique<Workspace>(ch.net_->num_nodes())) {}

ContractionHierarchy::Query::Query(
    std::shared_ptr<const ContractionHierarchy> ch)
    : keepalive_(std::move(ch)), ch_(keepalive_.get()) {
  ALT_CHECK(keepalive_ != nullptr) << "null hierarchy";
  ws_ = std::make_unique<Workspace>(keepalive_->net_->num_nodes());
}

ContractionHierarchy::Query::~Query() = default;

Result<ContractionHierarchy::Query::BidirResult>
ContractionHierarchy::Query::RunBidirectional(NodeId source, NodeId target,
                                              double prune_factor,
                                              obs::SearchStats* stats,
                                              CancellationToken* cancel) {
  const ContractionHierarchy& h = ch();
  const size_t n = h.net_->num_nodes();
  if (source >= n || target >= n) {
    return Status::InvalidArgument("endpoint out of range");
  }
  if (!(prune_factor >= 1.0)) {
    return Status::InvalidArgument("prune factor must be >= 1");
  }

  Workspace& ws = *ws_;
  ++ws.stamp_now;
  ws.heap_f.Clear();
  ws.heap_b.Clear();
  ws.reached_f.clear();
  meeting_.clear();
  last_source_ = source;
  last_target_ = target;

  auto relax_f = [&](NodeId v, double d, uint32_t via) {
    if (!ws.ForwardValid(v)) {
      ws.stamp_f[v] = ws.stamp_now;
      ws.reached_f.push_back(v);
    } else if (d >= ws.dist_f[v]) {
      return false;
    }
    ws.dist_f[v] = d;
    ws.parent_f[v] = via;
    ws.heap_f.PushOrDecrease(v, d);
    return true;
  };
  auto relax_b = [&](NodeId v, double d, uint32_t via) {
    if (!ws.BackwardValid(v)) {
      ws.stamp_b[v] = ws.stamp_now;
    } else if (d >= ws.dist_b[v]) {
      return false;
    }
    ws.dist_b[v] = d;
    ws.parent_b[v] = via;
    ws.heap_b.PushOrDecrease(v, d);
    return true;
  };

  relax_f(source, 0.0, kNoChild);
  relax_b(target, 0.0, kNoChild);

  BidirResult result;
  uint64_t settled = 0, relaxed = 0, pushes = 2, pops = 0;

  // Both searches go strictly upward; neither can be stopped at the first
  // meeting, so run each to exhaustion of entries below the prune bound.
  Status interrupted = Status::OK();
  while (!ws.heap_f.Empty() || !ws.heap_b.Empty()) {
    if (cancel != nullptr && cancel->ShouldStop()) {
      interrupted = Status::DeadlineExceeded("ch query cancelled");
      break;
    }
    const double tf = ws.heap_f.Empty() ? kInfCost : ws.heap_f.Top().second;
    const double tb = ws.heap_b.Empty() ? kInfCost : ws.heap_b.Top().second;
    if (std::min(tf, tb) >= prune_factor * result.best_cost) break;
    if (tf <= tb) {
      const auto [u, du] = ws.heap_f.PopMin();
      ++pops;
      ++settled;
      if (ws.BackwardValid(u) && du + ws.dist_b[u] < result.best_cost) {
        result.best_cost = du + ws.dist_b[u];
        result.meet = u;
      }
      for (uint32_t i = h.up_first_[u]; i < h.up_first_[u + 1]; ++i) {
        const uint32_t aid = h.up_arcs_[i];
        const Arc& a = h.arcs_[aid];
        ++relaxed;
        if (relax_f(a.to, du + a.weight, aid)) ++pushes;
      }
    } else {
      const auto [u, du] = ws.heap_b.PopMin();
      ++pops;
      ++settled;
      if (ws.ForwardValid(u) && du + ws.dist_f[u] < result.best_cost) {
        result.best_cost = du + ws.dist_f[u];
        result.meet = u;
      }
      for (uint32_t i = h.down_first_[u]; i < h.down_first_[u + 1]; ++i) {
        const uint32_t aid = h.down_arcs_[i];
        const Arc& a = h.arcs_[aid];  // arc a.from -> u, rank[a.from] higher
        ++relaxed;
        if (relax_b(a.from, du + a.weight, aid)) ++pushes;
      }
    }
  }

  if (stats != nullptr) {
    stats->nodes_settled += settled;
    stats->edges_relaxed += relaxed;
    stats->heap_pushes += pushes;
    stats->heap_pops += pops;
  }
  if (!interrupted.ok()) return interrupted;

  if (result.meet == kInvalidNode) {
    return Status::NotFound("target unreachable from source");
  }

  // Candidate via set: nodes carrying labels from both sides.
  for (NodeId v : ws.reached_f) {
    if (ws.BackwardValid(v)) meeting_.push_back(v);
  }
  return result;
}

double ContractionHierarchy::Query::forward_distance(NodeId v) const {
  return ws_->ForwardValid(v) ? ws_->dist_f[v] : kInfCost;
}

double ContractionHierarchy::Query::backward_distance(NodeId v) const {
  return ws_->BackwardValid(v) ? ws_->dist_b[v] : kInfCost;
}

Result<RouteResult> ContractionHierarchy::Query::UnpackViaPath(
    NodeId via) const {
  const Workspace& ws = *ws_;
  if (via >= ws.dist_f.size() || !ws.ForwardValid(via) ||
      !ws.BackwardValid(via)) {
    return Status::InvalidArgument("via node not reached by both searches");
  }
  RouteResult out;
  out.cost = ws.dist_f[via] + ws.dist_b[via];
  // Forward chain: source .. via (arcs recorded at their heads).
  std::vector<uint32_t> fwd_arcs;
  for (NodeId cur = via; cur != last_source_;) {
    const uint32_t aid = ws.parent_f[cur];
    ALT_CHECK(aid != kNoChild) << "broken forward parent chain";
    fwd_arcs.push_back(aid);
    cur = ch().arcs_[aid].from;
  }
  std::reverse(fwd_arcs.begin(), fwd_arcs.end());
  for (uint32_t aid : fwd_arcs) ch().UnpackArc(aid, &out.edges);
  // Backward chain: via .. target (arcs recorded at their tails).
  for (NodeId cur = via; cur != last_target_;) {
    const uint32_t aid = ws.parent_b[cur];
    ALT_CHECK(aid != kNoChild) << "broken backward parent chain";
    ch().UnpackArc(aid, &out.edges);
    cur = ch().arcs_[aid].to;
  }
  return out;
}

Result<RouteResult> ContractionHierarchy::Query::ShortestPath(
    NodeId source, NodeId target, obs::SearchStats* stats,
    CancellationToken* cancel) {
  const size_t n = ch().net_->num_nodes();
  if (source >= n || target >= n) {
    return Status::InvalidArgument("endpoint out of range");
  }
  if (source == target) return RouteResult{0.0, {}};
  ALTROUTE_ASSIGN_OR_RETURN(
      BidirResult run,
      RunBidirectional(source, target, /*prune_factor=*/1.0, stats, cancel));
  return UnpackViaPath(run.meet);
}

}  // namespace altroute
