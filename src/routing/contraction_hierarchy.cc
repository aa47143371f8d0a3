#include "routing/contraction_hierarchy.h"

#include <algorithm>
#include <cmath>

#include "routing/indexed_heap.h"
#include "util/check.h"

namespace altroute {

namespace {

/// An arc while the hierarchy is built: the search arc plus how to unpack
/// it. Shortcuts replace parallels in place, so the ids stay stable.
struct BuildArc {
  NodeId from;
  NodeId to;
  double weight;
  EdgeId orig_edge;  // kInvalidEdge for shortcuts
  uint32_t child1;   // build ids of the two replaced arcs (shortcuts only)
  uint32_t child2;
};

/// Live multigraph used during contraction: per-node arc-id lists that grow
/// as shortcuts are added. A contracted node's arcs leave its neighbours'
/// lists, in place so the remaining order is kept, and its own lists are
/// freed, so every listed arc joins two uncontracted nodes.
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
  void Run(const std::vector<BuildArc>& arcs, const LiveGraph& live,
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
        const BuildArc& a = arcs[aid];
        if (a.to == banned) continue;
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

Status CheckInputs(const std::shared_ptr<const RoadNetwork>& net,
                   std::span<const double> weights) {
  if (net == nullptr) return Status::InvalidArgument("null network");
  if (weights.size() != net->num_edges()) {
    return Status::InvalidArgument("weight vector size mismatch");
  }
  for (double w : weights) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("CH weights must be positive and finite");
    }
  }
  return Status::OK();
}

}  // namespace

/// Node contraction over a live graph seeded with the original edges.
class ContractionHierarchy::Contractor {
 public:
  Contractor(const RoadNetwork& net, std::span<const double> weights,
             size_t witness_settle_limit)
      : witness_settle_limit_(witness_settle_limit),
        witness_(net.num_nodes()) {
    const size_t n = net.num_nodes();
    live_.out.resize(n);
    live_.in.resize(n);
    arcs_.reserve(net.num_edges() * 2);
    for (EdgeId e = 0; e < net.num_edges(); ++e) {
      const auto aid = static_cast<uint32_t>(arcs_.size());
      arcs_.push_back(
          {net.tail(e), net.head(e), weights[e], e, kNoChild, kNoChild});
      live_.out[net.tail(e)].push_back(aid);
      live_.in[net.head(e)].push_back(aid);
    }
  }

  /// Simulates or performs the contraction of `v`. When `commit` is true the
  /// shortcuts are added to the arc set and live graph; otherwise only the
  /// shortcut count is computed (for priority evaluation). Returns the edge
  /// difference.
  int Contract(NodeId v, bool commit) {
    int shortcuts = 0;
    const int removed =
        static_cast<int>(live_.in[v].size() + live_.out[v].size());
    for (uint32_t in_aid : live_.in[v]) {
      const BuildArc in_arc = arcs_[in_aid];
      const NodeId u = in_arc.from;
      if (u == v) continue;
      // Bound for witness search: longest potential shortcut via v from u.
      double max_via = 0.0;
      for (uint32_t out_aid : live_.out[v]) {
        const BuildArc& out_arc = arcs_[out_aid];
        if (out_arc.to == u) continue;
        max_via = std::max(max_via, in_arc.weight + out_arc.weight);
      }
      if (max_via == 0.0) continue;
      witness_.Run(arcs_, live_, u, v, max_via, witness_settle_limit_);
      for (uint32_t out_aid : live_.out[v]) {
        const BuildArc out_arc = arcs_[out_aid];
        const NodeId w = out_arc.to;
        if (w == u) continue;
        const double via = in_arc.weight + out_arc.weight;
        if (witness_.DistanceTo(w) <= via) continue;  // witness found
        ++shortcuts;
        if (!commit) continue;
        // Collapse parallels: replace an existing u->w arc if heavier.
        bool replaced = false;
        for (uint32_t aid : live_.out[u]) {
          BuildArc& a = arcs_[aid];
          if (a.to == w) {
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
          const auto aid = static_cast<uint32_t>(arcs_.size());
          arcs_.push_back({u, w, via, kInvalidEdge, in_aid, out_aid});
          live_.out[u].push_back(aid);
          live_.in[w].push_back(aid);
          ++num_shortcuts_;
        }
      }
    }
    return shortcuts - removed;
  }

  /// Takes contracted `v` out of the live graph. `on_neighbor` is called once
  /// per arc joining v to another node, with that node.
  template <typename OnNeighbor>
  void Remove(NodeId v, OnNeighbor on_neighbor) {
    for (uint32_t aid : live_.out[v]) {
      const NodeId w = arcs_[aid].to;
      if (w == v) continue;
      std::erase(live_.in[w], aid);
      on_neighbor(w);
    }
    for (uint32_t aid : live_.in[v]) {
      const NodeId u = arcs_[aid].from;
      if (u == v) continue;
      std::erase(live_.out[u], aid);
      on_neighbor(u);
    }
    std::vector<uint32_t>().swap(live_.out[v]);
    std::vector<uint32_t>().swap(live_.in[v]);
  }

  /// Freezes the contracted arcs into the search layout (see arcs_ in the
  /// header) under `ranks`.
  std::shared_ptr<const ContractionHierarchy> Finish(
      std::shared_ptr<const RoadNetwork> net, std::vector<uint32_t> ranks) const;

 private:
  const size_t witness_settle_limit_;
  LiveGraph live_;
  std::vector<BuildArc> arcs_;
  size_t num_shortcuts_ = 0;
  WitnessSearch witness_;
};

std::shared_ptr<const ContractionHierarchy>
ContractionHierarchy::Contractor::Finish(std::shared_ptr<const RoadNetwork> net,
                                         std::vector<uint32_t> ranks) const {
  const size_t n = ranks.size();
  auto ch = std::shared_ptr<ContractionHierarchy>(new ContractionHierarchy());
  ch->net_ = std::move(net);
  ch->rank_ = std::move(ranks);
  ch->num_shortcuts_ = num_shortcuts_;
  const std::vector<uint32_t>& rank = ch->rank_;
  const auto is_up = [&](const BuildArc& a) { return rank[a.to] > rank[a.from]; };

  // Counting sort by bucket, stable in build order: up-arcs by tail, then
  // down-arcs by head, buckets in descending rank.
  std::vector<uint32_t>& up = ch->up_first_;
  std::vector<uint32_t>& down = ch->down_first_;
  up.assign(n + 1, 0);
  down.assign(n + 1, 0);
  for (const BuildArc& a : arcs_) {
    if (is_up(a)) {
      ++up[ch->Bucket(a.from) + 1];
    } else {
      ++down[ch->Bucket(a.to) + 1];
    }
  }
  for (size_t b = 1; b <= n; ++b) up[b] += up[b - 1];
  down[0] = up[n];
  for (size_t b = 1; b <= n; ++b) down[b] += down[b - 1];

  std::vector<uint32_t> next_up(up.begin(), up.end() - 1);
  std::vector<uint32_t> next_down(down.begin(), down.end() - 1);
  std::vector<uint32_t> position(arcs_.size());
  for (size_t aid = 0; aid < arcs_.size(); ++aid) {
    const BuildArc& a = arcs_[aid];
    position[aid] = is_up(a) ? next_up[ch->Bucket(a.from)]++
                             : next_down[ch->Bucket(a.to)]++;
  }
  const auto moved = [&](uint32_t aid) {
    return aid == kNoChild ? kNoChild : position[aid];
  };
  ch->arcs_.resize(arcs_.size());
  ch->unpack_.resize(arcs_.size());
  for (size_t aid = 0; aid < arcs_.size(); ++aid) {
    const BuildArc& a = arcs_[aid];
    ch->arcs_[position[aid]] = {a.from, a.to, a.weight};
    ch->unpack_[position[aid]] = {a.orig_edge, moved(a.child1), moved(a.child2)};
  }
  return ch;
}

Result<std::shared_ptr<const ContractionHierarchy>> ContractionHierarchy::Build(
    std::shared_ptr<const RoadNetwork> net, std::span<const double> weights,
    const ChOptions& options) {
  ALTROUTE_RETURN_NOT_OK(CheckInputs(net, weights));
  const size_t n = net->num_nodes();
  Contractor contractor(*net, weights, options.witness_settle_limit);
  std::vector<uint32_t> deleted_neighbors(n, 0);

  auto priority = [&](NodeId v) {
    const int edge_diff = contractor.Contract(v, /*commit=*/false);
    return options.edge_difference_weight * edge_diff +
           options.deleted_neighbors_weight * deleted_neighbors[v];
  };

  IndexedHeap<double> order(n);
  for (NodeId v = 0; v < n; ++v) order.PushOrDecrease(v, priority(v));

  std::vector<uint32_t> ranks(n, 0);
  uint32_t next_rank = 0;
  while (!order.Empty()) {
    // Lazy update: recompute the top's priority; reinsert if it got worse.
    const NodeId v = order.PopMin().first;
    const double new_p = priority(v);
    if (!order.Empty() && new_p > order.Top().second) {
      order.PushOrDecrease(v, new_p);
      continue;
    }
    contractor.Contract(v, /*commit=*/true);
    ranks[v] = next_rank++;
    contractor.Remove(v, [&](NodeId w) { ++deleted_neighbors[w]; });
  }
  return contractor.Finish(std::move(net), std::move(ranks));
}

Result<std::shared_ptr<const ContractionHierarchy>>
ContractionHierarchy::BuildInOrder(std::shared_ptr<const RoadNetwork> net,
                                   std::span<const double> weights,
                                   std::span<const uint32_t> ranks) {
  ALTROUTE_RETURN_NOT_OK(CheckInputs(net, weights));
  const size_t n = net->num_nodes();
  if (ranks.size() != n) {
    return Status::InvalidArgument("rank vector size mismatch");
  }
  std::vector<NodeId> order(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (ranks[v] >= n || order[ranks[v]] != kInvalidNode) {
      return Status::InvalidArgument("ranks are not a permutation");
    }
    order[ranks[v]] = v;
  }
  Contractor contractor(*net, weights, ChOptions().witness_settle_limit);
  for (NodeId v : order) {
    contractor.Contract(v, /*commit=*/true);
    contractor.Remove(v, [](NodeId) {});
  }
  return contractor.Finish(std::move(net),
                           std::vector<uint32_t>(ranks.begin(), ranks.end()));
}

std::span<const ContractionHierarchy::Arc> ContractionHierarchy::UpwardArcs(
    NodeId v, SearchDirection direction) const {
  const std::vector<uint32_t>& first =
      direction == SearchDirection::kForward ? up_first_ : down_first_;
  const uint32_t b = Bucket(v);
  return std::span<const Arc>(arcs_).subspan(first[b], first[b + 1] - first[b]);
}

std::span<const ContractionHierarchy::Arc> ContractionHierarchy::SweepArcs(
    SearchDirection direction) const {
  const std::span<const Arc> all(arcs_);
  const size_t num_up = up_first_.back();
  return direction == SearchDirection::kForward ? all.subspan(num_up)
                                                : all.first(num_up);
}

bool ContractionHierarchy::BuiltOver(std::span<const double> weights) const {
  if (weights.size() != net_->num_edges()) return false;
  for (size_t i = 0; i < arcs_.size(); ++i) {
    const EdgeId e = unpack_[i].orig_edge;
    if (e != kInvalidEdge && arcs_[i].weight != weights[e]) return false;
  }
  return true;
}

void ContractionHierarchy::UnpackArc(uint32_t arc,
                                     std::vector<EdgeId>* out) const {
  const Unpack& u = unpack_[arc];
  if (u.orig_edge != kInvalidEdge) {
    out->push_back(u.orig_edge);
    return;
  }
  ALT_CHECK(u.child1 != kNoChild && u.child2 != kNoChild)
      << "shortcut without children";
  UnpackArc(u.child1, out);
  UnpackArc(u.child2, out);
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
      const uint32_t b = h.Bucket(u);
      for (uint32_t aid = h.up_first_[b]; aid < h.up_first_[b + 1]; ++aid) {
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
      const uint32_t b = h.Bucket(u);
      for (uint32_t aid = h.down_first_[b]; aid < h.down_first_[b + 1];
           ++aid) {
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
