#include "routing/contraction_hierarchy.h"

#include <algorithm>
#include <cmath>

#include "routing/indexed_heap.h"

namespace altroute {

namespace {

/// Witness searches stop after settling this many nodes; smaller builds
/// faster hierarchies with a few redundant shortcuts (still correct).
constexpr size_t kWitnessSettleLimit = 60;
/// Importance term weights of Build's order (classic edge-difference
/// heuristic).
constexpr double kEdgeDifferenceWeight = 4.0;
constexpr double kDeletedNeighborsWeight = 2.0;

using Arc = ContractionHierarchy::Arc;

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
  /// correctness) after kWitnessSettleLimit settles or when cost exceeds
  /// `bound`.
  void Run(const std::vector<Arc>& arcs, const LiveGraph& live, NodeId source,
           NodeId banned, double bound) {
    ++stamp_now_;
    heap_.Clear();
    Relax(source, 0.0);
    size_t settled = 0;
    while (!heap_.Empty() && settled < kWitnessSettleLimit) {
      const auto [u, du] = heap_.PopMin();
      if (du > bound) break;
      ++settled;
      for (uint32_t aid : live.out[u]) {
        const Arc& a = arcs[aid];
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
/// Shortcuts replace heavier parallels in place, so arc ids stay stable.
/// Beside each arc it keeps the original edges at the ends of the path the
/// arc stands for.
class ContractionHierarchy::Contractor {
 public:
  Contractor(const RoadNetwork& net, std::span<const double> weights)
      : witness_(net.num_nodes()) {
    const size_t n = net.num_nodes();
    live_.out.resize(n);
    live_.in.resize(n);
    arcs_.reserve(net.num_edges() * 2);
    tail_edge_.reserve(net.num_edges() * 2);
    head_edge_.reserve(net.num_edges() * 2);
    for (EdgeId e = 0; e < net.num_edges(); ++e) {
      const auto aid = static_cast<uint32_t>(arcs_.size());
      arcs_.push_back({net.tail(e), net.head(e), weights[e]});
      tail_edge_.push_back(e);
      head_edge_.push_back(e);
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
      const Arc in_arc = arcs_[in_aid];
      const NodeId u = in_arc.from;
      if (u == v) continue;
      // Bound for witness search: longest potential shortcut via v from u.
      double max_via = 0.0;
      for (uint32_t out_aid : live_.out[v]) {
        const Arc& out_arc = arcs_[out_aid];
        if (out_arc.to == u) continue;
        max_via = std::max(max_via, in_arc.weight + out_arc.weight);
      }
      if (max_via == 0.0) continue;
      witness_.Run(arcs_, live_, u, v, max_via);
      for (uint32_t out_aid : live_.out[v]) {
        const Arc out_arc = arcs_[out_aid];
        const NodeId w = out_arc.to;
        if (w == u) continue;
        const double via = in_arc.weight + out_arc.weight;
        if (witness_.DistanceTo(w) <= via) continue;  // witness found
        ++shortcuts;
        if (!commit) continue;
        // The path u -> v -> w starts with the in-arc's first edge and ends
        // with the out-arc's last.
        const EdgeId tail_edge = tail_edge_[in_aid];
        const EdgeId head_edge = head_edge_[out_aid];
        // Collapse parallels: an existing u->w arc takes the shortcut's
        // path if it is heavier.
        bool replaced = false;
        for (uint32_t aid : live_.out[u]) {
          Arc& a = arcs_[aid];
          if (a.to == w) {
            if (via < a.weight) {
              a.weight = via;
              tail_edge_[aid] = tail_edge;
              head_edge_[aid] = head_edge;
            }
            replaced = true;
            break;
          }
        }
        if (!replaced) {
          const auto aid = static_cast<uint32_t>(arcs_.size());
          arcs_.push_back({u, w, via});
          tail_edge_.push_back(tail_edge);
          head_edge_.push_back(head_edge);
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
      std::shared_ptr<const RoadNetwork> net, std::span<const double> weights,
      std::vector<uint32_t> ranks) const;

 private:
  LiveGraph live_;
  std::vector<Arc> arcs_;
  std::vector<EdgeId> tail_edge_;  // parallel to arcs_
  std::vector<EdgeId> head_edge_;  // parallel to arcs_
  size_t num_shortcuts_ = 0;
  WitnessSearch witness_;
};

std::shared_ptr<const ContractionHierarchy>
ContractionHierarchy::Contractor::Finish(std::shared_ptr<const RoadNetwork> net,
                                         std::span<const double> weights,
                                         std::vector<uint32_t> ranks) const {
  const size_t n = ranks.size();
  auto ch = std::shared_ptr<ContractionHierarchy>(new ContractionHierarchy());
  ch->net_ = std::move(net);
  ch->weights_.assign(weights.begin(), weights.end());
  ch->rank_ = std::move(ranks);
  ch->num_shortcuts_ = num_shortcuts_;
  const std::vector<uint32_t>& rank = ch->rank_;
  const auto is_up = [&](const Arc& a) { return rank[a.to] > rank[a.from]; };

  // Counting sort by bucket, stable in build order: up-arcs by tail, then
  // down-arcs by head, buckets in descending rank.
  std::vector<uint32_t>& up = ch->up_first_;
  std::vector<uint32_t>& down = ch->down_first_;
  up.assign(n + 1, 0);
  down.assign(n + 1, 0);
  for (const Arc& a : arcs_) {
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
  ch->arcs_.resize(arcs_.size());
  ch->tail_edge_.resize(arcs_.size());
  ch->head_edge_.resize(arcs_.size());
  for (size_t aid = 0; aid < arcs_.size(); ++aid) {
    const Arc& a = arcs_[aid];
    const uint32_t position = is_up(a) ? next_up[ch->Bucket(a.from)]++
                                       : next_down[ch->Bucket(a.to)]++;
    ch->arcs_[position] = a;
    ch->tail_edge_[position] = tail_edge_[aid];
    ch->head_edge_[position] = head_edge_[aid];
  }
  return ch;
}

Result<std::shared_ptr<const ContractionHierarchy>> ContractionHierarchy::Build(
    std::shared_ptr<const RoadNetwork> net, std::span<const double> weights) {
  ALTROUTE_RETURN_NOT_OK(CheckInputs(net, weights));
  const size_t n = net->num_nodes();
  Contractor contractor(*net, weights);
  std::vector<uint32_t> deleted_neighbors(n, 0);

  auto priority = [&](NodeId v) {
    const int edge_diff = contractor.Contract(v, /*commit=*/false);
    return kEdgeDifferenceWeight * edge_diff +
           kDeletedNeighborsWeight * deleted_neighbors[v];
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
  return contractor.Finish(std::move(net), weights, std::move(ranks));
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
  Contractor contractor(*net, weights);
  for (NodeId v : order) {
    contractor.Contract(v, /*commit=*/true);
    contractor.Remove(v, [](NodeId) {});
  }
  return contractor.Finish(std::move(net), weights,
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

std::span<const EdgeId> ContractionHierarchy::UpwardEnds(
    NodeId v, SearchDirection direction) const {
  const bool forward = direction == SearchDirection::kForward;
  const std::vector<uint32_t>& first = forward ? up_first_ : down_first_;
  const uint32_t b = Bucket(v);
  return std::span<const EdgeId>(forward ? head_edge_ : tail_edge_)
      .subspan(first[b], first[b + 1] - first[b]);
}

std::span<const EdgeId> ContractionHierarchy::SweepEnds(
    SearchDirection direction) const {
  const size_t num_up = up_first_.back();
  return direction == SearchDirection::kForward
             ? std::span<const EdgeId>(head_edge_).subspan(num_up)
             : std::span<const EdgeId>(tail_edge_).first(num_up);
}

bool ContractionHierarchy::BuiltOver(std::span<const double> weights) const {
  return std::equal(weights.begin(), weights.end(), weights_.begin(),
                    weights_.end());
}

}  // namespace altroute
