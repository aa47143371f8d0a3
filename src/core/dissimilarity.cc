#include "core/dissimilarity.h"

#include <algorithm>

#include "util/check.h"

namespace altroute {

namespace {

/// The scan order of via candidates: ascending via cost, ties by id.
struct ByVia {
  const ShortestPathTree& fwd;
  const ShortestPathTree& bwd;
  bool operator()(NodeId a, NodeId b) const {
    const double va = fwd.dist[a] + bwd.dist[a];
    const double vb = fwd.dist[b] + bwd.dist[b];
    if (va != vb) return va < vb;
    return a < b;  // deterministic ties
  }
};

/// The first slot probed for node `x` in a table of `mask` + 1 slots.
size_t SlotOf(NodeId x, size_t mask) {
  return static_cast<size_t>((uint64_t{x} * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

/// The candidate as MakePath builds it, for the debug contracts only.
Path AsPath(const RoadNetwork& net, NodeId source, NodeId target,
            const std::vector<EdgeId>& edges, std::span<const double> weights) {
  auto path = MakePath(net, source, target, edges, weights);
  ALT_CHECK(path.ok()) << path.status();
  return std::move(path).ValueOrDie();
}

}  // namespace

DissimilarityScan::DissimilarityScan(const RoadNetwork& net)
    : net_(net),
      pos_(net.num_nodes(), 0),
      mate_(net.num_nodes(), false),
      on_route_(net.num_nodes(), 0) {}

uint32_t DissimilarityScan::IndexedRoute::IndexOf(NodeId x) const {
  const size_t mask = slots.size() - 1;
  for (size_t h = SlotOf(x, mask);; h = (h + 1) & mask) {
    ALT_DCHECK(slots[h].first != kInvalidNode) << "node " << x << " not on the route";
    if (slots[h].first == x) return slots[h].second;
  }
}

void DissimilarityScan::BucketByVia(const ShortestPathTree& fwd,
                                    const ShortestPathTree& bwd, double lo,
                                    double hi) {
  const size_t count = candidates_.size();
  // One bucket when every via cost ties: the key below would divide by 0.
  const size_t buckets = hi > lo ? std::max<size_t>(1, count / 4) : 1;
  const double scale = static_cast<double>(buckets);
  const double top = scale - 1.0;
  // Monotone in the via cost, so bucket order never contradicts ByVia. The
  // clamp comes before the cast: converting an out-of-range double is
  // undefined, and the greatest via cost rounds to `buckets` or above.
  const auto key = [&](NodeId v) -> uint32_t {
    if (buckets == 1) return 0;
    const double via = fwd.dist[v] + bwd.dist[v];
    return static_cast<uint32_t>(std::min((via - lo) * scale / (hi - lo), top));
  };

  bucket_first_.assign(buckets + 1, 0);
  for (NodeId v : candidates_) ++bucket_first_[key(v) + 1];
  for (size_t b = 0; b < buckets; ++b) {
    bucket_first_[b + 1] += bucket_first_[b];
  }
  // Place in place (American flag sort): each node displaced from a slot of
  // bucket b moves on to the next free slot of its own bucket.
  bucket_next_.assign(bucket_first_.begin(), bucket_first_.end() - 1);
  for (size_t b = 0; b < buckets; ++b) {
    while (bucket_next_[b] < bucket_first_[b + 1]) {
      NodeId v = candidates_[bucket_next_[b]];
      for (uint32_t k = key(v); k != b; k = key(v)) {
        std::swap(v, candidates_[bucket_next_[k]++]);
      }
      candidates_[bucket_next_[b]++] = v;
    }
  }
}

void DissimilarityScan::OpenWindow() {
  // A window spans at most 2n - 1 positions: a candidate's nodes.
  const auto window = static_cast<uint32_t>(2 * net_.num_nodes());
  cand_base_ = next_base_;
  if (cand_base_ > UINT32_MAX - window) {
    std::fill(pos_.begin(), pos_.end(), 0);
    cand_base_ = 1;
  }
}

void DissimilarityScan::Place(NodeId x, uint32_t index, bool* loopless) {
  if (pos_[x] >= cand_base_) {
    *loopless = false;  // keep the first position; the candidate is rejected
  } else {
    pos_[x] = cand_base_ + index;
  }
}

bool DissimilarityScan::WalkViaPath(const ShortestPathTree& fwd,
                                    const ShortestPathTree& bwd, NodeId v,
                                    bool* loopless) {
  const RoadNetwork& net = net_;
  edges_.clear();

  // sp(s, v), collected from v upward. While the tree edge into the current
  // node is also the backward-tree edge out of its tail, that tail is a
  // plateau-mate of v: its via path is this one.
  bool mates = true;
  for (NodeId cur = v; cur != fwd.root;) {
    const EdgeId e = fwd.parent_edge[cur];
    if (e == kInvalidEdge || net.head(e) != cur) return false;
    const NodeId u = net.tail(e);
    mates = mates && bwd.parent_edge[u] == e;
    if (mates && !mate_[u]) {
      mate_[u] = true;
      ++mates_marked_;
    }
    edges_.push_back(e);
    cur = u;
  }
  std::reverse(edges_.begin(), edges_.end());

  OpenWindow();
  *loopless = true;
  Place(fwd.root, 0, loopless);
  for (size_t i = 0; i < edges_.size(); ++i) {
    Place(net.head(edges_[i]), static_cast<uint32_t>(i + 1), loopless);
  }

  // sp(v, t), walked downward; mates continue while the backward-tree edge
  // out of the current node is also the forward-tree edge into its head.
  bool contiguous = true;
  mates = true;
  for (NodeId cur = v; cur != bwd.root;) {
    const EdgeId e = bwd.parent_edge[cur];
    if (e == kInvalidEdge || net.tail(e) != cur) {
      contiguous = false;
      break;
    }
    const NodeId w = net.head(e);
    mates = mates && fwd.parent_edge[w] == e;
    if (mates && !mate_[w]) {
      mate_[w] = true;
      ++mates_marked_;
    }
    edges_.push_back(e);
    Place(w, static_cast<uint32_t>(edges_.size()), loopless);
    cur = w;
  }
  next_base_ = cand_base_ + static_cast<uint32_t>(edges_.size()) + 1;
  return contiguous;
}

uint32_t DissimilarityScan::CandidateEdgeIndex(NodeId a, NodeId b) const {
  const uint32_t pa = pos_[a];
  const uint32_t pb = pos_[b];
  if (pa < cand_base_ || pb < cand_base_) return kNoEdge;
  if (pa + 1 == pb) return pa - cand_base_;
  if (pb + 1 == pa) return pb - cand_base_;
  return kNoEdge;
}

double DissimilarityScan::SharedLength(const Path& q) {
  // SharedLengthMeters walks the path with more edges (q on a tie, the
  // candidate being its first argument) and sums that path's edge lengths
  // in its order. Both paths are loopless, so neither repeats a street and
  // its erase-on-match never fires.
  const RoadNetwork& net = net_;
  double shared = 0.0;
  if (edges_.size() <= q.edges.size()) {
    for (EdgeId e : q.edges) {
      if (CandidateEdgeIndex(net.tail(e), net.head(e)) != kNoEdge) {
        shared += net.length_m(e);
      }
    }
    return shared;
  }
  hits_.clear();
  for (EdgeId e : q.edges) {
    const uint32_t i = CandidateEdgeIndex(net.tail(e), net.head(e));
    if (i != kNoEdge) hits_.push_back(i);
  }
  std::sort(hits_.begin(), hits_.end());  // back into candidate order
  for (uint32_t i : hits_) shared += net.length_m(edges_[i]);
  return shared;
}

bool DissimilarityScan::SimilarToAny(std::span<const Path> accepted,
                                     double theta, SimilarityMeasure measure) {
  const bool empty = edges_.empty();
  double length_m = 0.0;  // as MakePath sums it
  for (EdgeId e : edges_) length_m += net_.length_m(e);
  for (const Path& q : accepted) {
    // Similarity(candidate, q, measure), term for term.
    double sim = 0.0;
    if (empty || q.empty()) {
      sim = (empty && q.empty()) ? 1.0 : 0.0;
    } else {
      const double shared = SharedLength(q);
      double denom = 1.0;
      switch (measure) {
        case SimilarityMeasure::kOverlapOverShorter:
          denom = std::min(length_m, q.length_m);
          break;
        case SimilarityMeasure::kJaccardByLength:
          denom = length_m + q.length_m - shared;
          break;
        case SimilarityMeasure::kOverlapOverCandidate:
          denom = length_m;
          break;
      }
      sim = denom <= 0.0 ? 0.0 : std::clamp(shared / denom, 0.0, 1.0);
    }
    // dis(p, P) is the minimum of these terms, so it is at most theta iff
    // one of them is.
    if (1.0 - sim <= theta) return true;
  }
  return false;
}

void DissimilarityScan::MarkMates(const ShortestPathTree& fwd,
                                  const ShortestPathTree& bwd, NodeId v) {
  const RoadNetwork& net = net_;
  for (NodeId cur = v; cur != fwd.root;) {
    const EdgeId e = fwd.parent_edge[cur];
    const NodeId u = net.tail(e);
    if (bwd.parent_edge[u] != e) break;
    mate_[u] = true;
    cur = u;
  }
  for (NodeId cur = v; cur != bwd.root;) {
    const EdgeId e = bwd.parent_edge[cur];
    const NodeId w = net.head(e);
    if (fwd.parent_edge[w] != e) break;
    mate_[w] = true;
    cur = w;
  }
}

void DissimilarityScan::ExtendUp(const ShortestPathTree& fwd) {
  const ChainNode& last = up_.back();
  ALT_DCHECK(last.node != fwd.root) << "walked past the source";
  const EdgeId e = fwd.parent_edge[last.node];
  ALT_DCHECK(e != kInvalidEdge) << "broken forward chain at " << last.node;
  const NodeId u = net_.tail(e);
  pos_[u] = cand_base_ + static_cast<uint32_t>(up_.size());
  up_.push_back({u, last.meters + net_.length_m(e)});
}

void DissimilarityScan::ExtendDown(const ShortestPathTree& bwd) {
  const ChainNode& last = down_.back();
  ALT_DCHECK(last.node != bwd.root) << "walked past the target";
  const EdgeId e = bwd.parent_edge[last.node];
  ALT_DCHECK(e != kInvalidEdge) << "broken backward chain at " << last.node;
  down_.push_back({net_.head(e), last.meters + net_.length_m(e)});
}

DissimilarityScan::Verdict DissimilarityScan::BoundVerdict(
    const IndexedRoute& route, uint16_t bit, const ShortestPathTree& fwd,
    const ShortestPathTree& bwd) {
  const auto on_route = [&](NodeId x) { return (on_route_[x] & bit) != 0; };
  // Up to r[i], the first node of r's forward-tree prefix: the source is
  // r[0], so every walk up meets one. F' is up_[0, a).
  size_t a = 0;
  uint32_t i = 0;
  for (;; ++a) {
    if (a == up_.size()) ExtendUp(fwd);
    const ChainNode& x = up_[a];
    if (on_route(x.node)) {
      i = route.IndexOf(x.node);
      if (i <= route.prefix_end) break;
    }
    if (x.meters > route.max_off_m) return Verdict::kOpen;
  }
  // Down to r[j], the first node of r's backward-tree suffix, which the
  // target ends. B' is down_[1, b).
  size_t b = 0;
  uint32_t j = 0;
  for (;; ++b) {
    if (b == down_.size()) ExtendDown(bwd);
    const ChainNode& x = down_[b];
    if (on_route(x.node)) {
      j = route.IndexOf(x.node);
      if (j >= route.suffix_start) break;
    }
    if (up_[a].meters + x.meters > route.max_off_m) return Verdict::kOpen;
  }
  // r[j] is on both halves; unless it is v, where they join, it repeats.
  if (j < i || (j == i && a > 0)) return Verdict::kLoop;

  // r[0..i] and r[j..L] lie on the candidate and share no edge, so a
  // loopless candidate shares at least `on` meters with r. The margin keeps
  // rounding from deciding: a candidate inside it is walked.
  const double on = route.prefix_m[i] + route.suffix_m[j];
  const double off = up_[a].meters + down_[b].meters;
  if (on < (1.0 - theta_) * (on + off) * (1.0 + 1e-9) + 1e-9) {
    return Verdict::kOpen;
  }
  // Similar to r if loopless. r[0..i], F' and v, B' and r[j..L] are each
  // free of repeats and r[0..i] misses r[j..L], so only these can repeat.
  for (size_t k = 1; k < b; ++k) {
    const NodeId x = down_[k].node;
    const uint32_t p = pos_[x];
    if (p >= cand_base_ && p - cand_base_ < a) return Verdict::kLoop;
    if (on_route(x) && route.IndexOf(x) <= i) return Verdict::kLoop;
  }
  for (size_t k = 1; k < a; ++k) {
    const NodeId x = up_[k].node;
    if (on_route(x) && route.IndexOf(x) >= j) return Verdict::kLoop;
  }
  return Verdict::kSimilar;
}

DissimilarityScan::Verdict DissimilarityScan::FastVerdict(
    const ShortestPathTree& fwd, const ShortestPathTree& bwd, NodeId v) {
  if (v != fwd.root && v != bwd.root &&
      net_.tail(fwd.parent_edge[v]) == net_.head(bwd.parent_edge[v])) {
    return Verdict::kLoop;  // a U-turn: no mates to mark
  }
  MarkMates(fwd, bwd, v);
  OpenWindow();
  pos_[v] = cand_base_;
  up_.assign(1, {v, 0.0});
  down_.assign(1, {v, 0.0});
  Verdict verdict = Verdict::kOpen;
  for (size_t r = 0; r < indexed_ && verdict == Verdict::kOpen; ++r) {
    verdict = BoundVerdict(routes_[r], static_cast<uint16_t>(1u << r), fwd, bwd);
  }
  next_base_ = cand_base_ + static_cast<uint32_t>(up_.size());
  return verdict;
}

void DissimilarityScan::IndexRoute(const ShortestPathTree& fwd,
                                   const ShortestPathTree& bwd) {
  if (indexed_ == kMaxIndexedRoutes) return;
  if (indexed_ == routes_.size()) routes_.emplace_back();
  IndexedRoute& route = routes_[indexed_];
  const auto bit = static_cast<uint16_t>(1u << indexed_);
  ++indexed_;

  const RoadNetwork& net = net_;
  const size_t length = edges_.size();
  route.nodes.resize(length + 1);
  route.prefix_m.resize(length + 1);
  route.suffix_m.resize(length + 1);
  route.nodes[0] = fwd.root;
  route.prefix_m[0] = 0.0;
  for (size_t k = 0; k < length; ++k) {
    route.nodes[k + 1] = net.head(edges_[k]);
    route.prefix_m[k + 1] = route.prefix_m[k] + net.length_m(edges_[k]);
  }
  route.suffix_m[length] = 0.0;
  for (size_t k = length; k-- > 0;) {
    route.suffix_m[k] = route.suffix_m[k + 1] + net.length_m(edges_[k]);
  }
  // The chains are compared edge for edge: of parallel edges, a tree picks
  // one, and a shared street is summed at either path's length.
  size_t pe = 0;
  while (pe < length && fwd.parent_edge[route.nodes[pe + 1]] == edges_[pe]) ++pe;
  size_t ss = length;
  while (ss > 0 && bwd.parent_edge[route.nodes[ss - 1]] == edges_[ss - 1]) --ss;
  route.prefix_end = static_cast<uint32_t>(pe);
  route.suffix_start = static_cast<uint32_t>(ss);
  // on <= r's meters, so the bound needs off <= theta / (1 - theta) times
  // them; the slack absorbs rounding, since stopping early only walks.
  route.max_off_m =
      theta_ / (1.0 - theta_) * route.prefix_m[length] * (1.0 + 1e-6) + 1e-6;

  size_t slots = 2;
  while (slots < 2 * (length + 1)) slots *= 2;
  route.slots.assign(slots, {kInvalidNode, 0});
  const size_t mask = slots - 1;
  for (size_t k = 0; k <= length; ++k) {
    const NodeId x = route.nodes[k];
    size_t h = SlotOf(x, mask);
    while (route.slots[h].first != kInvalidNode) h = (h + 1) & mask;
    route.slots[h] = {x, static_cast<uint32_t>(k)};
    on_route_[x] |= bit;
  }
}

void DissimilarityScan::ForgetRoutes() {
  for (size_t r = 0; r < indexed_; ++r) {
    for (NodeId x : routes_[r].nodes) on_route_[x] = 0;
  }
  indexed_ = 0;
}

DissimilarityScan::Verdict DissimilarityScan::WalkVerdict(
    const ShortestPathTree& fwd, const ShortestPathTree& bwd, NodeId v,
    std::span<const double> weights, std::span<const Path> accepted, double theta,
    SimilarityMeasure measure) {
  bool loopless = true;
  if (!WalkViaPath(fwd, bwd, v, &loopless)) return Verdict::kOpen;
  // The debug contracts check each verdict against its definition.
  const auto as_path = [&] {
    return AsPath(net_, fwd.root, bwd.root, edges_, weights);
  };
  // Via-paths whose halves share nodes contain loops; such candidates are
  // not valid simple alternatives.
  ALT_DCHECK(loopless == IsLoopless(net_, as_path()))
      << "loop verdict disagrees with IsLoopless at via node " << v;
  if (!loopless) return Verdict::kLoop;
  // The defining acceptance test: dis(p, P) > theta.
  const bool similar = SimilarToAny(accepted, theta, measure);
  ALT_DCHECK(similar == (DissimilarityToSet(net_, as_path(), accepted, measure) <= theta))
      << "similarity verdict disagrees with DissimilarityToSet at via node " << v;
  return similar ? Verdict::kSimilar : Verdict::kAccept;
}

Result<AlternativeSet> DissimilarityScan::Run(const ShortestPathTree& fwd,
                                              const ShortestPathTree& bwd,
                                              std::span<const double> weights,
                                              const AlternativeOptions& options,
                                              SimilarityMeasure measure,
                                              obs::SearchStats* stats,
                                              CancellationToken* cancel) {
  const RoadNetwork& net = net_;
  const size_t n = net.num_nodes();
  ALT_CHECK(fwd.direction == SearchDirection::kForward &&
            bwd.direction == SearchDirection::kBackward)
      << "need a forward tree from the source and a backward tree to the target";
  ALT_CHECK(fwd.dist.size() == n && fwd.parent_edge.size() == n &&
            bwd.dist.size() == n && bwd.parent_edge.size() == n)
      << "trees sized for a different network";
  const NodeId source = fwd.root;
  const NodeId target = bwd.root;
  if (!fwd.Reached(target)) {
    return Status::NotFound("target unreachable from source");
  }

  AlternativeSet out;
  out.optimal_cost = fwd.dist[target];
  const double cost_limit = options.stretch_bound * out.optimal_cost;
  const double theta = options.dissimilarity_threshold;
  theta_ = theta;
  // The U-turn test and the bound read intact chains and a route 0 with
  // edges, and the bound is an overlap-over-candidate (or -shorter) one.
  const bool bounded = fwd.demoted == 0 && bwd.demoted == 0 &&
                       source != target &&
                       measure != SimilarityMeasure::kJaccardByLength;
  ForgetRoutes();

  // The fastest path seeds the result set P.
  edges_.clear();
  ALTROUTE_RETURN_NOT_OK(fwd.AppendPathTo(net, target, &edges_));
  ALTROUTE_ASSIGN_OR_RETURN(Path shortest,
                            MakePath(net, source, target, edges_, weights));
  if (bounded) IndexRoute(fwd, bwd);
  out.routes.push_back(std::move(shortest));
  if (stats != nullptr) ++stats->paths_generated;

  // Candidate via nodes, bounded by the stretch limit. Nodes unreached in
  // either tree are excluded.
  candidates_.clear();
  double lo = kInfCost;
  double hi = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    if (!fwd.Reached(v) || !bwd.Reached(v)) continue;
    const double via = fwd.dist[v] + bwd.dist[v];
    if (via <= cost_limit + 1e-9) {
      candidates_.push_back(v);
      lo = std::min(lo, via);
      hi = std::max(hi, via);
    }
  }
  BucketByVia(fwd, bwd, lo, hi);

  const ByVia by_via{fwd, bwd};
  std::fill(mate_.begin(), mate_.end(), false);
  size_t bucket = 0;
  size_t sorted_end = 0;  // candidates_ is in scan order up to here
  for (size_t i = 0; i < candidates_.size(); ++i) {
    if (static_cast<int>(out.routes.size()) >= options.max_routes) break;
    if (cancel != nullptr && cancel->ShouldStop()) {
      out.completion =
          Status::DeadlineExceeded("via-candidate scan cut short");
      break;  // shortest path already reported; ship what we have
    }
    if (i == sorted_end) {  // the scan reaches the next non-empty bucket
      while (bucket_first_[bucket + 1] <= i) ++bucket;
      sorted_end = bucket_first_[bucket + 1];
      std::sort(candidates_.begin() + static_cast<ptrdiff_t>(i),
                candidates_.begin() + static_cast<ptrdiff_t>(sorted_end),
                by_via);
    }
    const NodeId v = candidates_[i];
    ALT_DCHECK(i == 0 || by_via(candidates_[i - 1], v))
        << "via candidates out of (via cost, id) order at " << v;
    if (mate_[v]) continue;  // its via path was examined already

    // The fast tests mark v's mates as the walk would, so a walk after them
    // marks none. In Debug builds a walk re-derives every fast verdict.
    const uint64_t marked = mates_marked_;
    Verdict verdict = bounded ? FastVerdict(fwd, bwd, v) : Verdict::kOpen;
    ALT_DCHECK(verdict == Verdict::kOpen ||
               verdict == WalkVerdict(fwd, bwd, v, weights, out.routes, theta, measure))
        << "fast verdict disagrees with the walked one at via node " << v;
    if (verdict == Verdict::kOpen) {
      verdict = WalkVerdict(fwd, bwd, v, weights, out.routes, theta, measure);
    }
    ALT_DCHECK(!bounded || mates_marked_ == marked)
        << "a plateau-mate of via node " << v << " was left unmarked";
    if (verdict == Verdict::kOpen) continue;  // a broken chain
    if (stats != nullptr) {
      ++stats->paths_generated;
      if (verdict == Verdict::kLoop) ++stats->paths_rejected_filter;
      if (verdict == Verdict::kSimilar) ++stats->paths_rejected_similarity;
    }
    if (verdict != Verdict::kAccept) continue;
    ALTROUTE_ASSIGN_OR_RETURN(Path path,
                              MakePath(net, source, target, edges_, weights));
    if (bounded) IndexRoute(fwd, bwd);
    out.routes.push_back(std::move(path));
  }
  return out;
}

DissimilarityGenerator::DissimilarityGenerator(std::shared_ptr<TreePair> trees,
                                               const AlternativeOptions& options,
                                               SimilarityMeasure measure)
    : trees_(std::move(trees)),
      options_(options),
      measure_(measure),
      scan_(trees_->network()) {
  // The pairwise acceptance test dis(p, P) > theta needs theta in [0, 1):
  // dissimilarity is a [0, 1] ratio, so theta >= 1 rejects every candidate
  // and theta < 0 accepts duplicates (paper fixes theta = 0.5).
  ALT_CHECK(options_.dissimilarity_threshold >= 0.0 &&
            options_.dissimilarity_threshold < 1.0)
      << "dissimilarity threshold out of [0,1)";
}

Result<AlternativeSet> DissimilarityGenerator::Generate(NodeId source,
                                                        NodeId target,
                                                        obs::SearchStats* stats,
                                                        CancellationToken* cancel) {
  // Like Plateaus, SSVP-D+ is powered by the two shortest-path trees; in a
  // request, Plateaus has usually built them already.
  ALTROUTE_ASSIGN_OR_RETURN(
      const size_t settled,
      trees_->Acquire(source, target, TreePair::Need::kBothTrees, &reader_,
                      stats, cancel));
  ALTROUTE_ASSIGN_OR_RETURN(
      AlternativeSet out,
      scan_.Run(trees_->forward(), trees_->backward(), trees_->weights(),
                options_, measure_, stats, cancel));
  out.work_settled_nodes = settled;
  return out;
}

}  // namespace altroute
