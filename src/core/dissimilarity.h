// The Dissimilarity technique (paper Sec. 2.3): SSVP-D+ of Chondrogiannis et
// al. [9]. Via-paths sp(s,v)+sp(v,t) are enumerated in ascending length
// order from the two shortest-path trees; a via-path is accepted only when
// its dissimilarity to every previously accepted path exceeds the threshold
// theta, guaranteeing pairwise-dissimilar, short alternatives.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/alternative_generator.h"
#include "core/similarity.h"
#include "routing/tree_pair.h"

namespace altroute {

/// The via-node scan of SSVP-D+ over a prebuilt tree pair: everything
/// DissimilarityGenerator does after its trees, shared with
/// CommercialBaseline. It returns the set, edge for edge and bit for bit,
/// and the path counters that materialising every via path with MakePath
/// and testing it with IsLoopless and DissimilarityToSet would, walking
/// about one via path in a hundred. F(v) is the forward-tree chain s -> v,
/// B(v) the backward-tree chain v -> t, and the candidate is F(v) + B(v):
///
///  * Via nodes joined by an edge on both trees ("plateau-mates") share one
///    via path. A path seen before is always rejected again (same loop
///    verdict; the accepted set has only grown), so only the first mate in
///    scan order is examined and the rest are skipped uncounted. v's mates
///    are its plateau run: up while the forward parent edge is also the
///    backward parent of its tail, down the same with the trees swapped. A
///    walk over the run alone marks them, whatever then decides v.
///  * A U-turn, where v's next hop toward t is its predecessor from s,
///    loops at that node and is rejected in O(1). It lies on no run: a mate
///    would close a cycle in one of the trees.
///  * The bound against an accepted route r = r[0..L]: r[0..pe] is its
///    longest prefix that is a forward-tree chain, r[ss..L] its longest
///    suffix that is a backward-tree chain. Walking up from v to the first
///    prefix node r[i] passes F', walking down to the first suffix node
///    r[j] passes B' (after v), so the candidate is r[0..i] + F' + B' +
///    r[j..L]. If j < i, or j = i with r[i] != v, r[j] lies on both halves:
///    a loop. Otherwise r[0..i] and r[j..L] lie on the candidate without
///    sharing an edge, so a loopless candidate shares at least their meters
///    `on` with r, out of on + off (`off`: the meters of F' and B'). When
///    on >= (1 - theta) (on + off) by a margin no rounding crosses, it is
///    similar to r, and it loops iff a B' node repeats an F' node or lies on
///    r at an index <= i, or an F' node other than v lies on r at an index
///    >= j (v = r[j] is where the halves join). A walk stops once off rules
///    the bound out.
///  * The rest are walked: a candidate is loopless iff no node repeats
///    across its two tree chains, and a street {a, b} lies on a loopless
///    one iff a and b are adjacent on it, so overlap is read off the
///    candidate's node positions and summed over the same edges, in the
///    same order, as SharedLengthMeters. Every candidate is walked when a
///    tree has a broken chain (only a hand-built tree can have one: the
///    walk skips such chains uncounted), when s = t, and under
///    kJaccardByLength. The bound is tried against the first 16 routes
///    only.
///  * Most scans stop at max_routes halfway down the candidate list, so the
///    list is sorted only as far as the scan reads: a counting sort into
///    buckets of a monotone key of the via cost, each bucket sorted when the
///    scan reaches it. Concatenated, the sorted buckets are the full sort.
///
/// The workspace (a position, a plateau-mate bit and a 16-bit mask of the
/// accepted routes through it per node, the candidates with their bucket
/// offsets, the accepted routes' tables and path-sized buffers) is reused
/// across calls, so a scan allocates only the routes it ships. Not
/// thread-safe.
class DissimilarityScan {
 public:
  explicit DissimilarityScan(const RoadNetwork& net);

  /// SSVP-D+ from `fwd` (forward tree rooted at the source) and `bwd`
  /// (backward tree rooted at the target), both built over `weights`.
  /// NotFound when the target is unreached. A fired `cancel` ends the scan
  /// with the routes found so far and `completion` = DeadlineExceeded.
  /// `work_settled_nodes` is left to the caller, which built the trees.
  Result<AlternativeSet> Run(const ShortestPathTree& fwd,
                             const ShortestPathTree& bwd,
                             std::span<const double> weights,
                             const AlternativeOptions& options,
                             SimilarityMeasure measure,
                             obs::SearchStats* stats = nullptr,
                             CancellationToken* cancel = nullptr);

 private:
  /// What the scan makes of an examined candidate; kOpen: not decided yet.
  enum class Verdict { kOpen, kLoop, kSimilar, kAccept };

  /// An accepted route as the bound reads it.
  struct IndexedRoute {
    std::vector<NodeId> nodes;     // r[0..L]
    std::vector<double> prefix_m;  // prefix_m[k]: meters of r[0..k]
    std::vector<double> suffix_m;  // suffix_m[k]: meters of r[k..L]
    uint32_t prefix_end = 0;       // pe
    uint32_t suffix_start = 0;     // ss
    double max_off_m = 0.0;        // off beyond this rules the bound out
    // Open addressing, node -> index on r; a power of two in size.
    std::vector<std::pair<NodeId, uint32_t>> slots;

    /// x's index on r; x must lie on r.
    uint32_t IndexOf(NodeId x) const;
  };

  /// A node of a tree chain walked from v, with the meters from v to it.
  struct ChainNode {
    NodeId node;
    double meters;
  };

  static constexpr size_t kMaxIndexedRoutes = 16;

  /// Walks the via path through `v` into edges_ and pos_, marking v's
  /// plateau-mates. False when a tree chain is broken or not contiguous
  /// (MakePath would reject the path); otherwise `*loopless` is the verdict.
  bool WalkViaPath(const ShortestPathTree& fwd, const ShortestPathTree& bwd,
                   NodeId v, bool* loopless);

  /// Groups candidates_ into buckets of ascending via cost, about four
  /// candidates each, with bucket b at [bucket_first_[b],
  /// bucket_first_[b + 1]); within a bucket the order is arbitrary. `lo` and
  /// `hi` are the least and greatest via cost of the candidates.
  void BucketByVia(const ShortestPathTree& fwd, const ShortestPathTree& bwd,
                   double lo, double hi);

  /// Starts a new candidate's window of positions in pos_.
  void OpenWindow();

  /// Records node `x` at path index `index`; a node already on the
  /// candidate makes it loop.
  void Place(NodeId x, uint32_t index, bool* loopless);

  /// Index of the candidate edge joining `a` and `b` in either direction,
  /// or kNoEdge when the street {a, b} is not on the candidate.
  uint32_t CandidateEdgeIndex(NodeId a, NodeId b) const;

  /// SharedLengthMeters(candidate, q), summed the same way.
  double SharedLength(const Path& q);

  /// DissimilarityToSet(candidate, accepted, measure) <= theta, stopping at
  /// the first accepted route that decides it.
  bool SimilarToAny(std::span<const Path> accepted, double theta,
                    SimilarityMeasure measure);

  /// Marks v's plateau run, as WalkViaPath marks it on intact trees.
  void MarkMates(const ShortestPathTree& fwd, const ShortestPathTree& bwd,
                 NodeId v);

  /// The U-turn test, then the bound against each indexed route, on intact
  /// trees: kLoop, kSimilar or kOpen. Marks v's plateau-mates.
  Verdict FastVerdict(const ShortestPathTree& fwd, const ShortestPathTree& bwd,
                      NodeId v);

  /// The bound against `route`, whose nodes carry `bit` in on_route_, for
  /// the candidate whose chains up_ and down_ hold as far as walked.
  Verdict BoundVerdict(const IndexedRoute& route, uint16_t bit,
                       const ShortestPathTree& fwd,
                       const ShortestPathTree& bwd);

  /// Appends the next node up (down) the forward (backward) tree chain.
  void ExtendUp(const ShortestPathTree& fwd);
  void ExtendDown(const ShortestPathTree& bwd);

  /// Indexes the route in edges_, unless kMaxIndexedRoutes are indexed.
  void IndexRoute(const ShortestPathTree& fwd, const ShortestPathTree& bwd);

  /// Clears on_route_ and the indexed routes.
  void ForgetRoutes();

  /// v's verdict by walking its via path, checked in Debug builds against
  /// IsLoopless and DissimilarityToSet. kOpen when a tree chain is broken:
  /// MakePath would reject the path, and the scan skips it uncounted.
  Verdict WalkVerdict(const ShortestPathTree& fwd, const ShortestPathTree& bwd,
                      NodeId v, std::span<const double> weights,
                      std::span<const Path> accepted, double theta,
                      SimilarityMeasure measure);

  static constexpr uint32_t kNoEdge = UINT32_MAX;

  const RoadNetwork& net_;
  double theta_ = 0.0;  // this scan's dissimilarity threshold
  // pos_[x] - cand_base_ is x's index on the current candidate (or, in the
  // bound, on its up chain) when pos_[x] >= cand_base_. Each candidate
  // starts its window past the last one's, so nothing is cleared between
  // candidates.
  std::vector<uint32_t> pos_;
  uint32_t cand_base_ = 1;
  uint32_t next_base_ = 1;
  // mate_[x]: x is a plateau-mate of a via node examined this query.
  std::vector<bool> mate_;
  uint64_t mates_marked_ = 0;  // newly, by WalkViaPath: the debug contracts
  // on_route_[x] bit r: x lies on indexed route r.
  std::vector<uint16_t> on_route_;
  std::vector<IndexedRoute> routes_;  // the first indexed_ are this scan's
  size_t indexed_ = 0;
  std::vector<ChainNode> up_;    // v, then up the forward tree
  std::vector<ChainNode> down_;  // v, then down the backward tree
  std::vector<NodeId> candidates_;
  std::vector<uint32_t> bucket_first_;  // one more entry than buckets
  std::vector<uint32_t> bucket_next_;   // BucketByVia's placing cursors
  std::vector<EdgeId> edges_;  // the candidate, source to target
  std::vector<uint32_t> hits_;
};

class DissimilarityGenerator final : public AlternativeRouteGenerator {
 public:
  /// Reads its trees off `trees`, which other generators may share.
  explicit DissimilarityGenerator(std::shared_ptr<TreePair> trees,
                                  const AlternativeOptions& options = {},
                                  SimilarityMeasure measure =
                                      SimilarityMeasure::kOverlapOverCandidate);

  const std::string& name() const override { return name_; }
  const std::vector<double>& weights() const override {
    return trees_->weights();
  }

  Result<AlternativeSet> Generate(NodeId source, NodeId target,
                                  obs::SearchStats* stats = nullptr,
                                  CancellationToken* cancel = nullptr) override;

 private:
  std::string name_ = "dissimilarity";
  std::shared_ptr<TreePair> trees_;
  TreePair::Reader reader_;
  AlternativeOptions options_;
  SimilarityMeasure measure_;
  DissimilarityScan scan_;
};

}  // namespace altroute
