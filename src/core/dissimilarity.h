// The Dissimilarity technique (paper Sec. 2.3): SSVP-D+ of Chondrogiannis et
// al. [9]. Via-paths sp(s,v)+sp(v,t) are enumerated in ascending length
// order from the two shortest-path trees; a via-path is accepted only when
// its dissimilarity to every previously accepted path exceeds the threshold
// theta, guaranteeing pairwise-dissimilar, short alternatives.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/alternative_generator.h"
#include "core/similarity.h"
#include "routing/tree_pair.h"

namespace altroute {

/// The via-node scan of SSVP-D+ over a prebuilt tree pair: everything
/// DissimilarityGenerator does after its trees, shared with
/// CommercialBaseline. It returns the set, edge for edge and bit for bit,
/// that materialising every via path with MakePath and testing it with
/// IsLoopless and DissimilarityToSet would, without doing either:
///
///  * Via nodes joined by an edge on both trees ("plateau-mates") share one
///    via path. A path seen before is always rejected again (same loop
///    verdict; the accepted set has only grown), so only the first mate in
///    scan order is examined and the rest are skipped uncounted.
///  * A via path is loopless iff no node repeats across its two tree
///    chains, which the scan decides while walking them.
///  * A street {a, b} lies on a loopless candidate iff a and b are adjacent
///    on it, so overlap is read off the candidate's node positions and
///    summed over the same edges, in the same order, as SharedLengthMeters.
///  * Most scans stop at max_routes halfway down the candidate list, so the
///    list is sorted only as far as the scan reads: a counting sort into
///    buckets of a monotone key of the via cost, each bucket sorted when the
///    scan reaches it. Concatenated, the sorted buckets are the full sort.
///
/// The workspace (a position per node, a plateau-mate bit per node, the
/// candidates with their bucket offsets and path-sized buffers) is reused
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

  static constexpr uint32_t kNoEdge = UINT32_MAX;

  const RoadNetwork& net_;
  // pos_[x] - cand_base_ is x's index on the current candidate when
  // pos_[x] >= cand_base_. Each candidate starts its window past the last
  // one's, so nothing is cleared between candidates.
  std::vector<uint32_t> pos_;
  uint32_t cand_base_ = 1;
  uint32_t next_base_ = 1;
  // mate_[x]: x is a plateau-mate of a via node examined this query.
  std::vector<bool> mate_;
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
