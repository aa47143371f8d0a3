// Per-query search statistics, threaded through the routing kernels and the
// alternative-route generators as an optional out-parameter. Passing nullptr
// disables collection entirely: kernels accumulate into stack locals and
// flush once at the end, so the disabled path costs nothing measurable.
//
// The counters follow the measurement methodology of the alternative-route
// literature (settled-node counts, search-space overlap): they let every
// perf PR compare engines by work done, not only by wall time.
#pragma once

#include <cstdint>

namespace altroute {
namespace obs {

/// Work counters for one search (or one generator invocation). Plain
/// aggregatable integers; merging two stats objects is field-wise addition.
struct SearchStats {
  /// Nodes permanently settled (popped with final distance).
  uint64_t nodes_settled = 0;
  /// Edges examined in relaxation loops (including ones that did not
  /// improve a distance).
  uint64_t edges_relaxed = 0;
  /// Heap push-or-decrease operations.
  uint64_t heap_pushes = 0;
  /// Heap pop operations.
  uint64_t heap_pops = 0;
  /// Candidate paths a generator materialised (including rejected ones).
  uint64_t paths_generated = 0;
  /// Candidates dropped for exceeding the stretch bound.
  uint64_t paths_rejected_stretch = 0;
  /// Candidates dropped by a dissimilarity/duplicate test.
  uint64_t paths_rejected_similarity = 0;
  /// Candidates dropped by structural filters (loops, malformed joins,
  /// perceptual pruning).
  uint64_t paths_rejected_filter = 0;
  /// Outer iterations an iterative generator ran (Penalty).
  uint64_t iterations = 0;
  /// One-to-all searches run to build shortest-path trees: one per Dijkstra
  /// tree or PHAST sweep. A /route over a hierarchy runs 4, all PHAST
  /// sweeps: 2 on the display weights, 2 on the commercial weights.
  uint64_t trees_built = 0;

  /// Field-wise accumulation.
  void MergeFrom(const SearchStats& other) {
    nodes_settled += other.nodes_settled;
    edges_relaxed += other.edges_relaxed;
    heap_pushes += other.heap_pushes;
    heap_pops += other.heap_pops;
    paths_generated += other.paths_generated;
    paths_rejected_stretch += other.paths_rejected_stretch;
    paths_rejected_similarity += other.paths_rejected_similarity;
    paths_rejected_filter += other.paths_rejected_filter;
    iterations += other.iterations;
    trees_built += other.trees_built;
  }

  uint64_t paths_rejected_total() const {
    return paths_rejected_stretch + paths_rejected_similarity +
           paths_rejected_filter;
  }

  bool IsZero() const {
    return nodes_settled == 0 && edges_relaxed == 0 && heap_pushes == 0 &&
           heap_pops == 0 && paths_generated == 0 &&
           paths_rejected_total() == 0 && iterations == 0 &&
           trees_built == 0;
  }
};

}  // namespace obs
}  // namespace altroute
