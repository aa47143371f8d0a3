// Per-worker query contexts for concurrent serving. QueryProcessor and the
// engines in EngineSuite hold mutable search state and are not thread-safe,
// but alternative-route generation is embarrassingly parallel across queries
// (independent per-query searches, cf. Dees et al.), so the pool owns one
// processor per HTTP worker: engines are rebuilt per context while the
// immutable RoadNetwork, both hierarchies (with their weights) and the
// snapping SpatialIndex are shared via shared_ptr. Handlers check a context
// out for the duration of one request (RAII Lease) and return it on
// destruction.
#pragma once

#include <memory>
#include <vector>

#include "server/query_processor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace altroute {

class QueryProcessorPool {
 public:
  /// Builds `num_contexts` processors over one shared network: the spatial
  /// index and both hierarchies are built once; each context gets its
  /// own engine suite (per-worker mutable state, see EngineSuite::Replicate)
  /// in the paper's configuration (EngineSuite::MakePaperSuite's defaults).
  /// `ch`, the hierarchy of the network's free-flow weights, is shared by
  /// every context; null contracts those weights once here. A non-null
  /// `breakers` set is attached to every context (breakers are the
  /// deliberately shared cross-worker state: engine health is a property of
  /// the city's data plane); null disables breaker checks.
  static Result<QueryProcessorPool> Create(
      std::shared_ptr<const RoadNetwork> net, size_t num_contexts,
      std::shared_ptr<const ContractionHierarchy> ch = nullptr,
      std::shared_ptr<EngineBreakerSet> breakers = nullptr);

  QueryProcessorPool(QueryProcessorPool&&) = default;
  QueryProcessorPool& operator=(QueryProcessorPool&&) = default;

  /// RAII checkout: the processor is exclusively owned until the lease is
  /// destroyed, then returns to the pool.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), processor_(other.processor_) {
      other.pool_ = nullptr;
      other.processor_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    QueryProcessor* operator->() { return processor_; }
    QueryProcessor& operator*() { return *processor_; }

   private:
    friend class QueryProcessorPool;
    Lease(QueryProcessorPool* pool, QueryProcessor* processor)
        : pool_(pool), processor_(processor) {}

    QueryProcessorPool* pool_;
    QueryProcessor* processor_;
  };

  /// Checks a free context out, blocking until one is available. With one
  /// context per HTTP worker this never blocks in the steady state.
  Lease Acquire();

  size_t size() const { return contexts_.size(); }
  const RoadNetwork& network() const;

 private:
  /// Adopts the processors Create built. Must be non-empty and non-null.
  explicit QueryProcessorPool(
      std::vector<std::unique_ptr<QueryProcessor>> contexts);

  void Release(QueryProcessor* processor);

  /// The checkout gate lives behind one unique_ptr so the pool stays movable
  /// (Mutex and CondVar are not). Heap placement also keeps the guarded
  /// free list and its mutex at a stable address across moves, which lets
  /// the analysis track `gate_->mu` / `gate_->free_list` as one consistent
  /// capability expression.
  struct Gate {
    Mutex mu;
    CondVar cv;
    std::vector<QueryProcessor*> free_list ALT_GUARDED_BY(mu);
  };

  std::vector<std::unique_ptr<QueryProcessor>> contexts_;
  std::unique_ptr<Gate> gate_ = std::make_unique<Gate>();
};

}  // namespace altroute
