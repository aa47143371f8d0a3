#include "server/query_processor_pool.h"

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"

namespace altroute {

namespace {

obs::Gauge& ContextsInUseGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "altroute_query_contexts_in_use",
      "Query-processor contexts currently checked out by workers.");
  return g;
}

}  // namespace

Result<QueryProcessorPool> QueryProcessorPool::Create(
    std::shared_ptr<const RoadNetwork> net, size_t num_contexts,
    std::shared_ptr<const ContractionHierarchy> ch,
    std::shared_ptr<EngineBreakerSet> breakers) {
  if (net == nullptr) return Status::InvalidArgument("null network");
  if (num_contexts == 0) {
    return Status::InvalidArgument("pool needs at least one context");
  }
  // Shared immutable state: one snapping index, and one network and pair of
  // hierarchies behind every suite; each context's engines keep only their
  // own mutable search workspaces.
  auto index = std::make_shared<const SpatialIndex>(net->coords());
  ALTROUTE_ASSIGN_OR_RETURN(
      EngineSuite first,
      EngineSuite::MakePaperSuite(net, AlternativeOptions{},
                                  /*commercial_hour=*/3,
                                  /*display_weights=*/nullptr, std::move(ch)));

  std::vector<std::unique_ptr<QueryProcessor>> contexts;
  contexts.reserve(num_contexts);
  for (size_t i = 1; i < num_contexts; ++i) {
    contexts.push_back(
        std::make_unique<QueryProcessor>(first.Replicate(), index));
  }
  contexts.push_back(std::make_unique<QueryProcessor>(std::move(first), index));
  for (const auto& context : contexts) context->set_breakers(breakers);
  return QueryProcessorPool(std::move(contexts));
}

QueryProcessorPool::QueryProcessorPool(
    std::vector<std::unique_ptr<QueryProcessor>> contexts)
    : contexts_(std::move(contexts)) {
  ALT_CHECK(!contexts_.empty()) << "empty processor pool";
  gate_->free_list.reserve(contexts_.size());
  for (const auto& c : contexts_) {
    ALT_CHECK(c != nullptr) << "null processor in pool";
    gate_->free_list.push_back(c.get());
  }
}

QueryProcessorPool::Lease QueryProcessorPool::Acquire() {
  QueryProcessor* p = nullptr;
  {
    MutexLock lock(&gate_->mu);
    while (gate_->free_list.empty()) gate_->cv.Wait(&gate_->mu);
    p = gate_->free_list.back();
    gate_->free_list.pop_back();
  }
  ContextsInUseGauge().Add(1.0);
  return Lease(this, p);
}

void QueryProcessorPool::Release(QueryProcessor* processor) {
  {
    MutexLock lock(&gate_->mu);
    gate_->free_list.push_back(processor);
  }
  ContextsInUseGauge().Add(-1.0);
  gate_->cv.NotifyOne();
}

QueryProcessorPool::Lease::~Lease() {
  if (pool_ != nullptr) pool_->Release(processor_);
}

const RoadNetwork& QueryProcessorPool::network() const {
  return contexts_.front()->network();
}

}  // namespace altroute
