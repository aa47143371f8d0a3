// Allocation gate: the heap allocations each engine of the paper suite makes
// per call once its workspaces are warm, counted by replacing the global
// operator new for this binary alone (hence a test executable of its own).
//
// Every workspace an engine reuses (the PHAST heaps and label buffers, the
// via scan's candidates and accepted-route tables, and the plateau records)
// is sized by the first call and reused by the second, which is the one
// counted. What a warm call still
// allocates is the routes it returns plus the copies the filter chain makes.
// `QueryProcessor::Process` is gated the same way, on its own allocations:
// the call's minus those of the engines it runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "citygen/city_generator.h"
#include "core/engine_registry.h"
#include "obs/phase_timer.h"
#include "routing/contraction_hierarchy.h"
#include "routing/dijkstra.h"
#include "server/query_processor.h"
#include "traffic/traffic_model.h"
#include "util/random.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace altroute {
namespace {

TEST(EngineAllocationTest, WarmCallsStayUnderTheirBounds) {
#ifndef NDEBUG
  // The debug contracts materialise every via candidate as a Path to check
  // the scan's verdicts, so only a build without them has these counts.
  GTEST_SKIP() << "allocation bounds hold for NDEBUG builds";
#endif
  auto built = citygen::BuildCityNetwork(
      citygen::Scaled(citygen::MelbourneSpec(), 0.2));
  ASSERT_TRUE(built.ok()) << built.status();
  std::shared_ptr<const RoadNetwork> net = std::move(built).ValueOrDie();
  auto ch = ContractionHierarchy::Build(net, FreeFlowModel().Weights(*net));
  ASSERT_TRUE(ch.ok()) << ch.status();
  auto suite =
      EngineSuite::MakePaperSuite(net, {}, 3, nullptr, std::move(ch).ValueOrDie());
  ASSERT_TRUE(suite.ok()) << suite.status();

  // 200 seeded ODs with a route between them.
  Dijkstra dijkstra(*net);
  Rng rng(2022);
  std::vector<std::pair<NodeId, NodeId>> ods;
  while (ods.size() < 200) {
    const auto s = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    const auto t = static_cast<NodeId>(rng.NextUint64(net->num_nodes()));
    if (s != t && dijkstra.ShortestPath(s, t, net->travel_times()).ok()) {
      ods.emplace_back(s, t);
    }
  }

  uint64_t warm[kNumApproaches] = {};
  for (const auto& [s, t] : ods) {
    for (int call = 0; call < 2; ++call) {
      suite->display_trees().Reset();  // as a request starts
      for (Approach a : kAllApproaches) {
        const uint64_t before = g_allocations.load(std::memory_order_relaxed);
        const auto set = suite->engine(a).Generate(s, t);
        const uint64_t after = g_allocations.load(std::memory_order_relaxed);
        ASSERT_TRUE(set.ok()) << ApproachName(a) << " " << s << "->" << t
                              << ": " << set.status();
        if (call == 1) warm[static_cast<int>(a)] += after - before;
      }
    }
  }
  double per_call[kNumApproaches];
  for (Approach a : kAllApproaches) {
    const int i = static_cast<int>(a);
    per_call[i] = static_cast<double>(warm[i]) / static_cast<double>(ods.size());
    std::printf("%s: %.1f allocations per warm call\n",
                suite->engine(a).name().c_str(), per_call[i]);
  }
  EXPECT_LE(per_call[static_cast<int>(Approach::kGoogleMaps)], 160.0);
  EXPECT_LE(per_call[static_cast<int>(Approach::kPlateaus)], 30.0);
  EXPECT_LE(per_call[static_cast<int>(Approach::kDissimilarity)], 8.0);

  // Process() as the /route handler calls it: a fresh RequestProfile per
  // request and serve's default 10 s deadline. It runs the same engines on
  // the same ODs in the same order, so what it allocates beyond their warm
  // calls above is its own: snapping, bookkeeping, the profile and the
  // displayed routes. Its metric series are looked up at a processor's
  // first observations, so a warm call observes without a lookup.
  uint64_t engines_warm = 0;
  for (uint64_t n : warm) engines_warm += n;
  QueryProcessor processor(std::move(suite).ValueOrDie());
  uint64_t process_warm = 0;
  for (const auto& [s, t] : ods) {
    for (int call = 0; call < 2; ++call) {
      const uint64_t before = g_allocations.load(std::memory_order_relaxed);
      obs::RequestProfile profile;
      const auto response =
          processor.Process(net->coord(s), net->coord(t), nullptr,
                            Deadline::AfterSeconds(10.0), &profile);
      const uint64_t after = g_allocations.load(std::memory_order_relaxed);
      ASSERT_TRUE(response.ok()) << s << "->" << t << ": "
                                 << response.status();
      ASSERT_EQ(response->snapped_source, s);
      ASSERT_EQ(response->snapped_target, t);
      ASSERT_FALSE(response->degraded);
      if (call == 1) process_warm += after - before;
    }
  }
  const double process_own =
      (static_cast<double>(process_warm) - static_cast<double>(engines_warm)) /
      static_cast<double>(ods.size());
  std::printf("Process(): %.1f allocations per warm call beyond its engines\n",
              process_own);
  EXPECT_LE(process_own, 68.0);
}

}  // namespace
}  // namespace altroute
