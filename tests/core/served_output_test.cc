// The served-output table: what the four engines of the paper suite return,
// and the work they do, on the three study cities, hashed per (city, engine)
// and compared with a committed table. A change that moves a route or a
// work counter shows here, without a scratch program. A change that moves
// them on purpose updates the table and says why.
//
// Only discrete outputs are hashed (statuses, route counts, edge ids and the
// integer SearchStats fields), never a cost: libm may differ between hosts,
// and a tie such a difference flipped would show as a mismatch worth
// investigating.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/engine_registry.h"
#include "routing/contraction_hierarchy.h"
#include "study_ods.h"
#include "traffic/traffic_model.h"

namespace altroute {
namespace {

/// FNV-1a, 64 bits, over the little-endian bytes of each value.
class Fnv1a {
 public:
  void Add(uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

/// One row: the hash of an engine's statuses and routes over a city's ODs,
/// and the hash of its work counters.
struct Row {
  const char* city;
  const char* engine;
  uint64_t routes;
  uint64_t work;
};

// Melbourne, Dhaka and Copenhagen at scale 0.2, the first 40 of the
// equivalence suite's binned ODs (seed 2022, 14 per bin), the engines run
// in A-D order per OD over one shared tree pair, as a /route runs them.
constexpr Row kTable[] = {
    {"melbourne", "commercial", 0x29cd7f9e883e0a62ull, 0xb4cf5f4d5dd2f7eaull},
    {"melbourne", "plateau_ch", 0xaa9a74eb231961e2ull, 0x61870b5efb16d1ceull},
    {"melbourne", "dissimilarity", 0x92b61da81f6c77e0ull, 0x1a723c2854e64df7ull},
    {"melbourne", "penalty_ch", 0xe5e760bbb11c34f5ull, 0x39b9429abef6d7a5ull},
    {"dhaka", "commercial", 0x7eb539a13c5ff10cull, 0x2f532d49d46244ceull},
    {"dhaka", "plateau_ch", 0xf8c187eebc31f73cull, 0x965288b1f1eddb22ull},
    {"dhaka", "dissimilarity", 0xd7f195c4ebfc00fdull, 0xb2068d9aba59f817ull},
    {"dhaka", "penalty_ch", 0x3c7188b378ea07ccull, 0x9e87b1e680dbf270ull},
    {"copenhagen", "commercial", 0x913fc5625071ca51ull, 0x00344ef4897c47f1ull},
    {"copenhagen", "plateau_ch", 0x850b2227c07f965bull, 0x891a04617e34cd8full},
    {"copenhagen", "dissimilarity", 0x8a30248494a68fb3ull, 0xc8b754df83c0b88eull},
    {"copenhagen", "penalty_ch", 0xb18d0bc92e971ff1ull, 0xe3594db959bdda61ull},
};

constexpr double kScale = 0.2;
constexpr size_t kOdsPerCity = 40;

void AddSearchStats(const obs::SearchStats& s, Fnv1a* h) {
  h->Add(s.nodes_settled);
  h->Add(s.edges_relaxed);
  h->Add(s.heap_pushes);
  h->Add(s.heap_pops);
  h->Add(s.paths_generated);
  h->Add(s.paths_rejected_stretch);
  h->Add(s.paths_rejected_similarity);
  h->Add(s.paths_rejected_filter);
  h->Add(s.iterations);
  h->Add(s.trees_built);
}

void AddOutcome(const Result<AlternativeSet>& set, Fnv1a* h) {
  h->Add(static_cast<uint64_t>(set.status().code()));
  if (!set.ok()) return;
  h->Add(static_cast<uint64_t>(set->completion.code()));
  h->Add(set->routes.size());
  for (const Path& p : set->routes) {
    h->Add(p.edges.size());
    for (EdgeId e : p.edges) h->Add(e);
  }
}

TEST(ServedOutputTest, MatchesCommittedTable) {
  std::string fresh;  // the table as this build computes it
  size_t row = 0;
  bool same = true;
  for (const char* city : {"melbourne", "dhaka", "copenhagen"}) {
    auto net = testutil::StudyCity(city, kScale);
    auto ods = testutil::BinnedOds(*net, kScale, /*seed=*/2022,
                                   /*per_bin=*/14);
    ASSERT_GE(ods.size(), kOdsPerCity) << city;
    ods.resize(kOdsPerCity);
    // The served configuration: the display hierarchy a snapshot builds,
    // handed to the suite.
    auto ch = ContractionHierarchy::Build(net, FreeFlowModel().Weights(*net));
    ASSERT_TRUE(ch.ok()) << ch.status();
    auto suite = EngineSuite::MakePaperSuite(net, {}, 3, nullptr,
                                             std::move(ch).ValueOrDie());
    ASSERT_TRUE(suite.ok()) << suite.status();
    Fnv1a routes[kNumApproaches];
    Fnv1a work[kNumApproaches];
    for (const testutil::Od& od : ods) {
      suite->display_trees().Reset();
      for (Approach a : kAllApproaches) {
        const auto i = static_cast<size_t>(a);
        obs::SearchStats stats;
        AddOutcome(suite->engine(a).Generate(od.s, od.t, &stats), &routes[i]);
        AddSearchStats(stats, &work[i]);
      }
    }
    for (Approach a : kAllApproaches) {
      const auto i = static_cast<size_t>(a);
      const std::string& engine = suite->engine(a).name();
      char line[160];
      std::snprintf(line, sizeof(line),
                    "    {\"%s\", \"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64
                    "ull},\n",
                    city, engine.c_str(), routes[i].value(), work[i].value());
      fresh += line;
      same = same && row < std::size(kTable) &&
             kTable[row].city == std::string(city) &&
             kTable[row].engine == engine &&
             kTable[row].routes == routes[i].value() &&
             kTable[row].work == work[i].value();
      ++row;
    }
  }
  EXPECT_TRUE(same && row == std::size(kTable))
      << "served output differs from the committed table; the fresh table:\n"
      << fresh;
}

}  // namespace
}  // namespace altroute
