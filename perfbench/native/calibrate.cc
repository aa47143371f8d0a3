// perfbench_calibrate: the benchmark's host-speed reference.
//
//   perfbench_calibrate < /dev/null      # one repetition, then exits
//
// Repeats a fixed amount of work shaped like the engines' (one-to-all
// Dijkstra with a binary heap over a road-like grid of 9216 vertices, from
// four fixed sources) until its standard input reaches end of file, then
// prints "<median seconds per repetition> <repetitions>". run.py keeps one
// running beside the measured window and closes its input when the window
// ends, so the median is the speed the host gave a fixed program during
// the window. The kernel uses none of the repository's code: no change to
// the program under test moves it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace {

constexpr int kSide = 96;
constexpr int kSources = 4;

struct Grid {
  std::vector<int> first;   // CSR offsets, size n + 1
  std::vector<int> head;    // arc targets
  std::vector<uint32_t> w;  // arc weights
};

Grid MakeGrid() {
  const int n = kSide * kSide;
  uint64_t lcg = 0x2545F4914F6CDD1DULL;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(lcg >> 33);
  };
  std::vector<std::vector<std::pair<int, uint32_t>>> adj(n);
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) {
      const int v = r * kSide + c;
      if (c + 1 < kSide) {
        const uint32_t w = 10 + next() % 90;
        adj[v].push_back({v + 1, w});
        adj[v + 1].push_back({v, w});
      }
      if (r + 1 < kSide) {
        const uint32_t w = 10 + next() % 90;
        adj[v].push_back({v + kSide, w});
        adj[v + kSide].push_back({v, w});
      }
    }
  }
  Grid g;
  g.first.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) {
    g.first[v + 1] = g.first[v] + static_cast<int>(adj[v].size());
    for (const auto& [to, w] : adj[v]) {
      g.head.push_back(to);
      g.w.push_back(w);
    }
  }
  return g;
}

// One repetition; returns a checksum so the work cannot be optimised away.
uint64_t Work(const Grid& g, std::vector<uint32_t>& dist) {
  using Item = std::pair<uint32_t, int>;
  const int n = kSide * kSide;
  uint64_t sum = 0;
  for (int s = 0; s < kSources; ++s) {
    const int source = (s * 7919) % n;
    dist.assign(n, std::numeric_limits<uint32_t>::max());
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    dist[source] = 0;
    pq.push({0, source});
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d != dist[v]) continue;
      for (int a = g.first[v]; a < g.first[v + 1]; ++a) {
        const uint32_t nd = d + g.w[a];
        if (nd < dist[g.head[a]]) {
          dist[g.head[a]] = nd;
          pq.push({nd, g.head[a]});
        }
      }
    }
    sum += dist[n - 1 - source];
  }
  return sum;
}

}  // namespace

int main() {
  const Grid g = MakeGrid();
  std::vector<uint32_t> dist;
  const uint64_t expect = Work(g, dist);  // warm-up, not timed

  std::atomic<bool> stop{false};
  std::thread watcher([&stop] {
    while (std::fgetc(stdin) != EOF) {
    }
    stop.store(true, std::memory_order_relaxed);
  });
  std::vector<double> reps;
  do {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t sum = Work(g, dist);
    const auto t1 = std::chrono::steady_clock::now();
    if (sum != expect) {
      std::fprintf(stderr, "perfbench_calibrate: checksum changed\n");
      std::_Exit(1);
    }
    reps.push_back(std::chrono::duration<double>(t1 - t0).count());
  } while (!stop.load(std::memory_order_relaxed));
  watcher.join();

  std::nth_element(reps.begin(), reps.begin() + reps.size() / 2, reps.end());
  std::printf("%.9f %zu\n", reps[reps.size() / 2], reps.size());
  return 0;
}
