// Host-speed calibration for the wall-clock metrics.
//
// On a shared host the speed of the whole machine drifts: identical
// benchmark runs measured 13 s and 18 s minutes apart, with every timed
// part of the run (updates and set-up alike) slower by about the same
// factor. A fixed kernel that belongs to the benchmark, timed between the
// measured phases of a run, sees the same factor; dividing it out leaves
// what the program under test changed. The kernel mixes what the update
// path does: hash-map inserts and finds, a sort, and a dependent pointer
// chase over a 2 MiB array (beyond a core's L2 share).
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "report.h"
#include "trace.h"

namespace perfbench {
namespace {

uint64_t lcg(uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

/// One pass of fixed work; returns a value the optimizer must keep.
uint64_t kernel(const std::vector<uint32_t>& next) {
  uint64_t x = 1, acc = 0;
  std::unordered_map<uint64_t, uint64_t> m;
  m.reserve(1 << 15);
  std::vector<uint64_t> v(1 << 14);
  for (uint64_t& e : v) {
    e = lcg(x);
    m[e >> 45] += e;
  }
  std::sort(v.begin(), v.end());
  for (uint64_t e : v) {
    const auto it = m.find(e >> 45);
    if (it != m.end()) acc += it->second;
  }
  uint32_t p = 0;
  for (int k = 0; k < 40000; ++k) p = next[p];
  return acc + p;
}

}  // namespace

double calibration_ms() {
  // A random cyclic permutation, built once: the pointer chase visits it.
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> order(1 << 19);
    std::iota(order.begin(), order.end(), 0u);
    uint64_t x = 7;
    for (size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[lcg(x) % (i + 1)]);
    std::vector<uint32_t> n(order.size());
    for (size_t i = 0; i < order.size(); ++i) n[order[i]] = order[(i + 1) % order.size()];
    return n;
  }();
  static volatile uint64_t sink = 0;
  double best = 1e300;
  for (int i = 0; i < kCalibrationPasses; ++i) {
    const int64_t t0 = now_ns();
    sink = sink + kernel(next);
    best = std::min(best, static_cast<double>(now_ns() - t0) / 1e6);
  }
  return best;
}

}  // namespace perfbench
