// Workload options and the result every workload hands back to main().
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  // result file + Chrome trace
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// "wall" (measured on this host), "wall-cal" (measured, then scaled to
  /// the reference host speed; see host_scale), "virtual" (modelled,
  /// deterministic per seed), "count" for counts and dimensionless figures,
  /// or "n/a" for a metric the workload does not have.
  std::string clock;
};

struct Result {
  std::vector<Metric> metrics;
  /// Provenance and sample counts: key -> JSON value text.
  std::vector<std::pair<std::string, std::string>> info;
  uint64_t attempted = 0;  // rule-level operations attempted
  uint64_t failed = 0;     // failed operations + failed correctness checks
  std::vector<std::string> failures;  // first few, for the log
  /// Per-layer metrics that do not apply to the workload (reported as 0).
  std::vector<std::string> not_applicable;

  void add(std::string name, double value, std::string unit, std::string clock) {
    metrics.push_back({std::move(name), value, std::move(unit), std::move(clock)});
  }
  void na(const std::string& name, const std::string& unit) {
    add(name, 0.0, unit, "n/a");
    not_applicable.push_back(name);
  }
  void note(std::string key, double v) {
    info.emplace_back(std::move(key), std::to_string(v));
  }
  void note(std::string key, uint64_t v) {
    info.emplace_back(std::move(key), std::to_string(v));
  }
  void note_str(std::string key, const std::string& v) {
    info.emplace_back(std::move(key), "\"" + v + "\"");
  }
  void fail(const std::string& why, uint64_t ops = 1) {
    failed += ops;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Linear-interpolated percentile, q in [0, 100]; 0 for an empty list.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Host-speed calibration (calibrate.cpp): the fastest of
/// kCalibrationPasses passes of a fixed kernel owned by the benchmark, ms.
constexpr int kCalibrationPasses = 3;
double calibration_ms();

/// About the calibration kernel's median time on the reference host (a
/// 4-core x86 VM, 2.1 GHz Xeon). The single-switch wall-clock end-to-end
/// metrics are reported at this speed: a run whose kernel took c ms scales
/// its times by kCalibrationRefMs / c. The raw figures and c are kept in
/// the result file.
constexpr double kCalibrationRefMs = 5.0;

/// Factor that brings the run's wall-clock times to the reference speed:
/// kCalibrationRefMs over the median of the run's calibration samples.
inline double host_scale(const std::vector<double>& calibration_samples) {
  return kCalibrationRefMs / percentile(calibration_samples, 50);
}

Result run_single_switch(const Options& opt);
Result run_fleet(const Options& opt);

}  // namespace perfbench
