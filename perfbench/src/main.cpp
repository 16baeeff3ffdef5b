// perfbench: the update-path benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--provenance JSON]
//
// Workloads: parallel-4k, sequential-2k, fleet-256 (see the workload
// files). --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run. Human-readable lines come first; the last line
// of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The full result (metrics tagged wall/virtual, sample counts, provenance,
// failures) is also written to DIR/result-<workload>-s<seed>-t<trace>.json.
// Exits 1 when any correctness check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>

#include "report.h"
#include "trace.h"
#include "util/logging.h"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload parallel-4k|sequential-2k|"
               "fleet-256 --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--provenance JSON]\n",
               why);
  std::exit(2);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Result& res) {
  std::string s = "{";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num(m.value) +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

std::string escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string provenance = "{}";
  bool have_seed = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else if (a == "--provenance") {
        provenance = v;
      } else {
        usage(("unknown option " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds must be in (0, 600]");
  const bool fleet = opt.workload == "fleet-256";
  if (!fleet && opt.workload != "parallel-4k" && opt.workload != "sequential-2k") {
    usage(("unknown workload " + opt.workload).c_str());
  }
  std::filesystem::create_directories(opt.out_dir);
  ruletris::util::set_log_level(ruletris::util::LogLevel::kOff);

  const std::string self_test = accounting_self_test();
  if (!self_test.empty()) {
    std::fprintf(stderr, "perfbench: accounting self-test failed: %s\n", self_test.c_str());
    return 1;
  }

  Result res;
  try {
    res = fleet ? run_fleet(opt) : run_single_switch(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (!opt.trace) {
    res.add("peak_rss_mb", peak_rss_mb(), "MiB", "wall");
    // Reported as the committed share (1 - failed_frac) so it is never 0.
    const double failed_frac =
        res.attempted ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                      : 1.0;
    res.add("ok_frac", 1.0 - failed_frac, "ratio", "count");
    res.note("failed_frac", failed_frac);
  }
  const std::regex name_re("[A-Za-z0-9_.-]+");
  for (const Metric& m : res.metrics) {
    if (!std::regex_match(m.name, name_re)) res.fail("bad metric name " + m.name);
  }
  if (res.attempted == 0) res.fail("no operation attempted");
  const bool correct = res.failed == 0;

  // Human-readable report.
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  for (const Metric& m : res.metrics) {
    std::printf("#   %-34s %16.6g %-7s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.clock.c_str());
  }
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  }

  // Result file: everything, with provenance and wall/virtual tags.
  std::string info = "{\"build_type\": \"" PERFBENCH_BUILD_TYPE "\", \"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"seed\": " + std::to_string(opt.seed) +
                     ", \"seconds\": " + num(opt.seconds) +
                     ", \"trace\": " + (opt.trace ? "1" : "0");
  for (const auto& [k, v] : res.info) info += ", \"" + k + "\": " + v;
  info += "}";
  std::string tags = "{";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    tags += (i ? ", \"" : "\"") + res.metrics[i].name + "\": \"" + res.metrics[i].clock + "\"";
  }
  tags += "}";
  std::string fails = "[";
  for (size_t i = 0; i < res.failures.size(); ++i) {
    fails += (i ? ", \"" : "\"") + escape(res.failures[i]) + "\"";
  }
  fails += "]";
  std::printf("# provenance %s\n# run %s\n# clocks %s\n", provenance.c_str(), info.c_str(),
              tags.c_str());

  const std::string path = opt.out_dir + "/result-" + opt.workload + "-s" +
                           std::to_string(opt.seed) + "-t" + (opt.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"provenance\": %s, \"run\": %s, \"clocks\": %s, "
                 "\"failures\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                 "\"metrics\": %s}\n",
                 opt.workload.c_str(), provenance.c_str(), info.c_str(), tags.c_str(),
                 fails.c_str(), correct ? "true" : "false",
                 static_cast<unsigned long long>(res.attempted),
                 static_cast<unsigned long long>(res.failed), metrics_json(res).c_str());
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics_json(res).c_str());
  return correct ? 0 : 1;
}
