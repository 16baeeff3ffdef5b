// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from outside the program, around calls into each
// layer's public functions. A span holds its name, start, end, parent span
// and request id (the update index, or switch << 32 | epoch in the fleet).
// Spans stay in memory until the run ends; self time and the Chrome
// trace-event export are computed from the finished list.
//
// With recording off, Span does nothing at all (no clock reads), so the
// untraced end-to-end measurements pay nothing for the instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // "<layer>.<call>", or a root name without a dot
  uint64_t req = 0;
  int32_t parent = -1;    // index into the recorder's list; -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double dur_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  int32_t open(const char* name, uint64_t req) {
    const int32_t idx = static_cast<int32_t>(spans_.size());
    spans_.push_back({name, req, current_, now_ns(), 0});
    current_ = idx;
    return idx;
  }
  void close(int32_t idx) {
    spans_[idx].end_ns = now_ns();
    current_ = spans_[idx].parent;
  }

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
  int32_t current_ = -1;
};

/// RAII span; a no-op when the recorder is disabled.
class Span {
 public:
  Span(Recorder& rec, const char* name, uint64_t req)
      : rec_(rec), idx_(rec.enabled() ? rec.open(name, req) : -1) {}
  ~Span() {
    if (idx_ >= 0) rec_.close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Recorder& rec_;
  int32_t idx_;
};

/// Per-span self time: its duration minus the part its children cover.
/// Children of one parent run one after another on one thread, so their
/// durations never overlap and the covered part is their sum.
std::vector<double> self_times_us(const std::vector<SpanRecord>& spans);

/// "compiler.insert" -> "compiler"; a root name maps to itself.
std::string layer_of(const char* name);

struct LayerTotals {
  std::map<std::string, double> self_us;  // layer -> summed self time
  double root_us = 0.0;                   // summed duration of root spans

  /// Self time of every layer together.
  double all_layers_us() const {
    double t = 0.0;
    for (const auto& [layer, us] : self_us) t += us;
    return t;
  }
  /// A layer's self time over the root spans' time (0 when absent).
  double share(const std::string& layer) const {
    const auto it = self_us.find(layer);
    return it == self_us.end() || root_us <= 0 ? 0.0 : it->second / root_us;
  }
};
LayerTotals layer_totals(const std::vector<SpanRecord>& spans);

/// Durations (us) of every span with this exact name.
std::vector<double> durations_us(const std::vector<SpanRecord>& spans,
                                 const std::string& name);

/// Accounting self-test: every child lies inside its parent, and the self
/// times under each root sum to no more than the root. Returns an empty
/// string when it holds, else the first violation.
std::string check_nesting(const std::vector<SpanRecord>& spans);

/// Self-test of the accounting above on a hand-built span tree with known
/// self times, plus a tree that breaks nesting and must be caught. Returns
/// an empty string when it passes.
std::string accounting_self_test();

/// Writes the spans as Chrome trace-event JSON (complete "X" events, one
/// process, timestamps in us from the first span) for a trace viewer.
bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path);

}  // namespace perfbench
