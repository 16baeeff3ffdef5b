#include "trace.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us();
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.dur_us();
  }
  return self;
}

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

LayerTotals layer_totals(const std::vector<SpanRecord>& spans) {
  LayerTotals t;
  const std::vector<double> self = self_times_us(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      t.root_us += spans[i].dur_us();
    } else {
      t.self_us[layer_of(spans[i].name)] += self[i];
    }
  }
  return t;
}

std::vector<double> durations_us(const std::vector<SpanRecord>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) out.push_back(s.dur_us());
  }
  return out;
}

std::string check_nesting(const std::vector<SpanRecord>& spans) {
  char buf[160];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.end_ns < s.start_ns) {
      std::snprintf(buf, sizeof buf, "span %zu (%s) ends before it starts", i, s.name);
      return buf;
    }
    if (s.parent < 0) continue;
    const SpanRecord& p = spans[s.parent];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      std::snprintf(buf, sizeof buf, "span %zu (%s) lies outside its parent %s", i,
                    s.name, p.name);
      return buf;
    }
  }
  // Self time of every descendant, charged to its root, against the root.
  const std::vector<double> self = self_times_us(spans);
  std::vector<int32_t> root_of(spans.size());
  std::vector<double> under_root(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    // Parents precede children in the list, so the parent's root is known.
    root_of[i] = spans[i].parent < 0 ? static_cast<int32_t>(i)
                                     : root_of[spans[i].parent];
    if (spans[i].parent >= 0) under_root[root_of[i]] += self[i];
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && under_root[i] > spans[i].dur_us() + 1e-6) {
      std::snprintf(buf, sizeof buf,
                    "self times under root span %zu (%s) exceed it: %.3f > %.3f us",
                    i, spans[i].name, under_root[i], spans[i].dur_us());
      return buf;
    }
  }
  return "";
}

std::string accounting_self_test() {
  // update [0, 100us): compiler.insert [10, 40) holding tcam.apply [20, 30),
  // then proto.encode [50, 90). Self: update 30, compiler 20, tcam 10,
  // proto 40.
  const int64_t us = 1000;
  std::vector<SpanRecord> spans = {{"update", 7, -1, 0, 100 * us},
                                   {"compiler.insert", 7, 0, 10 * us, 40 * us},
                                   {"tcam.apply", 7, 1, 20 * us, 30 * us},
                                   {"proto.encode", 7, 0, 50 * us, 90 * us}};
  const std::vector<double> self = self_times_us(spans);
  const std::vector<double> want = {30, 20, 10, 40};
  for (size_t i = 0; i < want.size(); ++i) {
    if (self[i] < want[i] - 1e-9 || self[i] > want[i] + 1e-9) {
      return std::string("self time of ") + spans[i].name + " is wrong";
    }
  }
  const LayerTotals t = layer_totals(spans);
  if (t.root_us != 100 || t.self_us.at("compiler") != 20 || t.self_us.at("tcam") != 10 ||
      t.self_us.at("proto") != 40 || t.self_us.count("update") != 0) {
    return "layer totals are wrong";
  }
  if (!check_nesting(spans).empty()) return "a well-nested tree was rejected";
  spans[2].end_ns = 45 * us;  // tcam.apply now ends after its parent
  if (check_nesting(spans).empty()) return "a child outside its parent was not caught";
  return "";
}

bool write_chrome_trace(const std::vector<SpanRecord>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(),
                 static_cast<double>(s.start_ns - t0) / 1e3, s.dur_us(),
                 static_cast<unsigned long long>(s.req), s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
