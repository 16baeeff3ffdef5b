// Single-switch workloads: one closed-loop client drives the paper's
// composition-update streams (Figs. 9 and 10) through the whole update path
// of one DAG-firmware switch, one update at a time.
//
//   parallel-4k    monitor(100) ∥ router(4000): delete one non-default
//                  monitor rule, insert a fresh one. Parallel cross-products
//                  make Algorithm 1 move entries, so the tcam layer carries
//                  weight here and nowhere else among the single switches.
//   sequential-2k  NAT(100) > router(2000): replace one NAT translation.
//                  Drives the compiler through the sequential stitch path;
//                  every update costs exactly one TCAM write, so a tcam-layer
//                  change must leave it alone.
//
// One update is one delete plus one insert, timed from the call into the
// compiler until the second SimulatedSwitch::apply returns: compile +
// to_messages + encode + decode + firmware apply, for both halves.
#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "classbench/generator.h"
#include "compiler/baseline.h"
#include "compiler/ruletris_compiler.h"
#include "proto/channel.h"
#include "proto/codec.h"
#include "report.h"
#include "switchsim/adapters.h"
#include "switchsim/switch.h"
#include "trace.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ruletris;
using compiler::PolicySpec;
using compiler::RuleTrisCompiler;
using compiler::TableUpdate;
using flowspace::FlowTable;
using flowspace::Packet;
using flowspace::Rule;
using flowspace::RuleId;

constexpr size_t kLeftSize = 100;
/// A run is kEpisodes episodes: set up, then a fixed number of updates.
/// Episode e always runs on table set e of a fixed pool of kEpisodes
/// generated table sets; --seed drives the update streams. Update cost
/// depends strongly on the tables, so seeded tables would make every
/// figure swing with the seed (tcam_vt_ms_p99 by 13% across seeds even
/// with 8 table sets per run), while the pool keeps several tables in
/// every run. setup_s is the median episode set-up.
constexpr size_t kEpisodes = 8;
constexpr uint64_t kTablePoolSeed = 0x7ab1e5;
/// Every episode runs kReps times over (identical work: same tables, same
/// stream, same rule ids); an update's latency is the best of its kReps
/// timings, which filters interference from other tenants of the host.
constexpr size_t kReps = 2;  // even: traced runs split each update 50/50
constexpr size_t kMinEpisodeUpdates = 50;
constexpr size_t kProbes = 1000;  // per episode

struct Scenario {
  int op;  // 0 = parallel, 1 = sequential (PolicySpec::combine)
  size_t right_size;
  bool nat;  // left member is NAT (else monitor)
  /// Updates per second of --seconds: the run's fixed amount of work,
  /// sized so a run lasts about --seconds on a 4-core x86 host. The work
  /// is the same on every commit, so a faster commit finishes sooner.
  double updates_per_s;
};

Scenario scenario_for(const std::string& workload) {
  if (workload == "parallel-4k") return {0, 4000, false, 350};
  return {1, 2000, true, 280};
}

/// Everything one episode's set-up builds.
struct Instance {
  std::vector<Rule> right;   // router rules (NAT replacements target them)
  PolicySpec spec;
  std::unique_ptr<RuleTrisCompiler> compiler;
  std::unique_ptr<switchsim::SimulatedSwitch> sw;
  std::vector<RuleId> churnable;  // left ids, minus the protected default
  util::Rng rng{0};
};

/// One pass through the layers below the compiler for one TableUpdate.
struct Delivery {
  proto::MessageBatch batch;
  proto::Bytes wire;
  proto::MessageBatch decoded;
  switchsim::UpdateMetrics m;
};

void deliver(Recorder& rec, uint64_t req, switchsim::SimulatedSwitch& sw,
             const TableUpdate& update, Delivery& d) {
  {
    Span s(rec, "switchsim.to_messages", req);
    d.batch = switchsim::to_messages(update);
  }
  {
    Span s(rec, "proto.encode", req);
    d.wire = proto::encode_batch(d.batch);
  }
  {
    Span s(rec, "proto.decode", req);
    d.decoded = proto::decode_batch(d.wire);
  }
  {
    Span s(rec, "tcam.apply", req);
    d.m = sw.apply(d.decoded);
  }
}

/// Builds episode `ep`'s tables (from the fixed table pool) and update
/// stream generator (from the run's seed), compiles and installs.
Instance set_up(const Scenario& sc, size_t ep, uint64_t seed) {
  Instance in;
  util::Rng tables_rng(util::hash_pair(kTablePoolSeed + ep, sc.op + 1));
  in.rng = util::Rng(util::hash_pair(seed, ep));
  in.right = classbench::generate_router(sc.right_size, tables_rng);
  std::vector<Rule> left = sc.nat ? classbench::generate_nat(kLeftSize, in.right, tables_rng)
                                  : classbench::generate_monitor(kLeftSize, tables_rng);
  // The last left rule (monitor default / NAT passthrough) is never churned.
  for (size_t i = 0; i + 1 < left.size(); ++i) in.churnable.push_back(left[i].id);

  std::map<std::string, FlowTable> tables;
  tables.emplace("left", FlowTable{std::move(left)});
  tables.emplace("right", FlowTable{in.right});
  in.spec = PolicySpec::combine(sc.op, PolicySpec::leaf("left"), PolicySpec::leaf("right"));
  in.compiler = std::make_unique<RuleTrisCompiler>(in.spec, std::move(tables));

  const size_t composed = in.compiler->root().visible_size();
  in.sw = std::make_unique<switchsim::SimulatedSwitch>(switchsim::FirmwareMode::kDag,
                                                       composed + composed / 8 + 128);
  TableUpdate initial;
  initial.added = in.compiler->root().visible_rules_in_order();
  for (const Rule& r : initial.added) initial.dag.added_vertices.push_back(r.id);
  initial.dag.added_edges = in.compiler->root().visible_graph().edges();
  Recorder off(false);
  Delivery d;
  deliver(off, 0, *in.sw, initial, d);
  if (!d.m.ok) throw std::runtime_error("initial TCAM install failed");
  return in;
}

/// Installed rule ids == the compiler's visible ids, and the layout obeys
/// every DAG edge. Returns "" when both hold.
std::string check_switch(const Instance& in) {
  const compiler::PolicyNode& root = in.compiler->root();
  const tcam::Tcam& tcam = in.sw->tcam();
  const auto& graph = root.visible_graph();
  if (tcam.occupied() != root.visible_size() || graph.vertex_count() != root.visible_size()) {
    return "installed rule count differs from the visible table";
  }
  for (RuleId id : graph.vertices()) {
    if (!tcam.contains(id)) return "a visible rule is not installed";
  }
  if (!in.sw->dag_firmware().layout_valid()) return "TCAM layout violates a DAG edge";
  return "";
}

/// Seeded probe packets: corners of left x right rule pairs (so composed
/// cross-products are hit) with the unconstrained bits random.
Packet probe(const std::vector<Rule>& left, const std::vector<Rule>& right, util::Rng& rng) {
  const Rule& l = left[rng.next_below(left.size())];
  const Rule& r = right[rng.next_below(right.size())];
  Packet p;
  for (size_t f = 0; f < flowspace::kNumFields; ++f) {
    const auto id = static_cast<flowspace::FieldId>(f);
    const auto& lf = l.match.field(id);
    const auto& rf = r.match.field(id);
    const uint32_t v = (lf.value & lf.mask) | (rf.value & rf.mask & ~lf.mask) |
                       (rng.next_u32() & ~(lf.mask | rf.mask));
    p.set(id, v);
  }
  return p;
}

/// The switch classifies like compose_from_scratch over the final member
/// tables. Returns the number of disagreeing probes.
size_t check_semantics(const Instance& in, uint64_t seed) {
  std::map<std::string, FlowTable> tables;
  tables.emplace("left", in.compiler->leaf("left").table());
  tables.emplace("right", in.compiler->leaf("right").table());
  const std::vector<Rule> reference = compiler::compose_from_scratch(in.spec, tables);
  const std::vector<Rule>& left = tables.at("left").rules();
  const std::vector<Rule>& right = tables.at("right").rules();
  util::Rng rng(util::hash_pair(seed, 0x9b0be));
  size_t bad = 0;
  for (size_t i = 0; i < kProbes; ++i) {
    const Packet p = probe(left, right, rng);
    const Rule* want = nullptr;
    for (const Rule& r : reference) {
      if (r.match.matches(p)) {
        want = &r;
        break;
      }
    }
    const Rule* got = in.sw->tcam().lookup(p);
    if ((want == nullptr) != (got == nullptr) ||
        (want != nullptr && !(want->actions == got->actions))) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

Result run_single_switch(const Options& opt) {
  const Scenario sc = scenario_for(opt.workload);
  Result res;
  const size_t per_episode = std::max<size_t>(
      kMinEpisodeUpdates,
      static_cast<size_t>(opt.seconds * sc.updates_per_s / (kEpisodes * kReps) + 0.5));

  // A private id namespace, rewound before every set-up, so an episode's
  // ids depend on its own inputs only.
  constexpr RuleId kIdBase = RuleId{1} << 32;
  RuleId ids = kIdBase;
  flowspace::ScopedRuleIdNamespace ns(&ids);

  const proto::ChannelModel channel;
  const size_t n = kEpisodes * per_episode;
  std::vector<double> setup_s, calibration, tcam_vt_ms, ack_vt_ms;
  std::vector<double> best_ms(n, std::numeric_limits<double>::infinity());
  double traced_ms = 0, untraced_ms = 0;
  std::vector<size_t> first_writes(n);
  double writes = 0, moves = 0, wire_bytes = 0, delta_rules = 0, delta_edges = 0;
  uint64_t apply_failed = 0, bad_probes = 0, composed = 0;
  // A traced run traces every other execution, alternating between
  // repetitions, so every update runs kReps / 2 times traced and as often
  // untraced: the base for trace.overhead_frac is the same work.
  Recorder traced(opt.trace), off(false);

  for (size_t rep = 0; rep < kReps; ++rep) {
    for (size_t ep = 0; ep < kEpisodes; ++ep) {
      calibration.push_back(calibration_ms());
      ids = kIdBase;
      const int64_t s0 = now_ns();
      Instance in = set_up(sc, ep, opt.seed);
      setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);

      for (size_t i = 0; i < per_episode; ++i) {
        const uint64_t u = ep * per_episode + i;
        const uint64_t req = rep * n + u;  // span request id: one per execution
        const bool trace_this = opt.trace && (i + rep) % 2 == 1;
        Recorder& r = trace_this ? traced : off;

        const size_t victim_idx = in.rng.next_below(in.churnable.size());
        const RuleId victim = in.churnable[victim_idx];
        Rule fresh = sc.nat ? classbench::random_nat_rule(in.right, kLeftSize, in.rng)
                            : classbench::random_monitor_rule(kLeftSize, in.rng);
        in.churnable[victim_idx] = fresh.id;

        TableUpdate del, add;
        Delivery d1, d2;
        const int64_t t0 = now_ns();
        {
          Span root(r, "update", req);
          {
            Span s(r, "compiler.remove", req);
            del = in.compiler->remove("left", victim);
          }
          {
            Span s(r, "compiler.insert", req);
            add = in.compiler->insert("left", std::move(fresh));
          }
          deliver(r, req, *in.sw, del, d1);
          deliver(r, req, *in.sw, add, d2);
        }
        const double ms = static_cast<double>(now_ns() - t0) / 1e6;
        if (opt.trace) {
          (trace_this ? traced_ms : untraced_ms) += ms;
        } else {
          best_ms[u] = std::min(best_ms[u], ms);
        }

        res.attempted += 2;
        if (!d1.m.ok || !d2.m.ok) {
          apply_failed += !d1.m.ok + !d2.m.ok;
          res.fail("apply status other than kOk at update " + std::to_string(u), 2);
          continue;
        }
        // Later repetitions must repeat the first one's TCAM writes exactly;
        // the full switch check runs on the first.
        const size_t w = d1.m.entry_writes + d2.m.entry_writes;
        if (rep > 0) {
          if (w != first_writes[u]) {
            res.fail("a repetition made other TCAM writes at update " + std::to_string(u), 2);
          }
          continue;
        }
        first_writes[u] = w;
        const std::string bad = check_switch(in);
        if (!bad.empty()) res.fail(bad + " after update " + std::to_string(u), 2);

        const double tcam_ms = d1.m.tcam_ms + d2.m.tcam_ms;
        tcam_vt_ms.push_back(tcam_ms);
        ack_vt_ms.push_back(tcam_ms +
                            channel.batch_latency_ms(d1.batch.size(), d1.wire.size()) +
                            channel.batch_latency_ms(d2.batch.size(), d2.wire.size()));
        writes += static_cast<double>(w);
        moves += static_cast<double>(d1.m.moves + d2.m.moves);
        wire_bytes += static_cast<double>(d1.wire.size() + d2.wire.size());
        for (const TableUpdate* t : {&del, &add}) {
          delta_rules += static_cast<double>(t->added.size() + t->removed.size());
          delta_edges +=
              static_cast<double>(t->dag.added_edges.size() + t->dag.removed_edges.size());
        }
      }
      if (rep > 0) continue;
      composed += in.compiler->root().visible_size();
      const size_t bad = check_semantics(in, util::hash_pair(opt.seed, ep));
      bad_probes += bad;
      if (bad != 0) {
        res.fail(std::to_string(bad) + " probe packets classified unlike compose_from_scratch");
      }
    }
  }

  res.note("updates", static_cast<uint64_t>(n));
  res.note("episodes", static_cast<uint64_t>(kEpisodes));
  res.note("repetitions", static_cast<uint64_t>(kReps));
  res.note("probes", static_cast<uint64_t>(kEpisodes * kProbes));
  res.note("bad_probes", bad_probes);
  res.note("mean_composed_rules", static_cast<double>(composed) / kEpisodes);
  const double ops = static_cast<double>(2 * n);

  if (!opt.trace) {
    const double scale = host_scale(calibration);
    res.note("calibration_ms", percentile(calibration, 50));
    res.note("raw_update_ms_mean", mean(best_ms));
    res.note("raw_update_ms_p99", percentile(best_ms, 99));
    res.note("raw_rule_ops_per_s", ops / (sum(best_ms) / 1e3));
    res.note("raw_setup_s", percentile(setup_s, 50));
    res.note("update_ms_p50", percentile(best_ms, 50) * scale);
    res.add("update_ms_mean", mean(best_ms) * scale, "ms", "wall-cal");
    res.add("update_ms_p99", percentile(best_ms, 99) * scale, "ms", "wall-cal");
    res.add("rule_ops_per_s", ops / (sum(best_ms) / 1e3) / scale, "1/s", "wall-cal");
    res.add("tcam_vt_ms_mean", mean(tcam_vt_ms), "ms_vt", "virtual");
    res.add("tcam_vt_ms_p99", percentile(tcam_vt_ms, 99), "ms_vt", "virtual");
    // Closed loop in virtual time: the modelled switch side (channel +
    // TCAM) of each update, one after another.
    res.add("vt_rule_ops_per_s", ops / (sum(ack_vt_ms) / 1e3), "1/s_vt", "virtual");
    res.note("ack_vt_ms_p50", percentile(ack_vt_ms, 50));
    res.add("ack_vt_ms_mean", mean(ack_vt_ms), "ms_vt", "virtual");
    res.add("ack_vt_ms_p99", percentile(ack_vt_ms, 99), "ms_vt", "virtual");
    res.add("setup_s", percentile(setup_s, 50) * scale, "s", "wall-cal");
    return res;
  }

  // ---- Traced run: per-layer figures from the traced (odd) updates.
  const auto& spans = traced.spans();
  const std::string nesting = check_nesting(spans);
  if (!nesting.empty()) res.fail("trace accounting: " + nesting);
  const LayerTotals lt = layer_totals(spans);
  const double accounted = lt.root_us > 0 ? lt.all_layers_us() / lt.root_us : 0.0;
  res.note("traced_layer_share_of_update", accounted);
  if (accounted < 0.95) {
    res.fail("trace accounting: layer self times cover only " +
             std::to_string(accounted) + " of traced update time");
  }

  // Compile time per update = remove + insert spans of that request.
  std::map<uint64_t, double> compile_us;
  std::vector<double> step_us;
  for (const SpanRecord& s : spans) {
    if (layer_of(s.name) == "compiler") {
      compile_us[s.req] += s.dur_us();
      step_us.push_back(s.dur_us());
    }
  }
  std::vector<double> per_update;
  for (const auto& [req, us] : compile_us) per_update.push_back(us);
  const std::vector<double> apply_us = durations_us(spans, "tcam.apply");

  res.add("compiler.update_us_p50", percentile(per_update, 50), "us", "wall");
  res.add("compiler.update_us_p99", percentile(per_update, 99), "us", "wall");
  res.add("compiler.step_us_p50", percentile(step_us, 50), "us", "wall");
  res.add("compiler.self_share", lt.share("compiler"), "ratio", "wall");
  res.add("compiler.delta_rules_per_op", delta_rules / ops, "count", "count");
  res.add("compiler.delta_edges_per_op", delta_edges / ops, "count", "count");
  res.add("switchsim.to_messages_us_p50",
          percentile(durations_us(spans, "switchsim.to_messages"), 50), "us", "wall");
  res.add("proto.encode_us_p50", percentile(durations_us(spans, "proto.encode"), 50), "us",
          "wall");
  res.add("proto.decode_us_p50", percentile(durations_us(spans, "proto.decode"), 50), "us",
          "wall");
  res.add("proto.wire_bytes_per_op", wire_bytes / ops, "B", "count");
  res.add("tcam.apply_us_p50", percentile(apply_us, 50), "us", "wall");
  res.add("tcam.apply_us_p99", percentile(apply_us, 99), "us", "wall");
  res.add("tcam.self_share", lt.share("tcam"), "ratio", "wall");
  res.add("tcam.writes_per_op", writes / ops, "count", "count");
  res.add("tcam.moves_per_op", moves / ops, "count", "count");
  res.add("tcam.apply_failed", static_cast<double>(apply_failed), "count", "count");
  res.na("frozen.capture_us_p50", "us");
  res.na("frozen.diff_us_p50", "us");
  res.na("frozen.encode_delta_us_p50", "us");
  res.na("frozen.delta_bytes_per_epoch", "B");
  res.na("frozen.self_share", "ratio");
  res.na("runtime.residual_share", "ratio");
  res.na("runtime.parallel_efficiency", "ratio");
  res.na("runtime.starved_pumps_per_epoch", "count");
  res.na("runtime.steals_per_epoch", "count");
  res.add("trace.overhead_frac", untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0.0,
          "ratio", "wall");
  res.note("spans", static_cast<uint64_t>(spans.size()));

  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-s" +
                           std::to_string(opt.seed) + ".json";
  if (write_chrome_trace(spans, path)) res.note_str("chrome_trace", path);
  return res;
}

}  // namespace perfbench
