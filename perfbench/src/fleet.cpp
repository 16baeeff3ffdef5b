// fleet-256: the sharded controller with 256 switches x 32 compile shards,
// default bursty churn (per switch: monitor 24 ∥ router 16), clean wire,
// window 8, 2 dispatch threads.
//
// Tables are tiny, so the compiler is only part of the fleet's host time;
// the RTDZ epoch seal (frozen) and the runtime's dispatch and sessions take
// the rest. ShardedController::run is opaque from outside, so the layers
// are measured by replaying every switch's pipeline single-threaded, in the
// order seal_next runs it:
//   ChurnEngine::step -> encode_batch -> capture_policy -> freeze (epoch 1)
//   or diff + encode_delta -> decode_batch -> SimulatedSwitch::apply
// each switch inside its own rule-id namespace, based at (sw + 1) << 32,
// with its task built as the controller's default workload builds it.
// The replay also times one epoch of one switch end to end (update_ms).
#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "classbench/generator.h"
#include "frozen/delta.h"
#include "frozen/frozen.h"
#include "proto/codec.h"
#include "report.h"
#include "runtime/sharded_controller.h"
#include "runtime/workload.h"
#include "switchsim/switch.h"
#include "tcam/apply_journal.h"
#include "trace.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace ruletris;
using flowspace::RuleId;
using runtime::FleetReport;
using runtime::FleetSpec;
using runtime::SwitchTask;

constexpr size_t kSwitches = 256;
constexpr size_t kShards = 32;
constexpr size_t kThreads = 2;
constexpr size_t kUpdatesPerSwitch = 32;
/// Untraced runs are --seconds / kEpisodeSeconds episodes (at least
/// kMinEpisodes): about that many seconds each on a 4-core x86 host.
constexpr double kEpisodeSeconds = 5.5;
constexpr size_t kReps = 2;
constexpr size_t kMinEpisodes = 2;
/// Set-up is a few ms; it is timed this many times per episode.
constexpr int kSetupRepeats = 10;

FleetSpec fleet_spec(uint64_t seed, size_t threads) {
  FleetSpec spec;
  spec.n_switches = kSwitches;
  spec.n_shards = kShards;
  spec.n_threads = threads;
  spec.updates_per_switch = kUpdatesPerSwitch;
  spec.seed = seed;
  return spec;
}

/// The controller's default per-switch task (sharded_controller.cpp,
/// default_task), rebuilt from public parts.
SwitchTask default_task(const FleetSpec& spec, size_t sw) {
  SwitchTask task;
  util::Rng rng(util::hash_pair(spec.seed, sw + 1));
  task.tables.emplace("mon", flowspace::FlowTable{
                                 classbench::generate_monitor(spec.initial_monitor, rng)});
  task.tables.emplace("rtr", flowspace::FlowTable{
                                 classbench::generate_router(spec.initial_router, rng)});
  task.spec = compiler::PolicySpec::parallel(compiler::PolicySpec::leaf("mon"),
                                             compiler::PolicySpec::leaf("rtr"));
  task.churn.leaf = "mon";
  task.churn.updates = spec.updates_per_switch;
  task.churn.seed = util::hash_pair(spec.seed ^ 0x9e3779b97f4a7c15ULL, sw + 1);
  task.churn.burst = spec.burst;
  return task;
}

/// A switch's task plus its id counter right after the task was generated,
/// so a replay continues the namespace exactly where run() does.
struct ReplayTask {
  SwitchTask task;
  RuleId ids_after_task = 0;
};

std::vector<ReplayTask> build_tasks(const FleetSpec& spec) {
  std::vector<ReplayTask> tasks(spec.n_switches);
  for (size_t sw = 0; sw < spec.n_switches; ++sw) {
    RuleId ids = static_cast<RuleId>(sw + 1) << 32;
    flowspace::ScopedRuleIdNamespace ns(&ids);
    tasks[sw].task = default_task(spec, sw);
    tasks[sw].ids_after_task = ids;
  }
  return tasks;
}

struct ReplayStats {
  std::vector<double> epoch_ms;  // epochs >= 2 (epoch 1 is the install)
  double wall_s = 0.0;
  uint64_t epochs = 0, rule_ops = 0, entry_writes = 0, moves = 0;
  uint64_t wire_bytes = 0, delta_bytes = 0, delta_epochs = 0;
  uint64_t delta_rules = 0, delta_edges = 0, apply_failed = 0;
};

/// Per-epoch scratch, destroyed outside the timed region.
struct EpochWork {
  runtime::ChurnEngine::Step step;
  proto::Bytes wire;
  frozen::PolicyImage image;
  frozen::PolicyDelta delta;
  frozen::Bytes blob;
  proto::MessageBatch decoded;
  switchsim::UpdateMetrics m;
};

ReplayStats replay(const FleetSpec& spec, const std::vector<ReplayTask>& tasks,
                   Recorder& rec) {
  ReplayStats st;
  const int64_t start = now_ns();
  for (size_t sw = 0; sw < tasks.size(); ++sw) {
    RuleId ids = tasks[sw].ids_after_task;
    flowspace::ScopedRuleIdNamespace ns(&ids);
    SwitchTask task = tasks[sw].task;
    // The agent's device: DAG firmware with a write-ahead journal attached.
    switchsim::SimulatedSwitch dev(switchsim::FirmwareMode::kDag, spec.tcam_capacity);
    tcam::ApplyJournal journal;
    dev.dag_firmware().set_journal(&journal);
    std::optional<runtime::ChurnEngine> engine;
    frozen::PolicyImage prev;

    for (uint64_t epoch = 1;; ++epoch) {
      if (engine && engine->done()) break;
      const uint64_t req = static_cast<uint64_t>(sw) << 32 | epoch;
      EpochWork w;
      const int64_t t0 = now_ns();
      {
        Span root(rec, "epoch", req);
        {
          Span s(rec, "compiler.step", req);
          // The controller builds the engine (the initial compile) inside
          // the switch's first seal.
          if (!engine) engine.emplace(task.spec, std::move(task.tables), task.churn);
          w.step = engine->step();
        }
        {
          Span s(rec, "proto.encode", req);
          w.wire = proto::encode_batch(w.step.batch);
        }
        {
          Span s(rec, "frozen.capture", req);
          w.image = frozen::capture_policy(engine->frontend(), epoch);
        }
        if (epoch == 1) {
          Span s(rec, "frozen.freeze", req);
          w.blob = frozen::freeze(w.image);
        } else {
          {
            Span s(rec, "frozen.diff", req);
            w.delta = frozen::diff(prev, w.image);
          }
          Span s(rec, "frozen.encode_delta", req);
          w.blob = frozen::encode_delta(w.delta);
        }
        {
          Span s(rec, "proto.decode", req);
          w.decoded = proto::decode_batch(w.wire);
        }
        {
          Span s(rec, "tcam.apply", req);
          w.m = dev.apply(w.decoded);
        }
      }
      const double ms = static_cast<double>(now_ns() - t0) / 1e6;
      if (epoch > 1) {
        st.epoch_ms.push_back(ms);
        st.delta_bytes += w.blob.size();
        ++st.delta_epochs;
      }
      prev = std::move(w.image);
      ++st.epochs;
      st.rule_ops += w.step.ops;
      st.entry_writes += w.m.entry_writes;
      st.moves += w.m.moves;
      st.wire_bytes += w.wire.size();
      st.apply_failed += !w.m.ok;
      for (const proto::Message& msg : w.step.batch) {
        if (std::holds_alternative<proto::FlowModAdd>(msg) ||
            std::holds_alternative<proto::FlowModDelete>(msg)) {
          ++st.delta_rules;
        } else if (std::holds_alternative<proto::FlowModModify>(msg)) {
          st.delta_rules += 2;
        } else if (const auto* d = std::get_if<proto::DagUpdate>(&msg)) {
          st.delta_edges += d->delta.added_edges.size() + d->delta.removed_edges.size();
        }
      }
    }
  }
  st.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return st;
}

struct TimedRun {
  FleetReport report;
  double wall_s = 0.0;
};

TimedRun run_once(const FleetSpec& spec) {
  const int64_t t0 = now_ns();
  FleetReport report = runtime::ShardedController(spec).run();
  return {std::move(report), static_cast<double>(now_ns() - t0) / 1e9};
}

/// The checks every run() must pass; `ref` (if given) is another run of the
/// same fleet, whose fingerprints this one must match.
void check_run(const FleetReport& r, const FleetReport* ref, Result& res) {
  if (!r.runtime.all_converged) res.fail("a switch did not converge", r.rule_ops);
  if (!r.replay_ok) res.fail("RTDZ replay audit failed");
  if (r.runtime.apply_failures != 0) {
    res.fail("apply status other than kOk", r.runtime.apply_failures);
  }
  if (ref != nullptr && (r.fleet_fingerprint != ref->fleet_fingerprint ||
                         r.delta_fingerprint != ref->delta_fingerprint)) {
    res.fail("fleet fingerprint differs between runs of one fleet");
  }
}

/// The replay must reproduce what run() compiled and applied.
void check_replay(const ReplayStats& st, const FleetReport& r, Result& res) {
  if (st.rule_ops != r.rule_ops) {
    res.fail("replayed rule ops " + std::to_string(st.rule_ops) + " != FleetReport " +
             std::to_string(r.rule_ops));
  }
  if (st.entry_writes != r.runtime.entry_writes) {
    res.fail("replayed TCAM writes " + std::to_string(st.entry_writes) +
             " != runtime.entry_writes " + std::to_string(r.runtime.entry_writes));
  }
  if (st.apply_failed != 0) res.fail("replayed apply status other than kOk", st.apply_failed);
}

}  // namespace

Result run_fleet(const Options& opt) {
  Result res;
  res.note("switches", static_cast<uint64_t>(kSwitches));
  res.note("shards", static_cast<uint64_t>(kShards));
  res.note("dispatch_threads", static_cast<uint64_t>(kThreads));
  res.note("updates_per_switch", static_cast<uint64_t>(kUpdatesPerSwitch));

  if (!opt.trace) {
    // Episodes, each a fresh fleet from its own sub-seed: set up, run(),
    // replay. The work per run is fixed by --seconds.
    const size_t episodes = std::max<size_t>(
        kMinEpisodes, static_cast<size_t>(opt.seconds / kEpisodeSeconds + 0.5));
    std::vector<double> setup_s, epoch_ms;
    double run_wall_s = 0.0, makespan_s = 0.0;
    uint64_t rule_ops = 0;
    util::Histogram tcam_ms, ack_ms;
    for (size_t ep = 0; ep < episodes; ++ep) {
      FleetSpec spec;
      std::vector<ReplayTask> tasks;
      for (int i = 0; i < kSetupRepeats; ++i) {
        tasks.clear();
        const int64_t t0 = now_ns();
        spec = fleet_spec(util::hash_pair(opt.seed, ep), kThreads);
        runtime::ShardedController::validate(spec);
        tasks = build_tasks(spec);
        setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
      // kReps runs and replays of the same fleet: identical work, so the
      // best timing filters interference from other tenants of the host,
      // and the fingerprints must repeat exactly.
      TimedRun run;
      ReplayStats st;
      Recorder off(false);
      for (size_t r = 0; r < kReps; ++r) {
        TimedRun again = run_once(spec);
        check_run(again.report, r > 0 ? &run.report : nullptr, res);
        res.attempted += again.report.rule_ops;
        ReplayStats st2 = replay(spec, tasks, off);
        check_replay(st2, again.report, res);
        if (r == 0) {
          run = std::move(again);
          st = std::move(st2);
          continue;
        }
        run.wall_s = std::min(run.wall_s, again.wall_s);
        for (size_t i = 0; i < st.epoch_ms.size(); ++i) {
          st.epoch_ms[i] = std::min(st.epoch_ms[i], st2.epoch_ms[i]);
        }
      }
      const FleetReport& rep = run.report;

      run_wall_s += run.wall_s;
      rule_ops += rep.rule_ops;
      makespan_s += rep.makespan_ms / 1e3;
      tcam_ms.merge(rep.runtime.tcam_ms);
      ack_ms.merge(rep.runtime.ack_ms);
      epoch_ms.insert(epoch_ms.end(), st.epoch_ms.begin(), st.epoch_ms.end());
    }

    res.note("episodes", static_cast<uint64_t>(episodes));
    res.note("rule_ops", rule_ops);
    res.note("timed_epochs", static_cast<uint64_t>(epoch_ms.size()));
    res.note("acked_epochs", static_cast<uint64_t>(ack_ms.count()));
    // Not scaled to the reference speed (report.h, host_scale): calibration
    // samples taken between fleet runs, which free ~170 MiB each, spread
    // more than the fleet's own figures did.
    res.note("update_ms_p50", percentile(epoch_ms, 50));
    res.add("update_ms_mean", mean(epoch_ms), "ms", "wall");
    res.add("update_ms_p99", percentile(epoch_ms, 99), "ms", "wall");
    res.add("rule_ops_per_s", static_cast<double>(rule_ops) / run_wall_s, "1/s", "wall");
    res.add("tcam_vt_ms_mean", tcam_ms.mean(), "ms_vt", "virtual");
    res.add("tcam_vt_ms_p99", tcam_ms.p99(), "ms_vt", "virtual");
    // FleetReport::updates_per_s over the episodes' fleets back to back.
    res.add("vt_rule_ops_per_s", static_cast<double>(rule_ops) / makespan_s, "1/s_vt",
            "virtual");
    res.note("ack_vt_ms_p50", ack_ms.median());
    res.add("ack_vt_ms_mean", ack_ms.mean(), "ms_vt", "virtual");
    res.add("ack_vt_ms_p99", ack_ms.p99(), "ms_vt", "virtual");
    res.add("setup_s", percentile(setup_s, 50), "s", "wall");
    return res;
  }

  const FleetSpec spec = fleet_spec(util::hash_pair(opt.seed, 0), kThreads);
  const std::vector<ReplayTask> tasks = build_tasks(spec);

  // ---- Traced run: run() at 1 and at kThreads threads, then the replay
  // untraced and traced in turn, twice each; trace.overhead_frac compares
  // the best replay of each kind.
  const TimedRun one = run_once(fleet_spec(spec.seed, 1));
  const TimedRun many = run_once(spec);
  check_run(one.report, nullptr, res);
  check_run(many.report, &one.report, res);
  res.attempted += one.report.rule_ops + many.report.rule_ops;
  Recorder off(false), rec(true), rec2(true);
  double plain_s = replay(spec, tasks, off).wall_s;
  const ReplayStats st = replay(spec, tasks, rec);
  plain_s = std::min(plain_s, replay(spec, tasks, off).wall_s);
  const double traced_s = std::min(st.wall_s, replay(spec, tasks, rec2).wall_s);
  check_replay(st, one.report, res);

  const auto& spans = rec.spans();
  const std::string nesting = check_nesting(spans);
  if (!nesting.empty()) res.fail("trace accounting: " + nesting);
  const LayerTotals lt = layer_totals(spans);
  const double layer_self_us = lt.all_layers_us();
  const std::vector<double> step_us = durations_us(spans, "compiler.step");
  const std::vector<double> apply_us = durations_us(spans, "tcam.apply");
  const double ops = static_cast<double>(st.rule_ops);
  const double steps = static_cast<double>(many.report.shard_steps);

  res.add("compiler.update_us_p50", percentile(step_us, 50), "us", "wall");
  res.add("compiler.update_us_p99", percentile(step_us, 99), "us", "wall");
  res.add("compiler.step_us_p50", percentile(step_us, 50), "us", "wall");
  res.add("compiler.self_share", lt.share("compiler"), "ratio", "wall");
  res.add("compiler.delta_rules_per_op", static_cast<double>(st.delta_rules) / ops, "count",
          "count");
  res.add("compiler.delta_edges_per_op", static_cast<double>(st.delta_edges) / ops, "count",
          "count");
  res.na("switchsim.to_messages_us_p50", "us");  // inside ChurnEngine::step
  res.add("proto.encode_us_p50", percentile(durations_us(spans, "proto.encode"), 50), "us",
          "wall");
  res.add("proto.decode_us_p50", percentile(durations_us(spans, "proto.decode"), 50), "us",
          "wall");
  res.add("proto.wire_bytes_per_op", static_cast<double>(st.wire_bytes) / ops, "B", "count");
  res.add("tcam.apply_us_p50", percentile(apply_us, 50), "us", "wall");
  res.add("tcam.apply_us_p99", percentile(apply_us, 99), "us", "wall");
  res.add("tcam.self_share", lt.share("tcam"), "ratio", "wall");
  res.add("tcam.writes_per_op", static_cast<double>(st.entry_writes) / ops, "count", "count");
  res.add("tcam.moves_per_op", static_cast<double>(st.moves) / ops, "count", "count");
  res.add("tcam.apply_failed", static_cast<double>(st.apply_failed), "count", "count");
  res.add("frozen.capture_us_p50", percentile(durations_us(spans, "frozen.capture"), 50), "us",
          "wall");
  res.add("frozen.diff_us_p50", percentile(durations_us(spans, "frozen.diff"), 50), "us",
          "wall");
  res.add("frozen.encode_delta_us_p50",
          percentile(durations_us(spans, "frozen.encode_delta"), 50), "us", "wall");
  res.add("frozen.delta_bytes_per_epoch",
          st.delta_epochs ? static_cast<double>(st.delta_bytes) / st.delta_epochs : 0.0, "B",
          "count");
  res.add("frozen.self_share", lt.share("frozen"), "ratio", "wall");
  // Base: the 1-thread run() wall time. What the replayed layers do not
  // account for is dispatch, sessions and the virtual-time event loops.
  res.add("runtime.residual_share", (one.wall_s - layer_self_us / 1e6) / one.wall_s, "ratio",
          "wall");
  res.add("runtime.parallel_efficiency",
          one.wall_s / (many.wall_s * static_cast<double>(kThreads)), "ratio", "wall");
  res.add("runtime.starved_pumps_per_epoch",
          static_cast<double>(many.report.starved_pumps) / steps, "count", "count");
  res.add("runtime.steals_per_epoch", static_cast<double>(many.report.steals) / steps,
          "count", "count");
  res.add("trace.overhead_frac", traced_s / plain_s - 1.0, "ratio", "wall");

  res.note("run_wall_s_1_thread", one.wall_s);
  res.note("run_wall_s_threads", many.wall_s);
  res.note("replay_wall_s", plain_s);
  res.note("replay_layer_self_s", layer_self_us / 1e6);
  res.note("replayed_epochs", st.epochs);
  res.note("spans", static_cast<uint64_t>(spans.size()));
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-s" +
                           std::to_string(opt.seed) + ".json";
  if (write_chrome_trace(spans, path)) res.note_str("chrome_trace", path);
  return res;
}

}  // namespace perfbench
