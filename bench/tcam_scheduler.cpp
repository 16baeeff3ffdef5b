// TCAM scheduler scaling: the cap-cache + flat-arena chain search of
// Algorithm 1 under an adversarial default-rule star, plus the
// pipeline-parallel apply across independent per-table schedulers.
//
// The adversarial workload is the CacheFlow-style cover-set graph around a
// default rule: one default that depends on every other rule (out-degree n),
// K fat aggregates each depending on its shard of leaves (out-degree n/K),
// and a saturated bottom region so that reinserting a bottom rule forces a
// moving-chain search whose BFS probes the aggregates — each probe is O(1)
// with the cap cache, where a graph scan would cost O(shard). Cover-set
// graphs are deliberately NOT transitively reduced (CacheFlow tracks covers
// directly), which is what makes the fat degrees real.
//
// The churn stream is pre-generated per configuration, so per-op move
// counts are deterministic; the bench self-checks layout_valid() after the
// churn and exits non-zero on an invalid layout or a failed insert. --smoke
// runs a small sweep for ctest.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "compiler/update.h"
#include "flowspace/rule.h"
#include "switchsim/adapters.h"
#include "switchsim/pipeline_switch.h"
#include "tcam/backend_update.h"
#include "tcam/dag_scheduler.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using ruletris::flowspace::Action;
using ruletris::flowspace::ActionList;
using ruletris::flowspace::FieldId;
using ruletris::flowspace::kInvalidRuleId;
using ruletris::flowspace::Rule;
using ruletris::flowspace::RuleId;
using ruletris::flowspace::TernaryMatch;
using ruletris::tcam::BackendUpdate;
using ruletris::tcam::DagScheduler;
using ruletris::tcam::Tcam;
using ruletris::util::Rng;
using ruletris::util::Stopwatch;

Rule make_rule() {
  TernaryMatch m;
  m.set_exact(FieldId::kDstPort, 80);
  return Rule::make(m, ActionList{Action::forward(1)}, 0);
}

struct StarSpec {
  size_t capacity = 4096;
  double occupancy = 0.95;  // pre-ballast fill target
  size_t updates = 500;
  size_t aggregates = 32;
  size_t bottom = 8;       // churned bottom rules (the chain triggers)
  size_t succ_per_bottom = 4;
  uint64_t seed = 2024;
};

/// One pre-generated churn operation. kBottom is the chain trigger: it
/// removes one live leaf (freeing a slot mid-block, far above the bottom
/// region) and installs a fresh bottom rule whose window is the saturated
/// bottom region — the insert must run a moving chain whose BFS probes every
/// aggregate between the window and the freed slot.
struct Op {
  enum Kind { kDefault, kAggregate, kBottom, kLeaf } kind = kLeaf;
  size_t index = 0;               // aggregate index, or raw pick (mod live leaves)
  Rule fresh;                     // kBottom replacement rule
  std::vector<size_t> bottom_succs;  // aggregate indices the fresh rule depends on
};

/// The rule universe and the op stream.
struct StarWorkload {
  Rule def;
  std::vector<Rule> aggregates;
  std::vector<Rule> leaves;
  std::vector<Rule> bottom;  // initial bottom rules
  std::vector<std::vector<size_t>> bottom_succs;
  std::vector<Rule> ballast_pool;   // consumed as saturation requires
  std::vector<Rule> subfloor_pool;  // fills the slots below the default
  std::vector<Op> ops;
};

StarWorkload build_workload(const StarSpec& spec) {
  Rng rng(spec.seed);
  StarWorkload w;
  w.def = make_rule();
  const size_t fill = static_cast<size_t>(spec.occupancy *
                                          static_cast<double>(spec.capacity));
  const size_t n_leaves = fill > spec.aggregates + spec.bottom + 1
                              ? fill - spec.aggregates - spec.bottom - 1
                              : 16;
  for (size_t k = 0; k < spec.aggregates; ++k) w.aggregates.push_back(make_rule());
  for (size_t i = 0; i < n_leaves; ++i) w.leaves.push_back(make_rule());
  auto pick_succs = [&] {
    std::vector<size_t> out;
    for (size_t e = 0; e < spec.succ_per_bottom; ++e) {
      out.push_back(rng.next_below(spec.aggregates));
    }
    return out;
  };
  for (size_t b = 0; b < spec.bottom; ++b) {
    w.bottom.push_back(make_rule());
    w.bottom_succs.push_back(pick_succs());
  }
  // The pools upper-bound the saturation need (each region < capacity/2).
  for (size_t i = 0; i < spec.capacity / 2 + 8; ++i) {
    w.ballast_pool.push_back(make_rule());
    w.subfloor_pool.push_back(make_rule());
  }
  for (size_t u = 0; u < spec.updates; ++u) {
    Op op;
    const double p = rng.next_double();
    // The default itself is never churned: like a production table-miss rule
    // it is installed once and stays. Its adversarial role is its out-degree,
    // which a graph-scanning search would pay for on every bound scan and
    // probe.
    if (p < 0.08) {
      op.kind = Op::kAggregate;
      op.index = rng.next_below(spec.aggregates);
    } else if (p < 0.70) {
      op.kind = Op::kBottom;
      op.index = static_cast<size_t>(rng.next_u32());
      op.fresh = make_rule();
      op.bottom_succs = pick_succs();
    } else {
      op.kind = Op::kLeaf;
      op.index = static_cast<size_t>(rng.next_u32());
    }
    w.ops.push_back(std::move(op));
  }
  return w;
}

struct RunResult {
  bool ok = true;
  double setup_ms = 0.0;
  double churn_ms = 0.0;
  double fill = 0.0;  // actual occupancy after saturation
  size_t ballast_used = 0;
  size_t chain_ops = 0;
  size_t total_moves = 0;
  size_t max_chain = 0;
  double kind_ms[4] = {0.0, 0.0, 0.0, 0.0};  // per-op-kind breakdown
  bool layout_valid = false;
};

RunResult run_star(const StarSpec& spec, const StarWorkload& w) {
  RunResult r;
  Tcam tcam(spec.capacity);
  DagScheduler sched(tcam);
  Stopwatch setup_watch;

  // Install the whole star in one batch; the scheduler's local Kahn order
  // installs leaves, then aggregates, then the default.
  BackendUpdate initial;
  initial.dag.added_vertices.push_back(w.def.id);
  for (const Rule& a : w.aggregates) initial.dag.added_vertices.push_back(a.id);
  for (const Rule& l : w.leaves) initial.dag.added_vertices.push_back(l.id);
  for (const Rule& a : w.aggregates) initial.dag.added_edges.push_back({w.def.id, a.id});
  for (size_t i = 0; i < w.leaves.size(); ++i) {
    initial.dag.added_edges.push_back({w.def.id, w.leaves[i].id});
    initial.dag.added_edges.push_back(
        {w.aggregates[i % w.aggregates.size()].id, w.leaves[i].id});
  }
  for (const Rule& l : w.leaves) initial.added.push_back(l);
  for (const Rule& a : w.aggregates) initial.added.push_back(a);
  initial.added.push_back(w.def);
  r.ok = sched.apply(initial);

  // Bottom rules: below their chosen aggregates, above the default.
  std::vector<Rule> bottom = w.bottom;
  for (size_t b = 0; b < bottom.size() && r.ok; ++b) {
    BackendUpdate u;
    u.dag.added_vertices.push_back(bottom[b].id);
    u.dag.added_edges.push_back({w.def.id, bottom[b].id});
    for (size_t k : w.bottom_succs[b]) {
      u.dag.added_edges.push_back({bottom[b].id, w.aggregates[k].id});
    }
    u.added.push_back(bottom[b]);
    r.ok = r.ok && sched.apply(u);
  }

  // Fill every slot below the default with subfloor rules pinned under it
  // (each depends on the default, so it must sit below). Without this, a
  // bottom-rule insert finds a one-hop *down* chain that nudges the default
  // itself into the free space beneath it — legal and optimal, but it turns
  // every churn op into a move of the O(n)-degree vertex and hides the
  // search-cost asymmetry this bench exists to measure.
  if (r.ok) {
    const size_t def_addr = tcam.address_of(w.def.id);
    size_t free_below = 0;
    for (size_t a = 0; a < def_addr; ++a) {
      if (tcam.is_free(a)) ++free_below;
    }
    for (size_t i = 0; i < free_below && r.ok; ++i) {
      const Rule& sub = w.subfloor_pool[i];
      BackendUpdate u;
      u.dag.added_vertices.push_back(sub.id);
      u.dag.added_edges.push_back({sub.id, w.def.id});
      u.added.push_back(sub);
      r.ok = sched.apply(u);
    }
  }

  // Saturate the bottom region (def, lowest leaf): ballast rules pinned
  // below the lowest-addressed leaf soak up its free slots so bottom-rule
  // churn must run moving chains instead of grabbing a free slot.
  std::unordered_set<RuleId> leaf_ids;
  for (const Rule& l : w.leaves) leaf_ids.insert(l.id);
  size_t anchor_addr = 0;
  RuleId anchor_id = 0;
  for (size_t a = 0; a < spec.capacity && r.ok; ++a) {
    const std::optional<RuleId> id = tcam.at(a);
    if (id && leaf_ids.count(*id)) {
      anchor_addr = a;
      anchor_id = *id;
      break;
    }
  }
  if (anchor_id != 0 && r.ok) {
    // Pin every aggregate below the anchor leaf. Without this, moving
    // chains gradually displace aggregates above the bottom region; then
    // later bottom-rule windows reach past it into block free slots and the
    // churn degenerates into fast-path writes.
    BackendUpdate pin;
    for (const Rule& a : w.aggregates) {
      pin.dag.added_edges.push_back({a.id, anchor_id});
    }
    r.ok = sched.apply(pin);
    size_t free_in_region = 0;
    for (size_t a = tcam.address_of(w.def.id) + 1; a < anchor_addr; ++a) {
      if (tcam.is_free(a)) ++free_in_region;
    }
    while (free_in_region > 0 && r.ballast_used < w.ballast_pool.size()) {
      const Rule& ballast = w.ballast_pool[r.ballast_used];
      BackendUpdate u;
      u.dag.added_vertices.push_back(ballast.id);
      u.dag.added_edges.push_back({w.def.id, ballast.id});
      u.dag.added_edges.push_back({ballast.id, anchor_id});
      u.added.push_back(ballast);
      if (!sched.apply(u)) {
        r.ok = false;
        break;
      }
      ++r.ballast_used;
      --free_in_region;  // the ballast's range is exactly the region
    }
  }
  r.setup_ms = setup_watch.elapsed_ms();

  // Live leaves the churn may touch. The anchor leaf is excluded: every
  // ballast rule and aggregate is pinned under it, so removing or
  // reinserting it would unpin the saturation (and teleport the anchor above
  // its ballast predecessors).
  std::vector<size_t> alive;
  std::unordered_map<RuleId, size_t> alive_pos;  // id -> position in `alive`
  for (size_t i = 0; i < w.leaves.size(); ++i) {
    if (w.leaves[i].id == anchor_id) continue;
    alive_pos[w.leaves[i].id] = alive.size();
    alive.push_back(i);
  }
  // Victim for a bottom op: the lowest-addressed live leaf. Freeing the slot
  // at the bottom of the leaf block keeps the chain completion slot — and so
  // the search span — constant over the whole run, instead of ratcheting the
  // free-slot waterline upward one chain at a time.
  auto lowest_live_leaf = [&]() -> RuleId {
    for (size_t a = tcam.address_of(anchor_id) + 1; a < spec.capacity; ++a) {
      const std::optional<RuleId> id = tcam.at(a);
      if (id && alive_pos.count(*id)) return *id;
    }
    return kInvalidRuleId;
  };

  // Churn: replay the pre-generated op stream.
  Stopwatch churn_watch;
  for (const Op& op : w.ops) {
    Stopwatch op_watch;
    switch (op.kind) {
      case Op::kDefault:
        sched.evict(w.def.id);
        if (!sched.insert(w.def)) r.ok = false;
        break;
      case Op::kAggregate:
        sched.evict(w.aggregates[op.index].id);
        if (!sched.insert(w.aggregates[op.index])) r.ok = false;
        break;
      case Op::kBottom: {
        // Remove the lowest live leaf (the freed slot sits at the block
        // bottom, above the saturated region) and install a fresh bottom
        // rule in the same batch: its window is the saturated region, so
        // the insert must run a moving chain past every aggregate.
        if (alive.empty()) break;
        const RuleId dead = lowest_live_leaf();
        if (dead == kInvalidRuleId) break;
        const size_t pick = alive_pos.at(dead);
        alive_pos[w.leaves[alive.back()].id] = pick;
        alive[pick] = alive.back();
        alive.pop_back();
        alive_pos.erase(dead);
        BackendUpdate u;
        u.removed.push_back(dead);
        u.dag.added_vertices.push_back(op.fresh.id);
        u.dag.added_edges.push_back({w.def.id, op.fresh.id});
        for (size_t k : op.bottom_succs) {
          u.dag.added_edges.push_back({op.fresh.id, w.aggregates[k].id});
        }
        u.added.push_back(op.fresh);
        if (!sched.apply(u)) r.ok = false;
        break;
      }
      case Op::kLeaf: {
        if (alive.empty()) break;
        const Rule& leaf = w.leaves[alive[op.index % alive.size()]];
        sched.evict(leaf.id);
        if (!sched.insert(leaf)) r.ok = false;
        break;
      }
    }
    r.kind_ms[op.kind] += op_watch.elapsed_ms();
    const size_t moves = sched.last_chain_moves();
    r.total_moves += moves;
    if (moves > 0) ++r.chain_ops;
    if (moves > r.max_chain) r.max_chain = moves;
  }
  r.churn_ms = churn_watch.elapsed_ms();

  r.fill = static_cast<double>(tcam.occupied()) /
           static_cast<double>(tcam.capacity());
  r.layout_valid = sched.layout_valid();
  return r;
}

/// Pipeline-parallel apply: one star install batch per stage, applied via
/// deliver_all with 1 vs N threads; the per-stage reports must be
/// bit-identical.
struct PipelineResult {
  bool ok = true;
  bool identical = true;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
};

PipelineResult run_pipeline(size_t stages, size_t stage_capacity, size_t threads,
                            bool clamp_to_hardware) {
  using ruletris::compiler::TableUpdate;
  using ruletris::switchsim::MultiTableSwitch;

  // Build each stage's install batch once (shared rule ids for both runs).
  std::vector<ruletris::proto::MessageBatch> batches;
  for (size_t s = 0; s < stages; ++s) {
    const size_t n = stage_capacity * 8 / 10;
    const size_t n_aggs = 16;
    TableUpdate update;
    Rule def = make_rule();
    std::vector<Rule> aggs, leaves;
    for (size_t k = 0; k < n_aggs; ++k) aggs.push_back(make_rule());
    for (size_t i = 0; i + n_aggs + 1 < n; ++i) leaves.push_back(make_rule());
    update.dag.added_vertices.push_back(def.id);
    for (const Rule& a : aggs) {
      update.dag.added_vertices.push_back(a.id);
      update.dag.added_edges.push_back({def.id, a.id});
    }
    for (size_t i = 0; i < leaves.size(); ++i) {
      update.dag.added_vertices.push_back(leaves[i].id);
      update.dag.added_edges.push_back({def.id, leaves[i].id});
      update.dag.added_edges.push_back({aggs[i % n_aggs].id, leaves[i].id});
    }
    update.added = leaves;
    update.added.insert(update.added.end(), aggs.begin(), aggs.end());
    update.added.push_back(def);
    batches.push_back(ruletris::switchsim::to_messages(update));
  }

  PipelineResult result;
  const std::vector<size_t> caps(stages, stage_capacity);

  MultiTableSwitch serial(caps);
  Stopwatch serial_watch;
  const auto ms = serial.deliver_all(batches);
  result.serial_ms = serial_watch.elapsed_ms();
  result.ok = ms.ok;

  MultiTableSwitch parallel(caps);
  parallel.set_apply_threads(threads, clamp_to_hardware);
  Stopwatch parallel_watch;
  const auto mp = parallel.deliver_all(batches);
  result.parallel_ms = parallel_watch.elapsed_ms();
  result.ok = result.ok && mp.ok;

  result.identical = ms.stages.size() == mp.stages.size();
  for (size_t s = 0; result.identical && s < ms.stages.size(); ++s) {
    result.identical = ms.stages[s].entry_writes == mp.stages[s].entry_writes &&
                       ms.stages[s].moves == mp.stages[s].moves;
  }
  for (size_t s = 0; result.identical && s < stages; ++s) {
    for (size_t a = 0; a < stage_capacity; ++a) {
      if (serial.tcam(s).at(a) != parallel.tcam(s).at(a)) {
        result.identical = false;
        break;
      }
    }
    result.identical =
        result.identical && parallel.firmware(s).layout_valid();
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using ruletris::bench::json;

  bool smoke = false;
  size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = ruletris::bench::flag_number<size_t>("--threads", argv[i + 1]);
    }
  }
  ruletris::bench::init_json(argc, argv, "tcam_scheduler");
  if (auto* j = json()) {
    j->meta("threads", static_cast<double>(threads));
    j->meta("smoke", smoke ? 1.0 : 0.0);
  }

  const size_t updates = ruletris::bench::updates_per_run(smoke ? 80 : 500);

  std::vector<StarSpec> specs;
  if (smoke) {
    specs.push_back({256, 0.90, updates, 8, 4, 3, 2024});
    specs.push_back({512, 0.95, updates, 8, 4, 3, 2025});
  } else {
    specs.push_back({4096, 0.95, updates, 32, 8, 4, 2024});
    specs.push_back({4096, 0.98, updates, 32, 8, 4, 2024});
    specs.push_back({32768, 0.95, updates, 32, 8, 4, 2024});
    specs.push_back({32768, 0.98, updates, 32, 8, 4, 2024});
  }

  std::printf("\n=== TCAM scheduler: cap cache + flat-arena chain search ===\n");
  std::printf("%-8s %-6s %-6s | %-9s %-9s | %-7s %-7s %-7s | %s\n", "capacity",
              "fill", "ops", "setup ms", "churn ms", "chains", "moves", "maxch",
              "checks");

  bool all_ok = true;
  for (const StarSpec& spec : specs) {
    const RunResult r = run_star(spec, build_workload(spec));
    all_ok = all_ok && r.ok && r.layout_valid;
    std::printf("%-8zu %-6.3f %-6zu | %-9.2f %-9.2f | %-7zu %-7zu %-7zu | %s\n",
                spec.capacity, r.fill, spec.updates, r.setup_ms, r.churn_ms,
                r.chain_ops, r.total_moves, r.max_chain,
                r.ok && r.layout_valid ? "ok" : "FAIL");
    std::fflush(stdout);
    if (auto* j = json()) {
      j->begin_row();
      j->field("workload", "star");
      j->field("capacity", static_cast<double>(spec.capacity));
      j->field("occupancy_target", spec.occupancy);
      j->field("occupancy_actual", r.fill);
      j->field("updates", static_cast<double>(spec.updates));
      j->field("aggregates", static_cast<double>(spec.aggregates));
      j->field("ballast", static_cast<double>(r.ballast_used));
      j->field("chain_ops", static_cast<double>(r.chain_ops));
      j->field("total_moves", static_cast<double>(r.total_moves));
      j->field("max_chain", static_cast<double>(r.max_chain));
      j->field("churn_ms", r.churn_ms);
      j->field("bottom_ms", r.kind_ms[2]);
      j->field("leaf_ms", r.kind_ms[3]);
      j->field("aggregate_ms", r.kind_ms[1]);
      j->field("setup_ms", r.setup_ms);
      j->field("layout_valid", r.layout_valid ? 1.0 : 0.0);
    }
  }

  // Pipeline-parallel apply across independent per-table schedulers. Smoke
  // forces the pool even on one core (it gates determinism, not speed); the
  // timed run keeps the production clamp so the speedup is what a user on
  // this machine would see.
  const size_t threads_effective =
      smoke ? threads : ruletris::util::effective_workers(threads);
  std::printf("\n=== Pipeline apply: %zu threads (%zu effective) vs serial ===\n",
              threads, threads_effective);
  std::printf("%-7s %-9s | %-10s %-11s %-8s | %s\n", "stages", "cap/stage",
              "serial ms", "parallel ms", "speedup", "checks");
  {
    const size_t stages = smoke ? 3 : 6;
    const size_t stage_capacity = smoke ? 256 : 4096;
    const PipelineResult p =
        run_pipeline(stages, stage_capacity, threads, /*clamp_to_hardware=*/!smoke);
    all_ok = all_ok && p.ok && p.identical;
    const double speedup = p.parallel_ms > 0.0 ? p.serial_ms / p.parallel_ms : 0.0;
    std::printf("%-7zu %-9zu | %-10.2f %-11.2f %-8.2f | %s\n", stages,
                stage_capacity, p.serial_ms, p.parallel_ms, speedup,
                p.ok && p.identical ? "ok" : "FAIL");
    if (auto* j = json()) {
      j->begin_row();
      j->field("workload", "pipeline");
      j->field("stages", static_cast<double>(stages));
      j->field("stage_capacity", static_cast<double>(stage_capacity));
      j->field("threads", static_cast<double>(threads));
      j->field("threads_effective", static_cast<double>(threads_effective));
      j->field("serial_ms", p.serial_ms);
      j->field("parallel_ms", p.parallel_ms);
      j->field("speedup", speedup);
      j->field("identical", p.identical ? 1.0 : 0.0);
    }
  }

  ruletris::bench::write_json();
  if (!all_ok) {
    std::fprintf(stderr,
                 "FAIL: scheduler bench self-check (failed insert, invalid "
                 "layout, or divergent pipeline apply)\n");
    return 1;
  }
  std::printf("\nOK: every layout valid, pipeline apply identical across threads\n");
  return 0;
}
