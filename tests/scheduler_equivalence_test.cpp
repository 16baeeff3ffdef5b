// Incrementally maintained cap cache ≡ cap cache rebuilt from scratch.
//
// The scheduler answers every Algorithm-1 bound and BFS probe from a
// CapIndex that hooks on every write/move/erase/edge delta keep exact. For
// any operation stream, a scheduler running on those hooks must produce the
// same TCAM layouts and last_chain_moves() as a reference scheduler whose
// caps are rebuilt from the graph and TCAM (CapIndex::rebuild) before every
// operation. These tests drive the pair through random DAG streams, batched
// BackendUpdates (the incremental cap-hook path), the adversarial
// default-rule star (the O(n)-degree hotspot), and direct graph() mutation
// (the dirty-rebuild path). Plus a property test for the Fenwick-descent
// kth_free behind the free-slot queries.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "dag/builder.h"
#include "tcam/backend_update.h"
#include "tcam/dag_scheduler.h"
#include "tcam/occupancy.h"
#include "test_util.h"

namespace ruletris {
namespace {

using dag::DependencyGraph;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using tcam::BackendUpdate;
using tcam::DagScheduler;
using tcam::OccupancyIndex;
using tcam::Tcam;
using util::Rng;

Rule make_rule(uint32_t tag) {
  TernaryMatch m;
  m.set_exact(FieldId::kDstPort, tag);
  return Rule::make(m, ActionList{Action::forward(1)}, 0);
}

/// A scheduler on incrementally maintained caps and a reference scheduler
/// over a twin TCAM; every operation is mirrored to both and the results
/// compared. The reference calls the non-const graph() before each
/// operation, which marks its caps dirty: its hooks then do nothing, and
/// each insert/apply starts from a from-scratch CapIndex::rebuild.
struct SchedulerPair {
  Tcam tcam_cached;
  Tcam tcam_reference;
  DagScheduler cached;
  DagScheduler reference;

  explicit SchedulerPair(size_t capacity)
      : tcam_cached(capacity),
        tcam_reference(capacity),
        cached(tcam_cached),
        reference(tcam_reference) {}

  /// The reference scheduler, with its caps marked for rebuild.
  DagScheduler& rebuilt() {
    reference.graph();
    return reference;
  }

  void expect_identical(const char* where) {
    ASSERT_EQ(cached.last_chain_moves(), reference.last_chain_moves()) << where;
    for (size_t a = 0; a < tcam_cached.capacity(); ++a) {
      const std::optional<RuleId> c = tcam_cached.at(a);
      const std::optional<RuleId> r = tcam_reference.at(a);
      ASSERT_EQ(c.has_value(), r.has_value()) << where << " addr " << a;
      if (c) {
        ASSERT_EQ(*c, *r) << where << " addr " << a;
      }
    }
  }

  void insert_both(const Rule& r) {
    const bool a = cached.insert(r);
    const bool b = rebuilt().insert(r);
    ASSERT_EQ(a, b);
    expect_identical("insert");
  }

  /// A single-rule batch reaches the reference in two steps (its DAG delta,
  /// then the insert), so the reference's chain search starts from caps
  /// rebuilt after the delta instead of the ones the delta's hooks produced.
  void apply_both(const BackendUpdate& u) {
    const bool a = cached.apply(u);
    bool b;
    if (u.added.size() == 1) {
      BackendUpdate delta = u;
      delta.added.clear();
      b = rebuilt().apply(delta) && rebuilt().insert(u.added.front());
    } else {
      b = rebuilt().apply(u);
    }
    ASSERT_EQ(a, b);
    expect_identical("apply");
  }

  void remove_both(RuleId id) {
    cached.remove(id);
    rebuilt().remove(id);
    expect_identical("remove");
  }

  void evict_both(RuleId id) {
    ASSERT_EQ(cached.evict(id), rebuilt().evict(id));
    expect_identical("evict");
  }
};

/// Random minimum DAGs installed rule by rule, then churned with removes and
/// evict+reinsert cycles: layouts and chain lengths must agree at every step.
TEST(SchedulerEquivalence, RandomDagStreamsProduceIdenticalLayouts) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 12 + static_cast<int>(rng.next_below(12));
    std::vector<Rule> rules;
    for (int i = 0; i < n; ++i) rules.push_back(testutil::random_rule(rng, n - i));
    FlowTable table{rules};
    const DependencyGraph min_dag = dag::build_min_dag(table);

    SchedulerPair pair(static_cast<size_t>(n + n / 8 + 2));
    pair.cached.graph() = min_dag;
    pair.reference.graph() = min_dag;
    for (RuleId id : min_dag.topo_order_high_to_low()) {
      pair.insert_both(table.rule(id));
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_TRUE(pair.cached.layout_valid());
    ASSERT_TRUE(pair.reference.layout_valid());

    std::vector<RuleId> live;
    for (const Rule& r : table.rules()) live.push_back(r.id);
    for (int op = 0; op < 40 && !live.empty(); ++op) {
      const size_t pick = rng.next_below(live.size());
      const RuleId victim = live[pick];
      if (rng.next_bool(0.5)) {
        // Evict + reinsert: the vertex and edges survive, bounds come from
        // the retained caps on the incremental side.
        pair.evict_both(victim);
        pair.insert_both(table.rule(victim));
      } else {
        pair.remove_both(victim);
        live[pick] = live.back();
        live.pop_back();
      }
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_TRUE(pair.cached.layout_valid());
    }
  }
}

/// BackendUpdate batches with DAG deltas drive the incremental cap hooks
/// (on_add_edge / on_remove_edge / on_write / on_erase) without any rebuild.
TEST(SchedulerEquivalence, BatchedApplyWithDagDeltasStaysEquivalent) {
  Rng rng(43);
  SchedulerPair pair(48);

  // A default that depends on every later rule (fat out-degree), installed
  // first via a batch.
  const Rule def = make_rule(1);
  BackendUpdate initial;
  initial.added.push_back(def);
  initial.dag.added_vertices.push_back(def.id);
  pair.apply_both(initial);
  if (::testing::Test::HasFatalFailure()) return;

  std::vector<Rule> live;
  uint32_t next_tag = 100;
  for (int op = 0; op < 120; ++op) {
    BackendUpdate update;
    if (live.size() > 30 || (!live.empty() && rng.next_bool(0.3))) {
      const size_t pick = rng.next_below(live.size());
      update.removed.push_back(live[pick].id);
      live[pick] = live.back();
      live.pop_back();
    } else {
      Rule fresh = make_rule(next_tag++);
      update.dag.added_vertices.push_back(fresh.id);
      // The default depends on every rule; the fresh rule depends on up to
      // two random existing rules (edges always point at older rules, so
      // the graph stays acyclic).
      update.dag.added_edges.push_back({def.id, fresh.id});
      for (int e = 0; e < 2 && !live.empty(); ++e) {
        const Rule& older = live[rng.next_below(live.size())];
        update.dag.added_edges.push_back({fresh.id, older.id});
      }
      update.added.push_back(fresh);
      live.push_back(fresh);
    }
    pair.apply_both(update);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(pair.cached.layout_valid());
    ASSERT_TRUE(pair.reference.layout_valid());
  }
}

/// The adversarial hotspot at test scale: one default rule with out-degree
/// equal to the table, churned by evicting and reinserting both the default
/// itself and its dependents at high occupancy.
TEST(SchedulerEquivalence, DefaultRuleStarChurnEquivalence) {
  Rng rng(47);
  const size_t leaves = 120;
  SchedulerPair pair(140);

  const Rule def = make_rule(1);
  std::vector<Rule> leaf_rules;
  DependencyGraph g;
  for (size_t i = 0; i < leaves; ++i) {
    leaf_rules.push_back(make_rule(static_cast<uint32_t>(100 + i)));
    g.add_edge(def.id, leaf_rules.back().id);
  }
  pair.cached.graph() = g;
  pair.reference.graph() = g;
  for (const Rule& leaf : leaf_rules) {
    pair.insert_both(leaf);
    if (::testing::Test::HasFatalFailure()) return;
  }
  pair.insert_both(def);
  if (::testing::Test::HasFatalFailure()) return;

  uint32_t next_tag = 10'000;
  for (int op = 0; op < 200; ++op) {
    const double what = rng.next_double();
    if (what < 0.15) {
      // The O(n)-degree rule itself: evict + reinsert must rescan nothing
      // on the incremental side and still land identically.
      pair.evict_both(def.id);
      pair.insert_both(def);
    } else if (what < 0.6) {
      const size_t pick = rng.next_below(leaf_rules.size());
      pair.evict_both(leaf_rules[pick].id);
      pair.insert_both(leaf_rules[pick]);
    } else {
      // Replace a leaf through the batched path: DAG delta + insert.
      const size_t pick = rng.next_below(leaf_rules.size());
      Rule fresh = make_rule(next_tag++);
      BackendUpdate update;
      update.removed.push_back(leaf_rules[pick].id);
      update.dag.added_vertices.push_back(fresh.id);
      update.dag.added_edges.push_back({def.id, fresh.id});
      update.added.push_back(fresh);
      leaf_rules[pick] = fresh;
      pair.apply_both(update);
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(pair.cached.layout_valid());
  }
  ASSERT_TRUE(pair.reference.layout_valid());
}

/// Direct graph() mutation invalidates the cap cache; the next insert must
/// rebuild it exactly — layouts stay identical to the reference scheduler,
/// which rebuilds before every operation.
TEST(SchedulerEquivalence, ExternalGraphMutationTriggersExactRebuild) {
  Rng rng(53);
  SchedulerPair pair(32);
  std::vector<Rule> live;
  uint32_t next_tag = 1;
  for (int op = 0; op < 60; ++op) {
    Rule fresh = make_rule(next_tag++);
    // Mutate through the public graph() accessor, like the adapters and
    // stress tests do.
    pair.cached.graph().add_vertex(fresh.id);
    pair.reference.graph().add_vertex(fresh.id);
    for (int e = 0; e < 2 && !live.empty(); ++e) {
      const Rule& older = live[rng.next_below(live.size())];
      pair.cached.graph().add_edge(fresh.id, older.id);
      pair.reference.graph().add_edge(fresh.id, older.id);
    }
    pair.insert_both(fresh);
    if (::testing::Test::HasFatalFailure()) return;
    live.push_back(fresh);
    if (live.size() > 24) {
      const size_t pick = rng.next_below(live.size());
      pair.remove_both(live[pick].id);
      live[pick] = live.back();
      live.pop_back();
    }
    ASSERT_TRUE(pair.cached.layout_valid());
  }
}

/// Fenwick-descent kth_free: the nearest-free queries must agree with a
/// linear scan over every address, under random occupancy churn and a
/// non-power-of-two capacity.
TEST(OccupancyIndexFenwick, NearestFreeMatchesLinearScan) {
  Rng rng(59);
  const size_t cap = 97;
  OccupancyIndex index(cap);
  std::vector<bool> reference(cap, false);

  for (int round = 0; round < 40; ++round) {
    for (int flips = 0; flips < 13; ++flips) {
      const size_t addr = rng.next_below(cap);
      const bool value = rng.next_bool(0.6);
      index.set_occupied(addr, value);
      reference[addr] = value;
    }
    for (size_t from = 0; from < cap; ++from) {
      std::optional<size_t> want_above;
      for (size_t a = from; a < cap; ++a) {
        if (!reference[a]) {
          want_above = a;
          break;
        }
      }
      std::optional<size_t> want_below;
      for (size_t a = from + 1; a-- > 0;) {
        if (!reference[a]) {
          want_below = a;
          break;
        }
      }
      ASSERT_EQ(index.nearest_free_at_or_above(from), want_above)
          << "round " << round << " from " << from;
      ASSERT_EQ(index.nearest_free_at_or_below(from), want_below)
          << "round " << round << " from " << from;
    }
  }
}

}  // namespace
}  // namespace ruletris
