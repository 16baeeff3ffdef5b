// Compile-strategy equivalence for ComposedNode's full compile.
//
// full_rebuild and the incremental path (which reaches the same state one
// child update at a time) must agree on the id-independent CompileSnapshot,
// and two full compiles of the same tables must reproduce it exactly: member
// entries by provenance, key-vertex representatives, and the visible
// minimum-DAG edge set. (Member-graph edges are deliberately outside the
// snapshot: the incremental stitcher may retain extra, still-valid
// constraint edges.) The shared state is then checked against the
// from-scratch oracle (testutil::expect_composition_valid):
// compose_from_scratch semantics, random DAG linearisations and the exact
// minimum DAG.
//
// Also holds the collision smoke test for util::hash_pair, which backs the
// PairKey/EdgeKey hashes: rule ids arrive in consecutive runs from the
// global counter, exactly the structured grids the old multiply-add
// combiners degraded on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "compiler/composed_node.h"
#include "compiler/leaf.h"
#include "test_util.h"
#include "util/hash.h"

namespace ruletris {
namespace {

using compiler::CompileSnapshot;
using compiler::ComposedNode;
using compiler::LeafNode;
using compiler::OpKind;
using compiler::PolicySpec;
using flowspace::Action;
using flowspace::ActionList;
using flowspace::FieldId;
using flowspace::FlowTable;
using flowspace::Rule;
using flowspace::RuleId;
using flowspace::TernaryMatch;
using util::Rng;

constexpr OpKind kAllOps[] = {OpKind::kParallel, OpKind::kSequential,
                              OpKind::kPriority};

/// Like testutil::random_actions, but sometimes adds a header rewrite so the
/// sequential operator's match-rewrite machinery is actually exercised.
ActionList random_actions(Rng& rng) {
  if (rng.next_bool(0.3)) {
    return ActionList{Action::set_field(FieldId::kDstIp,
                                        static_cast<uint32_t>(rng.next_below(4)) << 30),
                      Action::forward(1 + static_cast<uint32_t>(rng.next_below(3)))};
  }
  return testutil::random_actions(rng);
}

std::vector<Rule> random_table_rules(Rng& rng, size_t n) {
  std::vector<Rule> rules;
  rules.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rules.push_back(Rule::make(testutil::random_match(rng), random_actions(rng),
                               static_cast<int32_t>(n - i)));
  }
  return rules;
}

ComposedNode make_node(OpKind op, const std::vector<Rule>& t1,
                       const std::vector<Rule>& t2) {
  return ComposedNode{op, std::make_unique<LeafNode>(FlowTable{t1}),
                      std::make_unique<LeafNode>(FlowTable{t2})};
}

/// Checks `node` (a op b) against the from-scratch oracle. The oracle draws
/// its packets and linearisations from `rng`, which callers keep apart from
/// the stream that generates the tables.
void expect_matches_reference(ComposedNode& node, OpKind op, const FlowTable& a,
                              const FlowTable& b, Rng& rng) {
  const std::map<std::string, FlowTable> tables{{"a", a}, {"b", b}};
  const PolicySpec spec = PolicySpec::combine(static_cast<int>(op), PolicySpec::leaf("a"),
                                              PolicySpec::leaf("b"));
  testutil::expect_composition_valid(node, spec, tables, rng, compiler::op_name(op));
}

class CompileStrategies : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompileStrategies, SerialLegacyAndParallelSnapshotsAgree) {
  Rng rng(GetParam());
  Rng oracle_rng(GetParam() ^ 0x0dac1e);
  for (const OpKind op : kAllOps) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto t1 = random_table_rules(rng, 8 + rng.next_below(16));
      const auto t2 = random_table_rules(rng, 8 + rng.next_below(16));

      ComposedNode node = make_node(op, t1, t2);
      const CompileSnapshot first = node.snapshot();
      expect_matches_reference(node, op, FlowTable{t1}, FlowTable{t2}, oracle_rng);

      EXPECT_EQ(make_node(op, t1, t2).snapshot(), first)
          << compiler::op_name(op) << " second compile diverged";
    }
  }
}

TEST_P(CompileStrategies, IncrementalStateMatchesFullRebuildSnapshot) {
  // Drive a node through random child inserts/removals, then recompile the
  // same node from scratch: entries, representatives, and the visible DAG
  // must land in the identical state, and that state must match the
  // from-scratch oracle.
  Rng rng(GetParam() ^ 0x1ac5);
  Rng oracle_rng(GetParam() ^ 0x0dac1e);
  for (const OpKind op : kAllOps) {
    auto t1 = random_table_rules(rng, 5);
    auto t2 = random_table_rules(rng, 5);
    auto left = std::make_unique<LeafNode>(FlowTable{t1});
    auto right = std::make_unique<LeafNode>(FlowTable{t2});
    LeafNode* lp = left.get();
    LeafNode* rp = right.get();
    ComposedNode node{op, std::move(left), std::move(right)};

    std::vector<RuleId> live_l, live_r;
    for (const Rule& r : t1) live_l.push_back(r.id);
    for (const Rule& r : t2) live_r.push_back(r.id);

    for (int step = 0; step < 24; ++step) {
      const bool use_left = rng.next_bool(0.5);
      LeafNode* leaf = use_left ? lp : rp;
      auto& live = use_left ? live_l : live_r;
      if (!live.empty() && rng.next_bool(0.4)) {
        const size_t pick = rng.next_below(live.size());
        node.apply_child_update(use_left, leaf->remove(live[pick]));
        live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
      } else {
        Rule r = Rule::make(testutil::random_match(rng), random_actions(rng),
                            1 + static_cast<int32_t>(rng.next_below(30)));
        live.push_back(r.id);
        node.apply_child_update(use_left, leaf->insert(std::move(r)));
      }
    }

    const CompileSnapshot incremental = node.snapshot();
    expect_matches_reference(node, op, lp->table(), rp->table(), oracle_rng);
    node.full_rebuild();
    EXPECT_EQ(node.snapshot(), incremental)
        << compiler::op_name(op) << " rebuild diverged from incremental";
  }
}

TEST_P(CompileStrategies, NestedTwoLevelPoliciesAgreeAcrossStrategies) {
  // (a op1 b) op2 c — the inner composed node is itself a child, so the
  // outer compile consumes a composed visible table/DAG, not a leaf's.
  Rng rng(GetParam() ^ 0x2b1d);
  Rng oracle_rng(GetParam() ^ 0x0dac1e);
  for (const OpKind op1 : kAllOps) {
    for (const OpKind op2 : kAllOps) {
      const auto ta = random_table_rules(rng, 6 + rng.next_below(6));
      const auto tb = random_table_rules(rng, 6 + rng.next_below(6));
      const auto tc = random_table_rules(rng, 6 + rng.next_below(6));
      // The oracle composes level by level, like the tree: the inner node's
      // table is compose_from_scratch(a op1 b), deduplicated, and the root
      // composes that table with c. A three-leaf compose_from_scratch keeps
      // the inner table's shadowed duplicates; under a sequential root, a
      // packet whose rewritten header misses every rule of c falls through
      // to the compositions of those duplicates, so the two disagree.
      const std::map<std::string, FlowTable> tables{
          {"ab", FlowTable{compiler::compose_from_scratch(
              PolicySpec::combine(static_cast<int>(op1), PolicySpec::leaf("a"),
                                  PolicySpec::leaf("b")),
              {{"a", FlowTable{ta}}, {"b", FlowTable{tb}}})}},
          {"c", FlowTable{tc}}};
      const PolicySpec spec = PolicySpec::combine(
          static_cast<int>(op2), PolicySpec::leaf("ab"), PolicySpec::leaf("c"));

      auto build = [&] {
        auto inner = std::make_unique<ComposedNode>(
            op1, std::make_unique<LeafNode>(FlowTable{ta}),
            std::make_unique<LeafNode>(FlowTable{tb}));
        ComposedNode root{op2, std::move(inner),
                          std::make_unique<LeafNode>(FlowTable{tc})};
        const std::string ctx = std::string(compiler::op_name(op1)) + " then " +
                                compiler::op_name(op2);
        testutil::expect_composition_valid(root, spec, tables, oracle_rng, ctx.c_str());
        // The inner node's entry ids come from the process-global counter and
        // differ per build, so the root's raw provenance snapshot is not
        // comparable across builds. Canonicalize each source id to its rank
        // in the child's visible order (deterministic given the same leaf
        // tables), keeping the snapshot comparison id-independent.
        const CompileSnapshot s = root.snapshot();
        auto ranks = [](const compiler::PolicyNode& n) {
          std::unordered_map<RuleId, size_t> m;
          const auto rules = n.visible_rules_in_order();
          for (size_t i = 0; i < rules.size(); ++i) m[rules[i].id] = i + 1;
          return m;
        };
        const auto lrank = ranks(root.left());
        const auto rrank = ranks(root.right());
        auto canon = [&](const CompileSnapshot::Prov& p) {
          return std::pair<size_t, size_t>{p.first ? lrank.at(p.first) : 0,
                                           p.second ? rrank.at(p.second) : 0};
        };
        std::vector<std::tuple<size_t, size_t, TernaryMatch, ActionList>> entries;
        for (const auto& [l, r, m, a] : s.entries) {
          const auto [cl, cr] = canon({l, r});
          entries.emplace_back(cl, cr, m, a);
        }
        std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
          if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
          return std::get<1>(a) < std::get<1>(b);
        });
        std::vector<std::pair<size_t, size_t>> reps;
        for (const auto& p : s.reps) reps.push_back(canon(p));
        std::sort(reps.begin(), reps.end());
        std::vector<std::pair<std::pair<size_t, size_t>, std::pair<size_t, size_t>>>
            edges;
        for (const auto& [u, v] : s.visible_edges) edges.emplace_back(canon(u), canon(v));
        std::sort(edges.begin(), edges.end());
        return std::make_tuple(entries, reps, edges);
      };

      const auto first = build();
      EXPECT_EQ(build(), first) << compiler::op_name(op1) << " then "
                                << compiler::op_name(op2) << " (second compile)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompileStrategies,
                         ::testing::Values(1u, 0xbeefu, 0x5eedu));

TEST(PairHash, NoCollisionsOnConsecutiveIdGrids) {
  // Rule ids are handed out consecutively, so PairKeys form dense integer
  // grids. The old h(l)*C + h(r) combiner kept grid structure in the low
  // bits; the 128-bit mix must give distinct values and balanced buckets.
  constexpr uint64_t kBase = 1000;
  constexpr size_t kSide = 256;
  std::unordered_set<size_t> seen;
  seen.reserve(kSide * kSide);
  std::vector<size_t> buckets(4096, 0);
  for (uint64_t l = kBase; l < kBase + kSide; ++l) {
    for (uint64_t r = kBase; r < kBase + kSide; ++r) {
      const size_t h = util::hash_pair(l, r);
      seen.insert(h);
      ++buckets[h & 0xfff];
    }
  }
  EXPECT_EQ(seen.size(), kSide * kSide);  // no full-width collisions at all
  // Low bits drive unordered_map bucket choice: demand near-uniform spread
  // (expected 16 per bucket; 4x headroom).
  for (const size_t count : buckets) EXPECT_LE(count, 64u);
  // Ordered pairs are directional.
  EXPECT_NE(util::hash_pair(1, 2), util::hash_pair(2, 1));
}

}  // namespace
}  // namespace ruletris
