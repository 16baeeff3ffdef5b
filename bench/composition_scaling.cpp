// Full-compile scaling of the composition front-end (Sec. IV-B).
//
// RuleTris pays the full composition compile on policy bootstrap and on
// structural policy changes; this bench measures how that compile scales
// with the policy size for all three operators. The compile is the
// production one: candidate pairs pulled from an overlap index over the left
// rules, per-node scratch arenas, one thread. A second full_rebuild() of the
// same node must reproduce the first compile's CompileSnapshot (member
// entries by provenance, key-vertex representatives, visible minimum-DAG
// edges); the bench exits non-zero on divergence, and the smoke run is wired
// into ctest so compile-path regressions fail tier-1.
//
// Workloads mirror the paper's evaluation policies, with the left table
// swept and the right fixed at a hardware-sized router:
//   parallel:   monitor(n)  + router(128)   (Fig. 9 shape)
//   sequential: nat(n)      > router(128)   (Fig. 10 shape)
//   priority:   firewall(n) $ router(128)   (supplementary shape)
//
// Flags: --json PATH   machine-readable report (see bench_util.h)
//        --smoke       tiny sizes + the rebuild check only
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "classbench/generator.h"
#include "compiler/composed_node.h"
#include "compiler/leaf.h"
#include "util/logging.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ruletris;
  using compiler::CompileSnapshot;
  using compiler::ComposedNode;
  using compiler::LeafNode;
  using compiler::OpKind;
  using flowspace::FlowTable;
  using flowspace::Rule;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::init_json(argc, argv, "composition_scaling");
  if (auto* j = bench::json()) {
    j->meta("workload", "left table swept, right = classbench router(128)");
  }

  util::set_log_level(util::LogLevel::kOff);
  std::printf("\n=== Composition full-compile scaling (left x router-128) ===\n");
  std::printf("%-10s %-8s | %-10s | %-8s %-8s\n", "op", "left", "indexed ms",
              "entries", "visible");

  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{100, 200}
            : std::vector<size_t>{250, 500, 1000, 2000, 4000, 10000, 20000};
  const OpKind ops[] = {OpKind::kParallel, OpKind::kSequential, OpKind::kPriority};
  bool ok = true;

  for (const OpKind op : ops) {
    for (const size_t n : sizes) {
      util::Rng rng(0xc0de + n);
      const std::vector<Rule> right_rules = classbench::generate_router(128, rng);
      std::vector<Rule> left_rules;
      switch (op) {
        case OpKind::kParallel:
          left_rules = classbench::generate_monitor(n, rng);
          break;
        case OpKind::kSequential:
          left_rules = classbench::generate_nat(n, right_rules, rng);
          break;
        case OpKind::kPriority:
          left_rules = classbench::generate_firewall(n, rng);
          break;
      }

      // Construct once (untimed warmup compile), then time a second
      // full_rebuild on the same node, so leaf DAG extraction and allocator
      // warmup stay out of the timed section.
      ComposedNode node{op, std::make_unique<LeafNode>(FlowTable{left_rules}),
                        std::make_unique<LeafNode>(FlowTable{right_rules})};
      const CompileSnapshot first = node.snapshot();

      util::Stopwatch watch;
      node.full_rebuild();
      const double indexed_ms = watch.elapsed_ms();

      if (!(node.snapshot() == first)) {
        std::fprintf(stderr, "FAIL: second full compile diverged (%s, n=%zu)\n",
                     compiler::op_name(op), n);
        ok = false;
      }

      std::printf("%-10s %-8zu | %-10.1f | %-8zu %-8zu\n", compiler::op_name(op), n,
                  indexed_ms, node.member_size(), node.visible_size());
      std::fflush(stdout);

      if (auto* j = bench::json()) {
        j->begin_row();
        j->field("op", compiler::op_name(op));
        j->field("left_rules", static_cast<double>(n));
        j->field("right_rules", static_cast<double>(right_rules.size()));
        j->field("member_entries", static_cast<double>(node.member_size()));
        j->field("visible_rules", static_cast<double>(node.visible_size()));
        j->field("indexed_ms", indexed_ms);
      }
    }
  }

  bench::write_json();
  return ok ? 0 : 1;
}
