// Lowers an UpdatePlan into per-switch runtime epoch logs.
//
// Epoch 1 installs each switch's initial projected table plus its full
// minimum DAG; epoch 1 + r carries round r's delta for that switch (an
// empty, barrier-only batch when the round does not touch it — every
// switch's log has the same length, so fleet round r is the same epoch
// number everywhere). DAG deltas are computed per switch per round by
// diffing the minimum DAGs of the before/after tables — exactly the
// update record the RuleTris back-end consumes.
#pragma once

#include <vector>

#include "netplan/planner.h"
#include "runtime/controller.h"

namespace ruletris::netplan {

/// One encoded log per switch (install + one epoch per round), each with
/// the switch's final table as its convergence target — ready for a
/// round-gated runtime::Controller::run_fleet.
std::vector<runtime::SwitchWorkload> materialize(const Topology& topo,
                                                 const UpdatePlan& plan);

}  // namespace ruletris::netplan
