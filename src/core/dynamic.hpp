// Dynamic processor re-assignment (paper Section 5, "Further Work").
//
// The static schedule loses efficiency when a node's processors cannot be
// divided evenly among equal-work subtrees (the paper's Helix dips at
// non-power-of-2 processor counts).  The paper proposes "dynamic
// reassignment of processors to nodes by periodic global synchronization".
// This module implements that proposal in its simplest form, on the
// simulated machine: the tree is processed in depth waves (deepest level
// first); inside a wave every node receives a contiguous processor group
// sized proportionally to its estimated work — unconstrained by subtree
// nesting — and all processors resynchronize globally between waves.
//
// This trades extra global barriers (and, on a real DASH, data migration)
// for freedom in processor placement; bench/ablation_dynamic compares it
// with the static schedule.
#pragma once

#include "core/solve_plan.hpp"

namespace phmse::core {

/// Outcome of a dynamic-schedule simulated solve.
struct DynamicSimResult {
  /// Root posterior.
  est::NodeState state;
  int cycles = 0;
  double last_cycle_delta = 0.0;
  bool converged = false;
  /// Simulated work time (max virtual clock), seconds.
  double vtime = 0.0;
  /// Per-category time: max over processors (paper Tables 3-6 convention).
  perf::Profile breakdown;
};

/// Simulated hierarchical solve with per-wave dynamic processor groups.
/// estimate_work() must have been called (group sizes follow own_work);
/// the static schedule, if any, is ignored.  Every node applies its
/// batches under options.policy, exactly as the static schedule does.
DynamicSimResult solve_hierarchical_dynamic_sim(
    Hierarchy& hierarchy, const linalg::Vector& initial_x,
    const HierSolveOptions& options, simarch::SimMachine& machine);

}  // namespace phmse::core
