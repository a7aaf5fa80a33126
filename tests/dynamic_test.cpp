#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "core/assign.hpp"
#include "core/dynamic.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace phmse::core {
namespace {

struct Problem {
  mol::HelixModel model;
  cons::ConstraintSet set;
  linalg::Vector initial;
};

Problem helix_problem(Index length) {
  Problem p{mol::build_helix(length), {}, {}};
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  p.set = cons::generate_helix_constraints(p.model, noise);
  Rng rng(7);
  p.initial = p.model.topology.true_state();
  for (auto& v : p.initial) v += rng.gaussian(0.0, 0.3);
  return p;
}

Hierarchy prepared(const Problem& p, int procs) {
  Hierarchy h = build_helix_hierarchy(p.model);
  assign_constraints(h, p.set);
  estimate_work(h, WorkModel{}, 16);
  assign_processors(h, procs);
  return h;
}

TEST(DynamicSolver, NumericsMatchStaticSchedule) {
  // Dynamic scheduling changes processor placement, not constraint order:
  // results must be bitwise identical to the static (and serial) solve.
  const Problem p = helix_problem(2);
  HierSolveOptions opts;

  Hierarchy h1 = prepared(p, 6);
  simarch::SimMachine m1(simarch::generic(6));
  SolvePlan stat(h1, opts);
  stat.run(m1, p.initial);

  Hierarchy h2 = prepared(p, 6);
  simarch::SimMachine m2(simarch::generic(6));
  const DynamicSimResult dyn =
      solve_hierarchical_dynamic_sim(h2, p.initial, opts, m2);

  EXPECT_EQ(stat.root_state().x, dyn.state.x);
  EXPECT_EQ(stat.root_state().c, dyn.state.c);
}

TEST(DynamicSolver, HonorsTheDegradationPolicy) {
  // One wildly wrong observation: under gate_outliers the static schedule
  // drops its batch instead of throwing, and the dynamic waves must apply
  // the same policy and land on the same posterior.
  Problem p = helix_problem(2);
  p.set.set_observed(0, p.set[0].observed + 1e3);
  HierSolveOptions opts;
  opts.policy = est::SolvePolicy::gate_outliers();

  Hierarchy h1 = prepared(p, 6);
  simarch::SimMachine m1(simarch::generic(6));
  SolvePlan stat(h1, opts);
  stat.run(m1, p.initial);
  ASSERT_GT(stat.last_report().gated, 0);

  Hierarchy h2 = prepared(p, 6);
  simarch::SimMachine m2(simarch::generic(6));
  const DynamicSimResult dyn =
      solve_hierarchical_dynamic_sim(h2, p.initial, opts, m2);

  EXPECT_EQ(stat.root_state().x, dyn.state.x);
  EXPECT_EQ(stat.root_state().c, dyn.state.c);
}

TEST(DynamicSolver, HelpsAtNonPowerOfTwoProcessorCounts) {
  // The paper's motivation: the binary helix tree wastes the odd processor
  // under static scheduling; dynamic regrouping recovers some of it.
  const Problem p = helix_problem(8);
  HierSolveOptions opts;

  auto static_time = [&](int procs) {
    Hierarchy h = prepared(p, procs);
    simarch::SimMachine m(simarch::dash32());
    return SolvePlan(h, opts).run(m, p.initial).vtime;
  };
  auto dynamic_time = [&](int procs) {
    Hierarchy h = prepared(p, procs);
    simarch::SimMachine m(simarch::dash32());
    return solve_hierarchical_dynamic_sim(h, p.initial, opts, m).vtime;
  };

  // At 6 processors the static schedule must run at the speed of the
  // 3-processor half; the dynamic wave schedule balances leaf work freely.
  const double stat6 = static_time(6);
  const double dyn6 = dynamic_time(6);
  EXPECT_LT(dyn6, stat6 * 1.05);  // at worst marginally slower
}

TEST(DynamicSolver, ScalesWithProcessors) {
  const Problem p = helix_problem(4);
  HierSolveOptions opts;
  auto t = [&](int procs) {
    Hierarchy h = prepared(p, procs);
    simarch::SimMachine m(simarch::generic(procs));
    return solve_hierarchical_dynamic_sim(h, p.initial, opts, m).vtime;
  };
  EXPECT_GT(t(1) / t(8), 3.0);
}

TEST(DynamicSolver, CyclesAndConvergenceWork) {
  const Problem p = helix_problem(1);
  Hierarchy h = prepared(p, 4);
  simarch::SimMachine m(simarch::generic(4));
  HierSolveOptions opts;
  opts.max_cycles = 40;
  opts.prior_sigma = 0.5;
  opts.tolerance = 0.05;
  const DynamicSimResult res =
      solve_hierarchical_dynamic_sim(h, p.initial, opts, m);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(p.model.topology.rmsd_to_truth(res.state.x),
            p.model.topology.rmsd_to_truth(p.initial));
}

TEST(DynamicSolver, RejectsWrongInitialDimension) {
  const Problem p = helix_problem(1);
  Hierarchy h = prepared(p, 2);
  simarch::SimMachine m(simarch::generic(2));
  linalg::Vector wrong(5, 0.0);
  EXPECT_THROW(
      solve_hierarchical_dynamic_sim(h, wrong, HierSolveOptions{}, m),
      phmse::Error);
}

}  // namespace
}  // namespace phmse::core
