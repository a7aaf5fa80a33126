// The flat (non-hierarchical) solve: Problem::flat compiles the whole
// constraint set onto one node covering the molecule, and max_cycles
// re-linearized cycles re-initialize the covariance from the spherical
// prior before every sweep (paper Section 2).  It is the baseline of the
// paper's Table 1.
#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"

namespace phmse::est {
namespace {

engine::Plan flat_plan(const mol::HelixModel& model,
                       const cons::ConstraintSet& set,
                       const core::HierSolveOptions& opts) {
  engine::CompileOptions copts;
  copts.solve = opts;
  return engine::Engine::compile(
      engine::Problem::flat(model.num_atoms(), set), copts);
}

TEST(FlatSolver, SingleCycleRuns) {
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);

  Rng rng(1);
  NodeState st = make_initial_state(model.topology, 0, model.num_atoms(),
                                    5.0, 0.6, rng);
  core::HierSolveOptions opts;
  opts.max_cycles = 1;
  engine::Plan plan = flat_plan(model, set, opts);
  const engine::Result res = plan.solve(st.x);
  EXPECT_EQ(res.cycles, 1);
  EXPECT_GT(res.last_cycle_delta, 0.0);
  EXPECT_FALSE(res.converged);
}

TEST(FlatSolver, CyclesReduceConstraintResidual) {
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);

  Rng rng(2);
  NodeState st = make_initial_state(model.topology, 0, model.num_atoms(),
                                    5.0, 0.6, rng);
  const double rms_before =
      cons::rms_residual(set, model.topology, st.x);

  core::HierSolveOptions opts;
  opts.max_cycles = 8;
  engine::Plan plan = flat_plan(model, set, opts);
  const linalg::Vector x = plan.solve(st.x).posterior().x;
  const double rms_after = cons::rms_residual(set, model.topology, x);
  EXPECT_LT(rms_after, 0.3 * rms_before);
}

TEST(FlatSolver, CyclesImproveRmsdToTruth) {
  const mol::HelixModel model = mol::build_helix(1);
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;  // pin the frame for a meaningful RMSD
  const cons::ConstraintSet set =
      cons::generate_helix_constraints(model, noise);

  Rng rng(3);
  NodeState st = make_initial_state(model.topology, 0, model.num_atoms(),
                                    0.5, 0.6, rng);
  const double rmsd_before = model.topology.rmsd_to_truth(st.x);
  core::HierSolveOptions opts;
  opts.max_cycles = 8;
  opts.prior_sigma = 0.5;
  engine::Plan plan = flat_plan(model, set, opts);
  EXPECT_LT(model.topology.rmsd_to_truth(plan.solve(st.x).posterior().x),
            rmsd_before);
}

TEST(FlatSolver, ToleranceStopsEarly) {
  const mol::HelixModel model = mol::build_helix(1);
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  const cons::ConstraintSet set =
      cons::generate_helix_constraints(model, noise);

  Rng rng(4);
  NodeState st = make_initial_state(model.topology, 0, model.num_atoms(),
                                    0.5, 0.1, rng);
  core::HierSolveOptions opts;
  opts.max_cycles = 50;
  opts.prior_sigma = 0.5;
  opts.tolerance = 0.05;  // the gauge modes random-walk at ~0.01 A / cycle
  engine::Plan plan = flat_plan(model, set, opts);
  const engine::Result res = plan.solve(st.x);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.cycles, 50);
}

TEST(FlatSolver, BatchSizeDoesNotChangeFixedPointMuch) {
  // Different batch sizes traverse different linearization points but must
  // land at comparable data fits.
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);

  auto solve_with_batch = [&](Index m) {
    Rng rng(5);
    NodeState st = make_initial_state(model.topology, 0, model.num_atoms(),
                                      0.5, 0.3, rng);
    core::HierSolveOptions opts;
    opts.max_cycles = 10;
    opts.prior_sigma = 0.5;
    opts.batch_size = m;
    engine::Plan plan = flat_plan(model, set, opts);
    return cons::rms_residual(set, model.topology,
                              plan.solve(st.x).posterior().x);
  };
  const double rms_1 = solve_with_batch(1);
  const double rms_16 = solve_with_batch(16);
  const double rms_64 = solve_with_batch(64);
  EXPECT_NEAR(rms_1, rms_16, 0.05);
  EXPECT_NEAR(rms_16, rms_64, 0.05);
}

TEST(FlatSolver, RejectsConstraintsOutsideState) {
  const mol::HelixModel model = mol::build_helix(2);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  // The flat node covers only the first base pair's atoms.
  EXPECT_THROW(engine::Engine::compile(engine::Problem::flat(43, set)),
               phmse::Error);
}

TEST(FlatSolver, ProfileCategoriesPopulated) {
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  Rng rng(7);
  NodeState st = make_initial_state(model.topology, 0, model.num_atoms(),
                                    5.0, 0.3, rng);
  engine::Plan plan = flat_plan(model, set, core::HierSolveOptions{});
  par::SerialContext ctx;
  plan.solve(ctx, st.x);
  using perf::Category;
  for (Category c : {Category::kDenseSparse, Category::kCholesky,
                     Category::kSystemSolve, Category::kMatMat,
                     Category::kMatVec, Category::kVector}) {
    EXPECT_GT(ctx.profile().time(c), 0.0)
        << perf::category_name(c);
  }
}

}  // namespace
}  // namespace phmse::est
