// End-to-end reproductions in miniature: the full pipeline (model ->
// constraints -> hierarchy -> schedule -> solve) on both of the paper's
// problems, checking the headline qualitative claims.
#include <gtest/gtest.h>

#include "constraints/helix_gen.hpp"
#include "constraints/ribo_gen.hpp"
#include "core/assign.hpp"
#include "core/schedule.hpp"
#include "core/solve_plan.hpp"
#include "core/work_model.hpp"
#include "molecule/ribo30s.hpp"
#include "molecule/rna_helix.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace phmse::core {
namespace {

linalg::Vector perturbed(const mol::Topology& topo, double sigma,
                         std::uint64_t seed) {
  Rng rng(seed);
  linalg::Vector x = topo.true_state();
  for (auto& v : x) v += rng.gaussian(0.0, sigma);
  return x;
}

TEST(Integration, HelixPipelineConvergesTowardTruth) {
  const mol::HelixModel model = mol::build_helix(2);
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;  // distance data alone leaves the pose free
  const cons::ConstraintSet set =
      cons::generate_helix_constraints(model, noise);
  Hierarchy h = build_helix_hierarchy(model);
  assign_constraints(h, set);
  estimate_work(h, WorkModel{}, 16);
  assign_processors(h, 1);

  const linalg::Vector x0 = perturbed(model.topology, 0.5, 1);
  par::SerialContext ctx;
  HierSolveOptions opts;
  opts.max_cycles = 8;
  opts.prior_sigma = 0.5;
  SolvePlan plan(h, opts);
  plan.run(ctx, x0);

  EXPECT_LT(model.topology.rmsd_to_truth(plan.root_state().x),
            model.topology.rmsd_to_truth(x0));
}

TEST(Integration, HierarchicalIsFasterThanFlatPerCycle) {
  // The core Table-1 claim, in miniature: one cycle of hierarchical
  // computation beats one cycle of flat computation, and the advantage
  // grows with the problem.
  auto run_both = [](Index length) {
    const mol::HelixModel model = mol::build_helix(length);
    const cons::ConstraintSet set = cons::generate_helix_constraints(model);
    const linalg::Vector x0 = perturbed(model.topology, 0.3, 2);

    Stopwatch sw;
    Hierarchy h = build_helix_hierarchy(model);
    assign_constraints(h, set);
    estimate_work(h, WorkModel{}, 16);
    assign_processors(h, 1);
    par::SerialContext ctx1;
    SolvePlan(h, HierSolveOptions{}).run(ctx1, x0);
    const double t_hier = sw.seconds();

    sw.reset();
    Hierarchy flat = build_flat_hierarchy(model.num_atoms());
    assign_constraints(flat, set);
    par::SerialContext ctx2;
    SolvePlan(flat, HierSolveOptions{}).run(ctx2, x0);
    const double t_flat = sw.seconds();
    return std::pair<double, double>{t_hier, t_flat};
  };

  const auto [h2, f2] = run_both(2);
  const auto [h4, f4] = run_both(4);
  EXPECT_LT(h2, f2);
  EXPECT_LT(h4, f4);
  // Advantage grows with problem size.
  EXPECT_GT(f4 / h4, f2 / h2);
}

TEST(Integration, RiboPipelineRunsOnSimulatedDash) {
  mol::Ribo30sOptions small;
  small.num_helices = 12;
  small.num_coils = 12;
  small.num_proteins = 6;
  small.num_domains = 4;
  const mol::Ribo30sModel model = mol::build_ribo30s(small);
  cons::RiboGenOptions gen;
  const cons::ConstraintSet set = cons::generate_ribo_constraints(model, gen);

  Hierarchy h = build_ribo_hierarchy(model);
  assign_constraints(h, set);
  estimate_work(h, WorkModel{}, 16);
  assign_processors(h, 32);
  validate_schedule(h);

  const linalg::Vector x0 = perturbed(model.topology, 1.0, 3);
  simarch::SimMachine machine(simarch::dash32());
  HierSolveOptions opts;
  opts.max_cycles = 2;
  SolvePlan plan(h, opts);
  const PlanRunStats res = plan.run(machine, x0);

  EXPECT_GT(res.vtime, 0.0);
  EXPECT_LT(model.topology.rmsd_to_truth(plan.root_state().x),
            model.topology.rmsd_to_truth(x0));
}

TEST(Integration, RiboProteinAnchorsPinTheFrame) {
  mol::Ribo30sOptions small;
  small.num_helices = 8;
  small.num_coils = 8;
  small.num_proteins = 5;
  small.num_domains = 3;
  const mol::Ribo30sModel model = mol::build_ribo30s(small);
  const cons::ConstraintSet set = cons::generate_ribo_constraints(model);

  Hierarchy h = build_ribo_hierarchy(model);
  assign_constraints(h, set);
  estimate_work(h, WorkModel{}, 16);
  assign_processors(h, 1);

  const linalg::Vector x0 = perturbed(model.topology, 1.5, 4);
  par::SerialContext ctx;
  HierSolveOptions opts;
  opts.max_cycles = 12;
  SolvePlan plan(h, opts);
  plan.run(ctx, x0);
  const est::NodeState& res = plan.root_state();

  // Protein pseudo-atoms end close to their neutron-map positions.
  for (const mol::Segment& s : model.segments) {
    if (s.kind != mol::Segment::Kind::kProtein) continue;
    const Index i = 3 * s.begin;
    const mol::Vec3 est{res.x[static_cast<std::size_t>(i)],
                        res.x[static_cast<std::size_t>(i + 1)],
                        res.x[static_cast<std::size_t>(i + 2)]};
    EXPECT_LT(mol::distance(est, model.topology.atom(s.begin).position),
              2.0);
  }
}

TEST(Integration, ChemistryAnglesPipelineWorks) {
  // Angle/torsion constraints (categories 6-7) flow through the whole
  // hierarchical pipeline alongside distances.
  const mol::HelixModel model = mol::build_helix(1);
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  noise.include_chemistry_angles = true;
  const cons::ConstraintSet set =
      cons::generate_helix_constraints(model, noise);
  EXPECT_GT(set.count_category(6), 0);
  EXPECT_GT(set.count_category(7), 0);

  Hierarchy h = build_helix_hierarchy(model);
  assign_constraints(h, set);
  estimate_work(h, WorkModel{}, 16);
  assign_processors(h, 2);

  const linalg::Vector x0 = perturbed(model.topology, 0.3, 6);
  par::SerialContext ctx;
  HierSolveOptions opts;
  opts.max_cycles = 6;
  opts.prior_sigma = 0.5;
  SolvePlan plan(h, opts);
  plan.run(ctx, x0);
  EXPECT_LT(cons::rms_residual(set, model.topology, plan.root_state().x),
            cons::rms_residual(set, model.topology, x0));
}

TEST(Integration, UncertaintyShrinksWhereDataIsDense) {
  // The covariance output is meaningful: after a solve, the marginal
  // variances are far below the prior.
  const mol::HelixModel model = mol::build_helix(1);
  const cons::ConstraintSet set = cons::generate_helix_constraints(model);
  Hierarchy h = build_helix_hierarchy(model);
  assign_constraints(h, set);
  estimate_work(h, WorkModel{}, 16);
  assign_processors(h, 1);

  par::SerialContext ctx;
  HierSolveOptions opts;
  opts.prior_sigma = 10.0;
  SolvePlan plan(h, opts);
  plan.run(ctx, perturbed(model.topology, 0.2, 5));
  const est::NodeState& res = plan.root_state();
  for (Index i = 0; i < res.dim(); ++i) {
    EXPECT_LT(res.c(i, i), 10.0);  // prior variance was 100
  }
}

}  // namespace
}  // namespace phmse::core
