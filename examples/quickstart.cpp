// Quickstart: estimate the structure of a tiny molecule from noisy
// distance measurements, and read out the uncertainty of the answer.
//
// This walks the whole public API in ~80 lines:
//   1. describe the atoms (a Topology),
//   2. state what was measured (a ConstraintSet),
//   3. pick an initial estimate,
//   4. compile the problem once (phmse::Engine) and solve it,
//   5. inspect the refined coordinates and their variances,
//   6. re-solve the same plan — the compiled artifact is reusable.
#include <cstdio>

#include "constraints/set.hpp"
#include "engine/engine.hpp"
#include "molecule/topology.hpp"
#include "support/rng.hpp"

using namespace phmse;

int main() {
  // 1. A four-atom "molecule" shaped like a zig-zag chain.  The positions
  //    here are the ground truth used to synthesize noisy measurements;
  //    the estimator never sees them directly.
  mol::Topology topo;
  topo.add_atom("A", {0.0, 0.0, 0.0});
  topo.add_atom("B", {1.5, 0.0, 0.0});
  topo.add_atom("C", {2.3, 1.2, 0.0});
  topo.add_atom("D", {3.8, 1.3, 0.2});

  // 2. Measurements: every pairwise distance several times (as a wet-lab
  //    experiment would repeat it), a bond angle and a torsion from general
  //    chemistry, plus position anchors on atoms A and B.  Distances alone
  //    determine a structure only up to rigid motion and reflection; the
  //    anchors pin the frame and the torsion breaks the mirror ambiguity.
  //    Three non-collinear anchors are needed: with only A and B pinned the
  //    molecule could still spin freely about the A-B axis.
  Rng rng(2024);
  cons::ConstraintSet data;
  for (int repeat = 0; repeat < 5; ++repeat) {
    for (Index i = 0; i < topo.size(); ++i) {
      for (Index j = i + 1; j < topo.size(); ++j) {
        data.add(cons::make_observed(cons::Kind::kDistance, {i, j, 0, 0},
                                     topo, /*sigma=*/0.05, rng));
      }
    }
  }
  data.add(cons::make_observed(cons::Kind::kAngle, {0, 1, 2, 0}, topo,
                               /*sigma=*/0.02, rng));
  data.add(cons::make_observed(cons::Kind::kTorsion, {0, 1, 2, 3}, topo,
                               /*sigma=*/0.02, rng));
  for (Index atom : {Index{0}, Index{1}, Index{2}}) {
    for (int axis = 0; axis < 3; ++axis) {
      data.add(cons::make_observed(cons::Kind::kPosition, {atom, 0, 0, 0},
                                   topo, /*sigma=*/0.02, rng, /*category=*/0,
                                   axis));
    }
  }
  std::printf("measurements: %lld scalar constraints\n",
              static_cast<long long>(data.size()));

  // 3. Initial estimate: the truth shaken by 0.4 A per coordinate.
  linalg::Vector x0 = topo.true_state();
  for (auto& v : x0) v += rng.gaussian(0.0, 0.4);
  std::printf("initial RMSD to truth: %.3f A\n", topo.rmsd_to_truth(x0));

  // 4. Compile once, solve.  A four-atom molecule needs no decomposition,
  //    so Problem::flat (one node) is the right recipe; larger molecules
  //    use Problem::bisection or a custom hierarchy (see the other
  //    examples).  Everything observation-independent — decomposition,
  //    constraint assignment, workspace sizing — happens inside compile();
  //    solve() just runs numbers through the plan.
  engine::Problem problem =
      engine::Problem::flat(topo.size(), data);
  engine::CompileOptions copts;
  copts.solve.batch_size = 8;
  copts.solve.max_cycles = 60;
  copts.solve.prior_sigma = 0.8;
  copts.solve.tolerance = 1e-3;
  engine::Plan plan = Engine::compile(problem, copts);
  const engine::Result result = plan.solve(x0);
  const est::NodeState& estimate = result.posterior();
  std::printf("solved in %d cycles (converged: %s)\n", result.cycles,
              result.converged ? "yes" : "no");

  // 5. Results: coordinates and their standard deviations from the
  //    covariance diagonal.
  std::printf("final RMSD to truth:  %.3f A\n\n",
              topo.rmsd_to_truth(estimate.x));
  std::printf("%-4s %22s %28s\n", "atom", "estimated position",
              "marginal std-dev (x y z)");
  for (Index a = 0; a < topo.size(); ++a) {
    const mol::Vec3 pos = estimate.position(a);
    std::printf("%-4s (%6.3f %6.3f %6.3f)    (%.4f %.4f %.4f)\n",
                topo.atom(a).label.c_str(), pos.x, pos.y, pos.z,
                std::sqrt(estimate.c(3 * a + 0, 3 * a + 0)),
                std::sqrt(estimate.c(3 * a + 1, 3 * a + 1)),
                std::sqrt(estimate.c(3 * a + 2, 3 * a + 2)));
  }
  std::printf("\nNote how atom A (anchored) has tiny variances while the "
              "chain end D, constrained\nonly through distances, is the "
              "least certain — the covariance output is the point\nof the "
              "method, not just the coordinates.\n");

  // 6. The plan is a reusable artifact: solve again (new starting point,
  //    same measurements) without recompiling.  After the first solve the
  //    serial path re-uses every workspace — no heap allocation.
  linalg::Vector x1 = topo.true_state();
  for (auto& v : x1) v += rng.gaussian(0.0, 0.4);
  const engine::Result again = plan.solve(x1);
  std::printf("\nre-solved the compiled plan from a new start: %d cycles, "
              "RMSD %.3f A\n", again.cycles,
              topo.rmsd_to_truth(again.posterior().x));
  return 0;
}
