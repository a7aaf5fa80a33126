// Ablation A4 (paper Section 5, last paragraph): the impact of constraint
// ordering — and of hierarchy — on convergence.
//
// "The difference between the hierarchical organization and the flat
// computation is in the order of constraint application.  Hierarchical
// computation processes constraints in order of locality of interaction...
// We believe hierarchical organization of constraints should further speed
// convergence in addition to reducing the computational complexity within
// an iteration."
//
// This harness measures cycles-to-convergence of the flat solver under
// three orderings (generation order, random shuffle, locality order = the
// hierarchical application order) and of the hierarchical solver itself,
// plus the final data fit.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace phmse::bench {
namespace {

struct Outcome {
  int cycles = 0;
  bool converged = false;
  double residual = 0.0;
  double delta = 0.0;
};

Outcome run_flat(const HelixProblem& p, const cons::ConstraintSet& ordered,
                 const linalg::Vector& x0) {
  engine::CompileOptions opts;
  opts.solve.prior_sigma = 0.5;
  opts.solve.max_cycles = 60;
  opts.solve.tolerance = 0.03;
  engine::Plan plan = Engine::compile(
      engine::Problem::flat(p.model.num_atoms(), ordered), opts);
  const engine::Result r = plan.solve(x0);
  return {r.cycles, r.converged,
          cons::rms_residual(ordered, p.model.topology, r.posterior().x),
          r.last_cycle_delta};
}

// The hierarchical application order: leaf constraints first, in post-order.
cons::ConstraintSet locality_order(const HelixProblem& p) {
  core::Hierarchy h = prepare_helix_hierarchy(p, 1);
  cons::ConstraintSet ordered;
  h.for_each_post_order([&](core::HierNode& node) {
    ordered.append(node.constraints);
  });
  return ordered;
}

int run() {
  print_header("Ablation A4 (Section 5)",
               "Constraint ordering and convergence");

  const Index length = bench_scale() < 0.5 ? 2 : 4;
  // Anchored problem so convergence is well defined.
  HelixProblem p{mol::build_helix(length), {}, {}};
  cons::HelixNoise noise;
  noise.anchor_first_pair = true;
  p.constraints = cons::generate_helix_constraints(p.model, noise);
  Rng rng(17);
  p.initial = p.model.topology.true_state();
  for (auto& v : p.initial) v += rng.gaussian(0.0, 0.4);

  Table t({"ordering", "cycles", "converged", "final residual",
           "last delta"});

  // (a) Generation order (per-pair categories, then junctions).
  {
    const Outcome o = run_flat(p, p.constraints, p.initial);
    t.add_row({"flat: generation order", std::to_string(o.cycles),
               o.converged ? "yes" : "no", format_fixed(o.residual, 4),
               format_fixed(o.delta, 4)});
  }

  // (b) Random shuffle — no domain knowledge at all.
  {
    cons::ConstraintSet shuffled;
    std::vector<cons::Constraint> v = p.constraints.all();
    Rng srng(123);
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(srng.uniform_int(
                              0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (const auto& c : v) shuffled.add(c);
    const Outcome o = run_flat(p, shuffled, p.initial);
    t.add_row({"flat: random order", std::to_string(o.cycles),
               o.converged ? "yes" : "no", format_fixed(o.residual, 4),
               format_fixed(o.delta, 4)});
  }

  // (c) Locality order: the exact order the hierarchy would apply, but on
  //     the flat (full-size) state.
  {
    const Outcome o = run_flat(p, locality_order(p), p.initial);
    t.add_row({"flat: locality order", std::to_string(o.cycles),
               o.converged ? "yes" : "no", format_fixed(o.residual, 4),
               format_fixed(o.delta, 4)});
  }

  // (d) Hierarchical computation proper.
  {
    core::Hierarchy h = prepare_helix_hierarchy(p, 1);
    par::SerialContext ctx;
    core::HierSolveOptions opts;
    opts.prior_sigma = 0.5;
    opts.max_cycles = 60;
    opts.tolerance = 0.03;
    core::SolvePlan plan(h, opts);
    const core::PlanRunStats r = plan.run(ctx, p.initial);
    t.add_row({"hierarchical", std::to_string(r.cycles),
               r.converged ? "yes" : "no",
               format_fixed(cons::rms_residual(p.constraints,
                                               p.model.topology,
                                               plan.root_state().x),
                            4),
               format_fixed(r.last_cycle_delta, 4)});
  }

  std::printf("%s", t.str().c_str());
  std::printf("(helix %lld bp with frame anchors; cycles capped at 60, "
              "tolerance 0.03 A RMS state change)\n",
              static_cast<long long>(length));
  std::printf("Paper reference: [1] found that ordering constraints by "
              "domain knowledge speeds convergence;\nthe paper conjectures "
              "hierarchical (locality) ordering helps further.\n");
  return 0;
}

}  // namespace
}  // namespace phmse::bench

int main() { return phmse::bench::run(); }
