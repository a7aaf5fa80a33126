// Determinism properties of the refinement loop (DESIGN.md §14).  The
// contract: a refine trajectory is a pure function of (problem, initial_x,
// RefineOptions) — bitwise identical across the serial, threaded and
// simulated executors at EVERY iteration, and across repeated runs with the
// same seed — and a refine never perturbs the plan it ran on: a post-refine
// exact solve is bitwise the from-scratch answer, restarts, annealing and
// checkpoints notwithstanding (the §11 interplay).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "constraints/helix_gen.hpp"
#include "engine/engine.hpp"
#include "molecule/rna_helix.hpp"
#include "parallel/thread_pool.hpp"
#include "refine/refiner.hpp"
#include "simarch/sim_context.hpp"
#include "support/rng.hpp"

namespace phmse::refine {
namespace {

constexpr engine::RunOptions kIncremental{
    .mode = engine::RunMode::kIncremental};

constexpr int kProcessors = 3;

struct HelixCase {
  mol::HelixModel model = mol::build_helix(4);
  cons::ConstraintSet data;
  engine::Problem problem;

  HelixCase() {
    cons::HelixNoise noise;
    noise.anchor_first_pair = true;
    data = cons::generate_helix_constraints(model, noise);
    problem = engine::Problem::custom(
        model.topology.size(), data,
        [m = model] { return core::build_helix_hierarchy(m); });
  }

  engine::CompileOptions compile_options(int processors) const {
    engine::CompileOptions o;
    o.solve.prior_sigma = 0.5;
    o.solve.max_cycles = 1;
    o.processors = processors;
    return o;
  }

  linalg::Vector scrambled(double sigma, std::uint64_t seed) const {
    Rng rng(seed);
    linalg::Vector x = model.topology.true_state();
    for (double& v : x) v += rng.gaussian(0.0, sigma);
    return x;
  }
};

RefineOptions options_for(Mode mode, std::uint64_t seed) {
  RefineOptions o;
  o.mode = mode;
  o.max_iterations = 8;
  o.step_tolerance = 1e-9;
  o.seed = seed;
  if (mode == Mode::kAnnealed) {
    o.initial_temperature = 3.0;
    o.cooling = 0.4;
    o.plateau_ratio = 0.05;  // plateaus (and so restarts) do occur
    o.max_restarts = 2;
    o.restart_sigma = 0.15;
  }
  return o;
}

void expect_same_refine(const engine::Result& got, const engine::Result& want,
                        const std::string& label) {
  ASSERT_EQ(got.posterior().x.size(), want.posterior().x.size()) << label;
  for (std::size_t i = 0; i < want.posterior().x.size(); ++i) {
    ASSERT_EQ(got.posterior().x[i], want.posterior().x[i])
        << label << " coord " << i;
  }
  ASSERT_EQ(got.posterior().c, want.posterior().c) << label;

  const core::RefineReport& g = got.report.refine;
  const core::RefineReport& w = want.report.refine;
  ASSERT_EQ(g.iterations, w.iterations) << label;
  EXPECT_EQ(g.mode, w.mode) << label;
  EXPECT_EQ(g.converged, w.converged) << label;
  EXPECT_EQ(g.diverged, w.diverged) << label;
  EXPECT_EQ(g.restarts, w.restarts) << label;
  EXPECT_EQ(g.best_iteration, w.best_iteration) << label;
  ASSERT_EQ(g.initial_chi2, w.initial_chi2) << label;
  ASSERT_EQ(g.best_chi2, w.best_chi2) << label;
  ASSERT_EQ(g.final_chi2, w.final_chi2) << label;
  ASSERT_EQ(g.trajectory.size(), w.trajectory.size()) << label;
  for (std::size_t k = 0; k < w.trajectory.size(); ++k) {
    const core::RefineIteration& a = g.trajectory[k];
    const core::RefineIteration& b = w.trajectory[k];
    ASSERT_EQ(a.chi2, b.chi2) << label << " iteration " << k + 1;
    ASSERT_EQ(a.rms_residual, b.rms_residual) << label << " iteration "
                                              << k + 1;
    ASSERT_EQ(a.step_norm, b.step_norm) << label << " iteration " << k + 1;
    ASSERT_EQ(a.temperature, b.temperature) << label << " iteration " << k + 1;
    ASSERT_EQ(a.restart, b.restart) << label << " iteration " << k + 1;
  }
}

TEST(RefineDeterminism, EveryModeBitwiseIdenticalAcrossExecutors) {
  HelixCase h;
  par::ThreadPool pool(kProcessors);
  simarch::SimMachine machine(simarch::generic(kProcessors));

  for (const Mode mode : {Mode::kSinglePass, Mode::kIterated, Mode::kAnnealed}) {
    for (const std::uint64_t seed : {1ULL, 2ULL}) {
      const linalg::Vector x0 = h.scrambled(1.2, seed * 31);
      const RefineOptions o = options_for(mode, seed);
      const std::string label =
          std::string(mode_name(mode)) + " seed " + std::to_string(seed);

      engine::Plan p_serial = Engine::compile(h.problem, h.compile_options(1));
      engine::Plan p_pool =
          Engine::compile(h.problem, h.compile_options(kProcessors));
      engine::Plan p_sim =
          Engine::compile(h.problem, h.compile_options(kProcessors));

      Refiner r_serial(p_serial, o);
      Refiner r_pool(p_pool, o);
      Refiner r_sim(p_sim, o);
      const engine::Result serial = r_serial.refine(x0);
      const engine::Result threaded = r_pool.refine(pool, x0);
      const engine::Result simulated = r_sim.refine(machine, x0);

      expect_same_refine(threaded, serial, label + " threaded");
      expect_same_refine(simulated, serial, label + " simulated");
    }
  }
}

TEST(RefineDeterminism, SameSeedReplaysTheSameTrajectory) {
  HelixCase h;
  const linalg::Vector x0 = h.scrambled(1.2, 17);
  RefineOptions o = options_for(Mode::kAnnealed, 99);
  o.step_tolerance = 0.0;  // run all iterations, restarts included
  o.plateau_ratio = 1e9;

  engine::Plan plan = Engine::compile(h.problem, h.compile_options(1));
  Refiner refiner(plan, o);
  const engine::Result first = refiner.refine(x0);
  EXPECT_GE(first.report.refine.restarts, 1);  // the seed stream was consumed

  // Same plan, same Refiner, same inputs: the restart Rng re-seeds per
  // call, so the replay is bitwise identical.
  const engine::Result again = refiner.refine(x0);
  expect_same_refine(again, first, "replay");

  // A fresh Refiner over a fresh plan replays it too.
  engine::Plan plan2 = Engine::compile(h.problem, h.compile_options(1));
  Refiner refiner2(plan2, o);
  const engine::Result fresh = refiner2.refine(x0);
  expect_same_refine(fresh, first, "fresh plan");
}

TEST(RefineDeterminism, PostRefineExactSolveMatchesFromScratch) {
  HelixCase h;
  const linalg::Vector x0 = h.scrambled(1.2, 23);
  RefineOptions o = options_for(Mode::kAnnealed, 7);
  o.step_tolerance = 0.0;
  o.plateau_ratio = 1e9;  // force restarts: the worst case for §11 state

  engine::Plan refined = Engine::compile(h.problem, h.compile_options(1));
  Refiner refiner(refined, o);
  const engine::Result r = refiner.refine(x0);
  ASSERT_GE(r.report.refine.restarts, 1);

  // The annealed loop inflated sigmas, moved the linearization point and
  // restarted — yet the plan it leaves behind answers exactly like one that
  // never refined, on both the full and the incremental path.
  engine::Plan scratch = Engine::compile(h.problem, h.compile_options(1));
  const engine::Result want = scratch.solve(x0);
  const engine::Result full = refined.solve(x0);
  ASSERT_EQ(full.posterior().x.size(), want.posterior().x.size());
  for (std::size_t i = 0; i < want.posterior().x.size(); ++i) {
    ASSERT_EQ(full.posterior().x[i], want.posterior().x[i]) << "coord " << i;
  }
  ASSERT_EQ(full.posterior().c, want.posterior().c);

  // And the checkpoint the post-refine solve established is trustworthy:
  // an incremental re-solve from it matches a from-scratch re-solve.
  const engine::Result inc = refined.solve(x0, kIncremental);
  const engine::Result want2 = scratch.solve(x0);
  ASSERT_EQ(inc.posterior().x.size(), want2.posterior().x.size());
  for (std::size_t i = 0; i < want2.posterior().x.size(); ++i) {
    ASSERT_EQ(inc.posterior().x[i], want2.posterior().x[i]) << "coord " << i;
  }
  ASSERT_EQ(inc.posterior().c, want2.posterior().c);
}

}  // namespace
}  // namespace phmse::refine
